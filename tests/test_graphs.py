import logging
import re

import numpy as np
import pytest

from graphmatch.graphs import (GraphError, adjacency_matrix, make_graph,
                               normalized_adjacency)

from conftest import random_graph


def test_single_node_adjacency():
    g = make_graph("a", [[1.0]], [])
    assert np.array_equal(normalized_adjacency(g), [[1.0]])


def test_two_node_one_edge():
    g = make_graph("a", np.zeros((2, 1)), [(0, 1)])
    assert np.allclose(normalized_adjacency(g), [[0.5, 0.5], [0.5, 0.5]])


def test_path_graph_off_diagonal():
    g = make_graph("a", np.zeros((3, 1)), [(0, 1), (1, 2)])
    ab = normalized_adjacency(g)
    assert abs(ab[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-12
    assert abs(ab[1, 1] - 1.0 / 3.0) < 1e-12


def test_isolated_node_diagonal_is_one():
    g = make_graph("a", np.zeros((3, 1)), [(0, 1)])
    assert normalized_adjacency(g)[2, 2] == 1.0


def test_diagonal_is_inverse_degree_plus_one():
    g = make_graph("a", np.zeros((4, 1)), [(0, 1), (0, 2), (0, 3)])
    ab = normalized_adjacency(g)
    assert abs(ab[0, 0] - 0.25) < 1e-12


def test_exact_symmetry(rng):
    for i in range(20):
        g = random_graph(rng, n_min=2, n_max=8, gid=f"g{i}")
        ab = normalized_adjacency(g)
        assert np.array_equal(ab, ab.T)


def test_permutation_equivariance(rng):
    g = random_graph(rng, n_min=4, n_max=6)
    n = g.num_nodes
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    pg = make_graph("p", np.asarray(g.features)[perm],
                    [(int(inv[u]), int(inv[v])) for u, v in g.edges])
    a, pa = normalized_adjacency(g), normalized_adjacency(pg)
    # row i of the permuted graph corresponds to node perm[i] of the original
    assert np.allclose(pa, a[np.ix_(perm, perm)])


def test_valid_graph_passes():
    g = make_graph("a", np.zeros((1, 6)), [])
    assert (g.num_nodes, g.edges, g.labels, g.group) == (1, (), None, None)


def test_out_of_range_edge():
    with pytest.raises(GraphError):
        make_graph("a", np.zeros((3, 2)), [(0, 5)])


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        make_graph("a", np.zeros((2, 1)), [(1, 1)])


def test_empty_features_rejected():
    with pytest.raises(GraphError):
        make_graph("a", np.zeros((0, 3)), [])


def test_duplicate_edges_deduplicated(caplog):
    with caplog.at_level(logging.WARNING):
        g = make_graph("a", np.zeros((2, 1)), [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)
    assert any("duplicate" in r.message for r in caplog.records)


def test_label_length_checked():
    with pytest.raises(GraphError):
        make_graph("a", np.zeros((3, 1)), [], labels=[1, 2])


@pytest.mark.parametrize("feats, edges, labels", [
    (np.zeros((2, 1)), [[0]], None),           # an edge needs two endpoints
    (np.zeros((3, 1)), [[0, 1, 2]], None),
    (np.zeros((2, 1)), [[0, 1.7]], None),      # not truncated to (0, 1)
    (np.zeros((2, 1)), [1], None),
    (np.zeros((2, 1)), [], [0, 1.5]),
    (np.array([[0.0], [np.nan]]), [], None),
    (np.array([[np.inf], [0.0]]), [], None),
    (np.zeros((2, 0)), [(0, 1)], None),         # zero-width features
    (np.zeros((2, 1)), [[True, False]], None),  # JSON's true is not node 1
    (np.zeros((2, 1)), [[0, True]], None),
    (np.zeros((2, 1)), [], [True, 2]),          # nor label 1
])
def test_malformed_graph_rejected(feats, edges, labels):
    with pytest.raises(GraphError, match="graph 'a'"):
        make_graph("a", feats, edges, labels)


@pytest.mark.parametrize("edge", [(0, True), (np.int64(0), 1.0), (0.0, 1), (0, "1")])
def test_an_endpoint_that_is_no_plain_int_is_checked(edge):
    with pytest.raises(GraphError, match=re.escape(
            f"graph 'a': edge {edge!r} is not a pair of integer node indices")):
        make_graph("a", np.zeros((2, 1)), [edge])


def test_numpy_integer_endpoints_read_as_ints():
    g = make_graph("a", np.zeros((3, 1)), [(np.int64(2), np.int32(0)), (np.uint8(1), 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert {type(x) for e in g.edges for x in e} == {int}


@pytest.mark.parametrize("feats", [
    [[True, False]],                   # JSON's true and false are not 1.0 and 0.0
    [[0.5, 1.0], [2.0, False]],
    np.array([[True], [False]]),
    np.array([[1.0, True]], dtype=object),
])
def test_bool_features_rejected(feats):
    with pytest.raises(GraphError, match="graph 'a': features must be numbers, not bools"):
        make_graph("a", feats, [])


def test_adjacency_matrix_symmetric():
    g = make_graph("a", np.zeros((3, 1)), [(0, 2)])
    a = adjacency_matrix(g)
    assert a[0, 2] == a[2, 0] == 1.0
    assert a.sum() == 2.0

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmatch import ged
from graphmatch.ged import (TABLE_CACHE_SIZE, EditCostScheme, GedBudgetError, GedTimeoutError,
                            ged_exact, normalized_similarity)
from graphmatch.graphs import make_graph

from conftest import edit_cost, ged_bruteforce, random_graph


def triangle():
    return make_graph("tri", np.zeros((3, 1)), [(0, 1), (1, 2), (0, 2)])


def path3():
    return make_graph("p3", np.zeros((3, 1)), [(0, 1), (1, 2)])


def test_self_distance_zero():
    g = triangle()
    res = ged_exact(g, g)
    assert res.distance == 0.0
    assert res.normalized_similarity == 1.0


def test_triangle_vs_path():
    res = ged_exact(triangle(), path3())
    assert res.distance == 1.0
    assert abs(res.normalized_similarity - math.exp(-1.0 / 3.0)) < 1e-12


def test_node_and_edge_insertion():
    g1 = make_graph("a", np.zeros((1, 1)), [])
    g2 = make_graph("b", np.zeros((2, 1)), [(0, 1)])
    assert ged_exact(g1, g2).distance == 2.0


def test_label_substitution():
    g1 = make_graph("a", np.zeros((1, 1)), [], labels=[0])
    g2 = make_graph("b", np.zeros((1, 1)), [], labels=[1])
    assert ged_exact(g1, g2).distance == 1.0
    assert ged_bruteforce(g1, g2).distance == 1.0


def test_bruteforce_agrees_on_fixtures():
    for a, b in [(triangle(), path3()),
                 (make_graph("a", np.zeros((1, 1)), []),
                  make_graph("b", np.zeros((2, 1)), [(0, 1)]))]:
        assert ged_exact(a, b).distance == ged_bruteforce(a, b).distance


def test_symmetry_on_random_pairs(rng):
    for i in range(50):
        g1 = random_graph(rng, n_min=1, n_max=4, gid=f"a{i}")
        g2 = random_graph(rng, n_min=1, n_max=4, gid=f"b{i}")
        assert ged_bruteforce(g1, g2).distance == ged_bruteforce(g2, g1).distance


def test_oracle_equivalence_small(rng):
    for i in range(60):
        labeled = i % 2 == 0
        g1 = random_graph(rng, n_min=1, n_max=4, labeled=labeled, gid=f"a{i}")
        g2 = random_graph(rng, n_min=1, n_max=4, labeled=labeled, gid=f"b{i}")
        assert ged_exact(g1, g2).distance == ged_bruteforce(g1, g2).distance


def random_costs(rng):
    """A cost scheme of dyadic values, so every edit-path sum is exact."""
    return EditCostScheme(*(float(c) for c in rng.choice([0.25, 0.5, 1.0, 2.0, 3.0], size=5)))


def swapped(costs):
    """The scheme under which d(b, a) equals d(a, b) under `costs`."""
    return EditCostScheme(node_insert=costs.node_delete, node_delete=costs.node_insert,
                          edge_insert=costs.edge_delete, edge_delete=costs.edge_insert,
                          node_substitute=costs.node_substitute)


def tied(rng, g, n_labels=3, gid="b"):
    """A random labelled graph with g's node and edge counts: ged_exact maps
    the graph given first of such a pair, so swapping the two changes the
    search."""
    n = g.num_nodes
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = sorted(rng.choice(len(slots), size=len(g.edges), replace=False).tolist())
    return make_graph(gid, rng.normal(size=(n, 3)), [slots[k] for k in keep],
                      [int(x) for x in rng.integers(0, n_labels, size=n)])


def permuted(g, perm):
    """A relabelled copy of g whose node k is g's node perm[k]."""
    inv = np.argsort(perm)
    return make_graph("p", np.asarray(g.features)[perm],
                      [(int(inv[u]), int(inv[v])) for u, v in g.edges],
                      None if g.labels is None else [g.labels[int(p)] for p in perm])


DYADIC_COSTS = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])


@st.composite
def symmetric_costs(draw):
    """Insert and delete cost the same, for nodes and for edges; substitution
    is drawn on its own."""
    node, edge = draw(DYADIC_COSTS), draw(DYADIC_COSTS)
    return EditCostScheme(node_insert=node, node_delete=node, edge_insert=edge,
                          edge_delete=edge, node_substitute=draw(DYADIC_COSTS))


@st.composite
def small_graphs(draw, labeled, gid, like=None):
    """A graph of 1-6 nodes, or of `like`'s node and edge counts."""
    n = draw(st.integers(1, 6)) if like is None else like.num_nodes
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if like is None:
        present = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
        edges = [e for e, keep in zip(slots, present) if keep]
    else:
        edges = draw(st.permutations(slots))[:len(like.edges)]
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) if labeled else None
    return make_graph(gid, np.zeros((n, 1)), edges, labels)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), labeled=st.booleans(), costs=symmetric_costs())
def test_identity_and_symmetry_under_symmetric_costs(data, labeled, costs):
    # b ties with a on (nodes, edges), so each order maps a different graph
    a = data.draw(small_graphs(labeled, "a"))
    b = data.draw(small_graphs(labeled, "b", like=a))
    perm = np.array(data.draw(st.permutations(range(a.num_nodes))))
    assert ged_exact(a, permuted(a, perm), costs).distance == 0.0
    assert ged_exact(a, b, costs).distance == ged_exact(b, a, costs).distance


def test_oracle_equivalence_random_costs():
    rng = np.random.default_rng(2020)
    for i in range(150):
        costs = random_costs(rng)
        g1 = random_graph(rng, n_min=1, n_max=5, n_labels=3, gid=f"a{i}")
        g2 = random_graph(rng, n_min=1, n_max=5, n_labels=3, gid=f"b{i}")
        assert ged_exact(g1, g2, costs).distance == ged_bruteforce(g1, g2, costs).distance, \
            (i, costs)


def test_exact_beyond_bruteforce_symmetric_and_permutation_free():
    # 6-8 nodes is out of brute-force reach; an inadmissible bound shows as an
    # asymmetric distance or a nonzero one to an isomorphic copy. g2 ties with
    # g1 on (nodes, edges), so the swapped call maps g2, not g1 again
    rng = np.random.default_rng(7)
    for i in range(12):
        costs = EditCostScheme() if i % 2 else random_costs(rng)
        g1 = random_graph(rng, n_min=6, n_max=8, n_labels=3, edge_prob=0.3, gid=f"a{i}")
        g2 = tied(rng, g1, gid=f"b{i}")
        assert ged_exact(g1, g2, costs).distance == ged_exact(g2, g1, swapped(costs)).distance
        assert ged_exact(g1, permuted(g1, rng.permutation(g1.num_nodes)), costs).distance == 0.0


def test_g1_node_order_does_not_change_distance():
    # g2 ties with g1 on (nodes, edges), so g1 is the graph mapped; its nodes
    # are searched in descending-degree order, so relabelling g1 changes the
    # internal order, the per-image crossing bound and the ties
    rng = np.random.default_rng(31)
    for i in range(20):
        costs = random_costs(rng)
        g1 = random_graph(rng, n_min=6, n_max=8, n_labels=3, edge_prob=0.35, gid=f"a{i}")
        g2 = tied(rng, g1, gid=f"b{i}")
        assert (ged_exact(permuted(g1, rng.permutation(g1.num_nodes)), g2, costs).distance
                == ged_exact(g1, g2, costs).distance), (i, costs)


def test_search_expansion_count():
    # index order with the |C1 - C2| crossing bound expanded 11,751 states on
    # this corpus, descending-degree order with the per-image bound 2,139, and
    # mapping the smaller graph's nodes 1,247; pricing each child from its
    # parent and caching per-graph tables keep every push, so exactly 1,247
    rng = np.random.default_rng(2024)
    total = 0
    for i in range(40):
        g1 = random_graph(rng, n_min=6, n_max=8, n_labels=3, edge_prob=0.3, gid=f"a{i}")
        g2 = random_graph(rng, n_min=6, n_max=8, n_labels=3, edge_prob=0.3, gid=f"b{i}")
        total += ged_exact(g1, g2).nodes_expanded
    assert total == 1247, total


def test_search_is_pinned_state_for_state():
    # the repr of every result (distance, similarity, expansions) over 200
    # pairs of 1-9 nodes, a quarter under the default scheme and the rest
    # under dyadic schemes, hashed; pinned before child bounds were derived
    # from the parent's and the per-graph tables cached, which must keep
    # every push, key and tie-break, so the same states pop in the same order
    rng = np.random.default_rng(3407)
    results = []
    for i in range(200):
        costs = (EditCostScheme() if i % 4 == 0 else
                 EditCostScheme(*(float(c) for c in rng.choice([0.5, 1.0, 2.0, 3.0], size=5))))
        graphs = [random_graph(rng, n_min=1, n_max=9, n_labels=4, labeled=i % 5 != 0,
                               edge_prob=0.3, gid=f"{side}{i}") for side in "ab"]
        results.append(repr(ged_exact(*graphs, costs)))
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    assert digest == "d9cc03345f0bc9a77254a71328dac8fc231fbd12c8cc616508bd577e5f9e2ed3"


def test_search_tables_are_cached_once_per_graph():
    ged._tables.cache_clear()
    rng = np.random.default_rng(300)
    corpus = [random_graph(rng, n_min=3, n_max=6, gid=f"g{i}") for i in range(300)]
    for a, b in zip(corpus, corpus[1:]):
        ged_exact(a, b)
    info = ged._tables.cache_info()
    assert info.maxsize == TABLE_CACHE_SIZE and info.currsize <= info.maxsize
    # the tables are keyed on (num_nodes, edges, labels), not on the id or features
    ged._tables.cache_clear()
    g = make_graph("g", np.zeros((4, 1)), [(0, 1), (1, 2), (2, 3)], [0, 1, 0, 2])
    twin = make_graph("twin", np.ones((4, 1)), g.edges, g.labels)
    assert ged_exact(g, twin).distance == 0.0
    assert ged._tables.cache_info().currsize == 1
    relabelled = make_graph("r", g.features, g.edges, [3, 3, 3, 3])
    assert ged_exact(g, relabelled).distance == 4.0
    assert ged._tables.cache_info().currsize == 2


def comprehension_tables(n, edges, labels):
    """The mapped-side search tables by one comprehension over the edges per
    node and per depth: the reference the one-pass build must equal."""
    adj = ged._adj_masks(n, edges)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    pos = {v: k for k, v in enumerate(order)}
    edges1 = [(min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges]
    lab1 = tuple(labels[v] for v in order)
    depths = range(n + 1)
    return (lab1, tuple(tuple(u for u, v in edges1 if v == i) for i in range(n)),
            tuple(ged._adj_masks(n, edges1)),
            tuple(sum(1 for u, _ in edges1 if u >= d) for d in depths),
            tuple(sum(1 for u, v in edges1 if u < d <= v) for d in depths),
            {lab: tuple(lab1[d:].count(lab) for d in depths) for lab in dict.fromkeys(labels)})


def test_search_tables_match_their_comprehensions():
    rng = np.random.default_rng(811)
    for i in range(1500):
        g = random_graph(rng, n_min=1, n_max=10, n_labels=4, labeled=i % 3 != 0,
                         edge_prob=rng.random(), gid=f"g{i}")
        args = (g.num_nodes, g.edges, ged._labels(g))
        assert ged._tables.__wrapped__(*args)[0] == comprehension_tables(*args), args


def test_the_smaller_graph_is_the_one_searched():
    # pairs that differ in (nodes, edges) run one search whichever way they
    # are given, so the swapped call expands the same states
    rng = np.random.default_rng(77)
    checked = 0
    for i in range(60):
        costs = random_costs(rng)
        a = random_graph(rng, n_min=3, n_max=8, n_labels=3, edge_prob=0.3, gid=f"a{i}")
        b = random_graph(rng, n_min=3, n_max=8, n_labels=3, edge_prob=0.3, gid=f"b{i}")
        if (a.num_nodes, len(a.edges)) == (b.num_nodes, len(b.edges)):
            continue
        checked += 1
        ab, ba = ged_exact(a, b, costs), ged_exact(b, a, swapped(costs))
        assert (ab.distance, ab.nodes_expanded) == (ba.distance, ba.nodes_expanded), (i, costs)
    assert checked >= 50


def test_oracle_equivalence_when_g1_is_larger():
    # the search then maps g2 under the transposed scheme
    rng = np.random.default_rng(4048)
    for i in range(120):
        costs = random_costs(rng)
        g1 = random_graph(rng, n_min=2, n_max=5, n_labels=3, gid=f"a{i}")
        g2 = random_graph(rng, n_min=1, n_max=g1.num_nodes - 1, n_labels=3, gid=f"b{i}")
        assert ged_exact(g1, g2, costs).distance == ged_bruteforce(g1, g2, costs).distance, \
            (i, costs)


@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_timeout_error_survives_pickle_and_copy(clone):
    e = clone(GedTimeoutError(3.5))
    assert type(e) is GedTimeoutError
    assert str(e) == "GED search timed out; best lower bound 3.5"
    assert e.best_bound == 3.5


def test_budget_error_keeps_the_callers_size_order():
    small = make_graph("s", np.zeros((2, 1)), [(0, 1)])
    big = make_graph("b", np.zeros((6, 1)), [])
    with pytest.raises(GedBudgetError, match="size 6/2 "):
        ged_exact(big, small, node_budget=5)


def test_triangle_inequality(rng):
    for i in range(30):
        gs = [random_graph(rng, n_min=1, n_max=4, gid=f"g{i}{j}") for j in range(3)]
        dab = ged_bruteforce(gs[0], gs[1]).distance
        dbc = ged_bruteforce(gs[1], gs[2]).distance
        dac = ged_bruteforce(gs[0], gs[2]).distance
        assert dac <= dab + dbc + 1e-9


def test_isomorphic_permutation_zero(rng):
    g = random_graph(rng, n_min=3, n_max=4)
    assert ged_exact(g, permuted(g, rng.permutation(g.num_nodes))).distance == 0.0


def test_budget_refusal():
    g = make_graph("a", np.zeros((6, 1)), [])
    with pytest.raises(GedBudgetError):
        ged_exact(g, g, node_budget=5)
    with pytest.raises(GedBudgetError):
        ged_bruteforce(g, g)


def test_normalized_similarity_values():
    assert normalized_similarity(0.0, 3, 3) == 1.0
    assert abs(normalized_similarity(2.0, 3, 3) - math.exp(-2.0 / 3.0)) < 1e-12
    big = normalized_similarity(1000.0, 5, 5)
    assert 0.0 < big < 1e-10


def test_normalized_similarity_rejects_bad_input():
    with pytest.raises(ValueError):
        normalized_similarity(-1.0, 3, 3)


def test_edit_cost_of_the_identity_is_zero(rng):
    for i in range(20):
        g = random_graph(rng, n_min=1, n_max=8, n_labels=3, labeled=i % 2 == 0, gid=f"g{i}")
        assert edit_cost(g, g, {u: u for u in range(g.num_nodes)}, random_costs(rng)) == 0.0


def test_edit_cost_of_the_empty_mapping_deletes_and_inserts_everything():
    costs = EditCostScheme(node_insert=0.25, node_delete=0.5, edge_insert=2.0, edge_delete=3.0,
                           node_substitute=1.0)
    g1 = make_graph("a", np.zeros((3, 1)), [(0, 1), (1, 2), (0, 2)], [0, 1, 2])
    g2 = make_graph("b", np.zeros((4, 1)), [(0, 1), (2, 3)], [0, 1, 2, 0])
    assert edit_cost(g1, g2, {}, costs) == 3 * 0.5 + 4 * 0.25 + 3 * 3.0 + 2 * 2.0


def test_edit_cost_of_one_relabelled_node_is_one_substitution():
    costs = EditCostScheme(node_substitute=0.25)
    g = make_graph("a", np.zeros((4, 1)), [(0, 1), (1, 2), (2, 3)], [0, 1, 0, 2])
    relabelled = make_graph("b", np.zeros((4, 1)), g.edges, [0, 1, 1, 2])
    assert edit_cost(g, relabelled, {u: u for u in range(4)}, costs) == 0.25


def ged_milp(g1, g2, costs):
    """Edit distance by a binary program, as (objective, an optimal mapping).

    x[i, k] maps g1's node i onto g2's node k, each node onto at most one,
    and y[e, f] maps g1's edge e onto g2's edge f. An edge maps onto an edge
    only if both its ends map onto the other's ends: for each g1 node u and
    g2 edge f = (a, b), the edges at u mapped onto f number at most
    x[u, a] + x[u, b], and the mirror holds for each g2 node and g1 edge.
    What is not mapped is deleted or inserted, so the distance is the cost of
    deleting g1 and inserting g2, plus the minimum of
    sum x[i, k] (sub[i, k] - node_delete - node_insert) - sum y[e, f] (edge_delete + edge_insert).
    Only x need be integral: once it is, a y can be nonzero only where its
    edge's ends map onto the other's, and there it is alone in rows bounded
    by 1, so the minimum sets it to 1."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, m, e1, e2 = g1.num_nodes, g2.num_nodes, g1.edges, g2.edges
    x = np.arange(n * m).reshape(n, m)
    y = n * m + np.arange(len(e1) * len(e2)).reshape(len(e1), len(e2))
    rows = []

    def row(plus, minus=()):
        r = np.zeros(n * m + y.size)
        r[plus], r[list(minus)] = 1.0, -1.0
        rows.append(r)

    for i in range(n):
        row(x[i])
    for k in range(m):
        row(x[:, k])
    for u in range(n):
        at_u = [e for e, edge in enumerate(e1) if u in edge]
        for f, (a, b) in enumerate(e2):
            row(y[at_u, f], (x[u, a], x[u, b]))
    for a in range(m):
        at_a = [f for f, edge in enumerate(e2) if a in edge]
        for e, (u, v) in enumerate(e1):
            row(y[e, at_a], (x[u, a], x[v, a]))
    lab1, lab2 = np.array(g1.labels or (0,) * n), np.array(g2.labels or (0,) * m)
    sub = np.where(lab1[:, None] == lab2, 0.0, costs.node_substitute)
    c = np.r_[(sub - costs.node_delete - costs.node_insert).ravel(),
              np.full(y.size, -(costs.edge_delete + costs.edge_insert))]
    ub = np.r_[np.ones(n + m), np.zeros(len(rows) - n - m)]
    res = milp(c, integrality=np.r_[np.ones(n * m), np.zeros(y.size)], bounds=Bounds(0, 1),
               constraints=LinearConstraint(np.array(rows), -np.inf, ub),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    mapping = {int(i): int(k) for i, k in zip(*np.nonzero(res.x[x] > 0.5))}
    return (n * costs.node_delete + m * costs.node_insert + len(e1) * costs.edge_delete
            + len(e2) * costs.edge_insert + res.fun), mapping


def test_exact_equals_a_binary_program_at_6_to_10_nodes():
    # past brute force's reach, at the sizes the corpora train on: the
    # program's optimal mapping, priced by edit_cost, is the distance. A bound
    # inflated by one operation errs on a few percent of such pairs, so there
    # are many small sparse ones; the 9-10 node pairs take the default
    # scheme, as every generated target does
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1729)
    pairs = []
    for i in range(82):
        big = i >= 80
        g1, g2 = (random_graph(rng, *((9, 10) if big else (6, 8)), n_labels=3,
                               labeled=i % 6 != 5, edge_prob=0.2, gid=f"{side}{i}")
                  for side in "ab")
        pairs.append((g1, g2, EditCostScheme() if big or i % 3 == 0 else random_costs(rng)))
    assert any(g1.labels is None for g1, _, _ in pairs)
    assert any(g1.num_nodes > g2.num_nodes for g1, g2, _ in pairs)
    assert any(g1.num_nodes >= 9 for g1, _, _ in pairs)
    for i, (g1, g2, costs) in enumerate(pairs):
        objective, mapping = ged_milp(g1, g2, costs)
        want = edit_cost(g1, g2, mapping, costs)
        assert abs(objective - want) < 1e-3, (i, costs)  # solver tolerance, below any cost step
        assert ged_exact(g1, g2, costs).distance == want, (i, costs)


def test_exact_when_the_search_deletes_a_node_with_unmapped_neighbours():
    # cheap node deletion and insertion against a dear substitution, a dense
    # g1 and a g1 label no g2 node carries make deleting one of g1's first,
    # high-degree nodes pay, while its neighbours are still unmapped: the
    # deletion term of the per-image crossing bound. Doubling that term gives
    # a wrong distance on 3 of these pairs
    rng = np.random.default_rng(1)
    edge_costs = [0.25, 0.5, 1.0, 2.0, 3.0]
    for i in range(500):
        costs = EditCostScheme(node_insert=float(rng.choice([0.25, 0.5])),
                               node_delete=float(rng.choice([0.25, 0.5])),
                               edge_insert=float(rng.choice(edge_costs)),
                               edge_delete=float(rng.choice(edge_costs)),
                               node_substitute=float(rng.choice([2.0, 3.0])))
        g1 = random_graph(rng, n_min=3, n_max=4, n_labels=3, edge_prob=0.7, gid=f"a{i}")
        g2 = random_graph(rng, n_min=4, n_max=5, n_labels=2, edge_prob=0.5, gid=f"b{i}")
        assert ged_exact(g1, g2, costs).distance == ged_bruteforce(g1, g2, costs).distance, \
            (i, costs)


def test_a_timeout_under_an_asymmetric_scheme_still_gives_a_lower_bound():
    # the bounds price every remaining edit at the cheapest node or edge
    # operation, so a cheap edge insertion leaves A* almost unguided past 9
    # nodes: after 2 s on this 10/10-node pair its best bound reads 11
    # against a distance of 27, which the binary program finds in 0.05 s
    pytest.importorskip("scipy.optimize")
    costs = EditCostScheme(node_insert=1, node_delete=0.5, edge_insert=0.25, edge_delete=3,
                           node_substitute=1)
    rng = np.random.default_rng(1729)
    for i in range(13):  # the 13th pair of this draw
        g1, g2 = (random_graph(rng, 9, 10, n_labels=3, edge_prob=0.35, gid=f"{side}{i}")
                  for side in "ab")
    _, mapping = ged_milp(g1, g2, costs)
    with pytest.raises(GedTimeoutError) as err:
        ged_exact(g1, g2, costs, timeout=0.25)
    assert 0 < err.value.best_bound <= edit_cost(g1, g2, mapping, costs)

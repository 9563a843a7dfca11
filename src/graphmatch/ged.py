"""Exact graph edit distance via A* search.

Distance is the minimum total cost of node insertions/deletions/substitutions
and edge insertions/deletions turning one graph into the other. The search
maps nodes of the smaller graph, in order of descending degree, onto nodes of
the other graph or onto deletion; leftover nodes of the other are insertions.
"""

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass

from .model import FINITE_AT_LEAST_0, check_bounds


class GedBudgetError(ValueError):
    """Raised when input graphs exceed the configured node budget."""


class GedTimeoutError(TimeoutError):
    """Raised when search exceeds its deadline; carries the best lower bound.
    ``args`` is ``(best_bound,)``, what ``__init__`` takes, so pickle and copy
    rebuild the same error."""

    def __init__(self, best_bound):
        super().__init__(best_bound)
        self.best_bound = best_bound

    def __str__(self):
        return f"GED search timed out; best lower bound {self.best_bound}"


@dataclass(frozen=True)
class EditCostScheme:
    node_insert: float = 1.0
    node_delete: float = 1.0
    edge_insert: float = 1.0
    edge_delete: float = 1.0
    node_substitute: float = 1.0  # applied only when labels differ
    # a negative cost breaks the admissible bound that keeps ged_exact optimal
    BOUNDS = {name: FINITE_AT_LEAST_0 for name in (
        "node_insert", "node_delete", "edge_insert", "edge_delete", "node_substitute")}

    def __post_init__(self):
        check_bounds(vars(self), self.BOUNDS, ValueError)


@dataclass(frozen=True)
class GedResult:
    distance: float
    normalized_similarity: float
    nodes_expanded: int


def normalized_similarity(distance, n, m):
    """Map an edit distance to (0, 1] by exp(-distance / mean graph size)."""
    if distance < 0 or n < 1 or m < 1:
        raise ValueError("distance must be >= 0 and sizes >= 1")
    return math.exp(-distance / ((n + m) / 2.0))


def _labels(g):
    if g.labels is not None:
        return tuple(g.labels)
    return (0,) * g.num_nodes


def _adj_masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


TABLE_CACHE_SIZE = 256  # graphs whose search tables are kept; gate 4's corpus has 200
_DEFAULT_COSTS = EditCostScheme()


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _tables(n, edges, labels):
    """What ``ged_exact`` reads of one graph, as ``(mapped, other)``. Mapped,
    in descending-degree order: labels, prefix neighbours, adjacency masks,
    per depth the internal and crossing edge counts, and each label's count
    among the nodes >= depth. Other, in the graph's own order: each distinct
    label's index and count, and per node ``(j, 1 << j, adjacency mask, label
    index, degree)``. One pass over the edges fills the per-depth counts."""
    adj = tuple(_adj_masks(n, edges))
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    lab1 = tuple(labels[v] for v in order)
    back, adj1 = [[] for _ in range(n)], [0] * n
    # an edge (u, v), u < v in the new order, is internal at depths <= u and
    # crossing at u < depth <= v: count it at u, open a span at u + 1 and close it at v + 1
    starts, spans = [0] * (n + 1), [0] * (n + 1)
    for a, b in edges:
        u, v = sorted((pos[a], pos[b]))
        back[v].append(u)
        adj1[u] |= 1 << v
        adj1[v] |= 1 << u
        starts[u] += 1
        spans[u + 1] += 1
        spans[v + 1] -= 1
    index = {lab: k for k, lab in enumerate(dict.fromkeys(labels))}
    tails = {lab: tuple(itertools.accumulate((x == lab for x in reversed(lab1)), initial=0))[::-1]
             for lab in index}
    mapped = (lab1, tuple(map(tuple, back)), tuple(adj1),
              tuple(itertools.accumulate(reversed(starts)))[::-1],
              tuple(itertools.accumulate(spans)), tails)
    return mapped, (index, tuple(labels.count(lab) for lab in index),
                    tuple((j, 1 << j, adj[j], index[labels[j]], adj[j].bit_count())
                          for j in range(n)))


def ged_exact(g1, g2, costs=None, node_budget=10, timeout=10.0):
    """Optimal edit distance by A* over prefix node mappings.

    The search maps the graph with fewer nodes (then fewer edges, then g1 as
    given), so it places no forced deletions: when that is g2, it searches
    ``(g2, g1)`` under the transposed scheme (insert and delete swapped, for
    nodes and edges), which has the same distance. Below, g1 and g2 are the
    graphs searched and ``nodes_expanded`` counts that search's expansions;
    a ``GedBudgetError`` gives the sizes in the caller's order.

    g1's nodes are mapped in order of descending degree, ties broken by index:
    they are relabelled into that order once per call, and everything below
    reads the relabelled labels and edges. Mapping high-degree nodes first
    charges most edges early, so the bounds below tighten sooner.

    A state maps the first ``depth`` nodes of that order onto distinct g2 nodes
    or onto deletion; ``used`` is the int bitmask of the g2 nodes taken. Its
    cost ``g`` charges every node edit of the prefix and every edge between
    prefix nodes or between used g2 nodes. Neighbourhoods are bitmasks, so
    mapping node i onto a free g2 node j costs, with ``img`` the images of i's
    mapped prefix neighbours, a substitution plus ``edge_delete`` for each
    prefix neighbour whose edge is not kept (``back - |img & adj2[j]|``) and
    ``edge_insert`` for each used neighbour of j with no edge to i
    (``|used & adj2[j]| - |img & adj2[j]|``).

    The g2 side statistics of ``used`` (free nodes, free nodes per label,
    free-free and free-used edges) start at ``(m, g2's label counts, |E2|, 0)``
    and are derived once per mask, from its parent mask's, when a state with
    that mask first pops (the parent mask popped before): j leaves the free
    nodes and its label's count, its
    ``|adj2[j]| - |used & adj2[j]|`` edges to free nodes turn free-used, and
    its ``|used & adj2[j]|`` edges to used nodes stop being free-used. An
    expansion counts the common labels ``C = sum_l min(T[l], F[l])`` of the
    g1 nodes >= depth (T) and the free g2 nodes (F) once, and each child's
    count follows in O(1), with ``li`` and ``lj`` the label indices of i and
    j among g2's (``li = -1`` if g2 lacks it): ``C - 1`` if it maps i onto j
    and ``li == lj``; otherwise ``C - [li >= 0 and T[li] <= F[li]]``, less
    ``[F[lj] <= T[lj]]`` if it maps i onto j. The tables that depend on one
    graph only, for either role, are built once per graph (``_tables``).
    Below full depth the pushed heuristic adds two admissible bounds:

    - nodes: every unmapped g1 node and free g2 node takes part in some node
      edit, at most the label-multiset intersection of the two sides can be
      free substitutions, and n2 >= m - depth >= n1 as n <= m, so at least
      ``n2 - common`` edits remain, each at least the cheapest node operation;
    - edges: an uncharged g1 edge is internal (both ends unmapped) or crosses
      to the prefix. A kept internal edge maps onto a g2 edge with both ends
      free and a kept crossing edge onto one with one end free and one used,
      so at least ``|I1 - I2| + |C1 - C2|`` edge edits remain, each costing at
      least the cheapest edge operation.

    The crossing term is tightened per image. Each uncharged crossing g1 edge
    has exactly one prefix end p, and each free-used g2 edge exactly one used
    end, the image of a single prefix node. A kept crossing edge at p maps
    onto a free-used g2 edge at p's image, so with ``c1(p)`` the unmapped g1
    neighbours of p and ``c2(p)`` the free g2 neighbours of its image (0 for a
    deleted p), at least ``|c1(p) - c2(p)|`` edits touch the crossing edges at
    p, and these edit sets are disjoint across p. So ``sum_p |c1(p) - c2(p)|``
    is admissible and, by the triangle inequality, at least ``|C1 - C2|``.
    It depends on the whole mapping, not on ``(depth, used)``, so it is applied
    lazily: a non-goal state is pushed keyed on the bounds above, and on its first
    pop the gap ``(sum_p |c1(p) - c2(p)| - |C1 - C2|) * min_edge_cost`` is
    computed; if it is positive the state is pushed again, marked refined, at
    ``f + gap``. Only expansions count towards ``nodes_expanded``, and a
    popped key, refined or not, is still a lower bound on the distance.

    At full depth the heuristic is the exact completion cost (insert every
    free g2 node and every g2 edge touching one), so a popped goal's priority
    is its total cost and, every other bound being admissible, the first goal
    popped is optimal under any cost scheme. Priority ties prefer deeper
    mappings, then earlier pushes.

    Three things cut the work per state without changing which states pop,
    or in what order. A child is pushed with its parent's mapping and its g2
    node j; its own mapping tuple and its mask's statistics are built when it
    first pops, so the children that never pop cost only their key. An
    expansion at the last depth, whose children are all goals, pushes one
    goal keyed on its cheapest child's cost: a costlier sibling could only
    pop after it, and the search returns then. And each expansion's
    last push (the delete child, the one goal, or a refined re-push) is
    merged with the next pop by ``heapq.heappushpop``; ticks make every key
    unique, so it returns what the push and a pop would.
    """
    costs = costs or _DEFAULT_COSTS
    n, m = g1.num_nodes, g2.num_nodes
    if max(n, m) > node_budget:
        raise GedBudgetError(f"graphs of size {n}/{m} exceed node budget {node_budget}")
    node_insert, node_delete = costs.node_insert, costs.node_delete
    edge_insert, edge_delete = costs.edge_insert, costs.edge_delete
    if (m, len(g2.edges)) < (n, len(g1.edges)):  # map the smaller, under the transposed scheme
        g1, g2, n, m = g2, g1, m, n
        node_insert, node_delete, edge_insert, edge_delete = (
            node_delete, node_insert, edge_delete, edge_insert)
    node_sub = costs.node_substitute
    min_node_cost = min(node_sub, node_delete, node_insert)
    min_edge_cost = min(edge_delete, edge_insert)
    lab1, back1, adj1, internal1, cross1, tails1 = _tables(n, g1.edges, _labels(g1))[0]
    index2, counts2, nodes2 = _tables(m, g2.edges, _labels(g2))[1]
    # per depth: count of each g2 label among g1 nodes >= depth
    zeros = (0,) * (n + 1)
    tail1 = list(zip(*(tails1.get(lab, zeros) for lab in index2)))
    label_at1 = [index2.get(lab, -1) for lab in lab1]
    full = (1 << m) - 1
    edges2 = len(g2.edges)
    free_memo = {0: (m, counts2, edges2, 0)}
    DEL = -1

    common = sum(map(min, tail1[0], counts2))
    # an entry is (f, -depth, tick, g, depth, used, mapping, last): a child
    # carries its parent's mapping and, as last, the g2 node its last g1 node
    # maps onto (DEL for a deletion); last is None once mapping is the
    # state's own (the root and refined re-pushes), and a goal, which pops
    # only to return its key, carries no more than its key and depth
    state = ((m - common) * min_node_cost + abs(internal1[0] - edges2) * min_edge_cost,
             0, 0, 0.0, 0, 0, (), None)
    heap = []
    tick = 0
    push, pushpop = heapq.heappush, heapq.heappushpop
    deadline = time.monotonic() + timeout
    expanded = 0
    while True:
        f, negd, _, g, depth, used, mapping, last = state
        if time.monotonic() > deadline:
            raise GedTimeoutError(f)
        if depth == n:
            return GedResult(f, normalized_similarity(f, n, m), expanded)
        stats = free_memo.get(used)
        if stats is None:  # first pop of this mask; its parent's, less last, popped before
            n2, free_counts, internal2, cross2 = free_memo[used & ~(1 << last)]
            _, _, adj, lj, degree = nodes2[last]
            to_used = (used & adj).bit_count()
            to_free = degree - to_used
            free_counts = list(free_counts)
            free_counts[lj] -= 1
            stats = free_memo[used] = (n2 - 1, free_counts, internal2 - to_free,
                                       cross2 - to_used + to_free)
        n2, free_counts, internal2, cross2 = stats
        if last is not None:
            mapping += (last,)
            c1_total = cross1[depth]
            if c1_total and cross2:  # one side empty: both bounds agree
                free = full & ~used
                per_image = 0
                for adj, j in zip(adj1, mapping):  # the prefix nodes p and their images
                    c1 = (adj >> depth).bit_count()
                    per_image += abs(c1 - (nodes2[j][2] & free).bit_count()) if j != DEL else c1
                gap = (per_image - abs(c1_total - cross2)) * min_edge_cost
                if gap > 0:
                    tick += 1
                    state = pushpop(heap, (f + gap, negd, tick, g, depth, used, mapping, None))
                    continue
        expanded += 1
        i, nd = depth, depth + 1
        img = 0
        for u in back1[i]:
            if mapping[u] != DEL:
                img |= 1 << mapping[u]
        back = len(back1[i])
        li = label_at1[i]
        # delete node i; its edges to already-processed nodes get charged now,
        # edges to later nodes when those are reached
        del_g = g + node_delete + edge_delete * back
        if nd == n:  # every child is a goal, and only the cheapest can pop
            best = math.inf
            for _, bit, adj, lj, _ in nodes2:
                if used & bit:
                    continue
                both = (img & adj).bit_count()
                to_used = (used & adj).bit_count()
                sub = 0.0 if lj == li else node_sub
                ng = g + (sub + edge_delete * (back - both) + edge_insert * (to_used - both))
                best = min(best, ng + ((n2 - 1) * node_insert
                                       + (internal2 + cross2 - to_used) * edge_insert))
            best = min(best, del_g + (n2 * node_insert + (internal2 + cross2) * edge_insert))
            tick += 1
            state = pushpop(heap, (best, -nd, tick, None, nd, None, None, None))
            continue
        tail = tail1[i]
        common = sum(map(min, tail, free_counts))
        lost = li >= 0 and tail[li] <= free_counts[li]  # i leaving the tail lowers C
        internal1_nd, cross1_nd = internal1[nd], cross1[nd]
        # map node i onto each unused g2 node, lowest first
        for j, bit, adj, lj, degree in nodes2:
            if used & bit:
                continue
            both = (img & adj).bit_count()
            to_used = (used & adj).bit_count()
            if lj == li:
                sub, c = 0.0, common - 1
            else:
                sub, c = node_sub, common - lost - (free_counts[lj] <= tail[lj])
            ng = g + (sub + edge_delete * (back - both) + edge_insert * (to_used - both))
            to_free = degree - to_used
            i2, c2 = internal2 - to_free, cross2 - to_used + to_free
            h = ((n2 - 1 - c) * min_node_cost
                 + (abs(internal1_nd - i2) + abs(cross1_nd - c2)) * min_edge_cost)
            tick += 1
            push(heap, (ng + h, -nd, tick, ng, nd, used | bit, mapping, j))
        h = ((n2 - (common - lost)) * min_node_cost
             + (abs(internal1_nd - internal2) + abs(cross1_nd - cross2)) * min_edge_cost)
        tick += 1
        state = pushpop(heap, (del_g + h, -nd, tick, del_g, nd, used, mapping, DEL))

"""Exact graph edit distance via A* search, with a brute-force verifier.

Distance is the minimum total cost of node insertions/deletions/substitutions
and edge insertions/deletions turning one graph into the other. The search
maps nodes of the first graph in fixed index order onto nodes of the second
graph or onto deletion; leftover second-graph nodes are insertions.
"""

import heapq
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass


class GedBudgetError(ValueError):
    """Raised when input graphs exceed the configured node budget."""


class GedTimeoutError(TimeoutError):
    """Raised when search exceeds its deadline; carries the best lower bound."""

    def __init__(self, best_bound):
        super().__init__(f"GED search timed out; best lower bound {best_bound}")
        self.best_bound = best_bound


@dataclass(frozen=True)
class EditCostScheme:
    node_insert: float = 1.0
    node_delete: float = 1.0
    edge_insert: float = 1.0
    edge_delete: float = 1.0
    node_substitute: float = 1.0  # applied only when labels differ

    def substitution(self, l1, l2):
        return 0.0 if l1 == l2 else self.node_substitute


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


def _adj_sets(g):
    adj = [set() for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def ged_exact(g1, g2, costs=None, node_budget=10, timeout=10.0):
    """Optimal edit distance by A* over prefix node mappings.

    The heuristic combines a label-multiset lower bound on remaining node
    costs with an edge-count difference bound; both are admissible, so the
    first goal popped is optimal. Priority ties prefer deeper mappings.
    """
    costs = costs or EditCostScheme()
    n, m = g1.num_nodes, g2.num_nodes
    if max(n, m) > node_budget:
        raise GedBudgetError(f"graphs of size {n}/{m} exceed node budget {node_budget}")
    lab1, lab2 = _labels(g1), _labels(g2)
    adj1, adj2 = _adj_sets(g1), _adj_sets(g2)

    # g1 edges still uncharged at prefix depth i: those touching a node >= i
    edges1_rem = [sum(1 for u, v in g1.edges if v >= i) for i in range(n + 1)]
    edge2_masks = [(1 << x) | (1 << y) for x, y in g2.edges]
    min_node_cost = min(costs.node_substitute, costs.node_delete, costs.node_insert)
    min_edge_cost = min(costs.edge_delete, costs.edge_insert)

    # label tail multisets for the node lower bound
    tail1 = [Counter(lab1[i:]) for i in range(n + 1)]

    def heuristic(depth, used_mask):
        r1 = tail1[depth]
        r2 = Counter(lab2[j] for j in range(m) if not used_mask & (1 << j))
        n1, n2 = n - depth, m - bin(used_mask).count("1")
        common = sum((r1 & r2).values())
        node_lb = (max(n1, n2) - common) * min_node_cost
        e1 = edges1_rem[depth]
        e2 = sum(1 for mask in edge2_masks if mask & ~used_mask)
        return node_lb + abs(e1 - e2) * min_edge_cost

    DEL = -1
    counter = itertools.count()
    heap = [(heuristic(0, 0), 0, next(counter), 0.0, 0, 0, ())]
    deadline = time.monotonic() + timeout
    expanded = 0
    while heap:
        f, _negd, _, g, depth, used, mapping = heapq.heappop(heap)
        if time.monotonic() > deadline:
            raise GedTimeoutError(f)
        if depth == n:
            # goal: insert every unused g2 node and every g2 edge touching one
            extra = (m - bin(used).count("1")) * costs.node_insert
            extra += sum(costs.edge_insert for mask in edge2_masks if mask & ~used)
            total = g + extra
            return GedResult(total, normalized_similarity(total, n, m), expanded)
        expanded += 1
        i = depth
        # map node i onto each unused g2 node
        for j in range(m):
            if used & (1 << j):
                continue
            step = costs.substitution(lab1[i], lab2[j])
            for u in range(depth):
                ju = mapping[u]
                in1 = u in adj1[i]
                if ju == DEL:
                    if in1:
                        step += costs.edge_delete
                else:
                    in2 = ju in adj2[j]
                    if in1 and not in2:
                        step += costs.edge_delete
                    elif in2 and not in1:
                        step += costs.edge_insert
            nu = used | (1 << j)
            ng = g + step
            h = heuristic(depth + 1, nu)
            heapq.heappush(heap, (ng + h, -(depth + 1), next(counter),
                                  ng, depth + 1, nu, mapping + (j,)))
        # delete node i; its edges to already-processed nodes get charged now,
        # edges to later nodes when those are reached
        step = costs.node_delete + sum(costs.edge_delete for u in adj1[i] if u < depth)
        ng = g + step
        h = heuristic(depth + 1, used)
        heapq.heappush(heap, (ng + h, -(depth + 1), next(counter),
                              ng, depth + 1, used, mapping + (DEL,)))
    raise RuntimeError("A* exhausted the queue without reaching a goal")


def ged_bruteforce(g1, g2, costs=None, max_nodes=5):
    """Exhaustive minimum over all injective partial node mappings.

    Only intended as a test oracle; refuses graphs above max_nodes.
    """
    costs = costs or EditCostScheme()
    n, m = g1.num_nodes, g2.num_nodes
    if max(n, m) > max_nodes:
        raise GedBudgetError(f"brute force limited to {max_nodes} nodes, got {n}/{m}")
    lab1, lab2 = _labels(g1), _labels(g2)
    e1 = set(g1.edges)
    e2 = set(g2.edges)
    best = math.inf
    nodes1 = list(range(n))
    for k in range(min(n, m) + 1):
        for kept in itertools.combinations(nodes1, k):
            for image in itertools.permutations(range(m), k):
                phi = dict(zip(kept, image))
                cost = (n - k) * costs.node_delete + (m - k) * costs.node_insert
                cost += sum(costs.substitution(lab1[u], lab2[phi[u]]) for u in kept)
                for u, v in e1:
                    if u in phi and v in phi:
                        a, b = phi[u], phi[v]
                        if (min(a, b), max(a, b)) not in e2:
                            cost += costs.edge_delete
                    else:
                        cost += costs.edge_delete
                used = set(image)
                inv = {j: u for u, j in phi.items()}
                for x, y in e2:
                    if x in used and y in used:
                        u, v = inv[x], inv[y]
                        if (min(u, v), max(u, v)) not in e1:
                            cost += costs.edge_insert
                    else:
                        cost += costs.edge_insert
                if cost < best:
                    best = cost
    return GedResult(best, normalized_similarity(best, n, m), 0)

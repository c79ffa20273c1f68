"""Dual graphs of reducible fibres and their shape classification.

The dual graph of a reducible fibre has one node per component, decorated
with the self-intersection, and an edge of weight Theta_i . Theta_j for
each intersecting pair.  Four shapes get recognized:

* ``RulingChainA``: chain of a ruling member through blown-up points,
  two (-1) ends and k nodes of square -2 between them, all multiplicity 1;
* ``RulingForkD``: ruling member with a multiplicity-2 stem, one (-1) end
  and a fork into two multiplicity-1 tails of square -2;
* ``TrivializingFiber``: the genus-g fibre on a maximal model whose
  presence forces the Mordell-Weil group to vanish: a fork with arm
  lengths (4g+1, 1, 2), all squares -2 except the short-arm end -(g+1),
  and multiplicity pattern (1, 2, ..., 4g+2, 2g+2, 2g+1, 2);
* ``TrivializingCoreOnly``: the graph is not that fibre, but contains its
  core (the trivializing graph minus the multiplicity-1 end) as an
  induced subgraph.

Everything else is ``Other``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import matrices as mx
from .errors import ModelMismatchError, NotAFiberError
from .surface import DivisorClass, intersect

KIND_RULING_CHAIN = "RulingChainA"
KIND_RULING_FORK = "RulingForkD"
KIND_TRIVIALIZING = "TrivializingFiber"
KIND_TRIVIALIZING_CORE = "TrivializingCoreOnly"
KIND_OTHER = "Other"


@dataclass(frozen=True)
class GraphNode:
    label: str
    self_intersection: int


@dataclass(frozen=True)
class DualGraph:
    """Weighted intersection graph of fibre components."""

    nodes: tuple[GraphNode, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        norm = []
        for i, j, w in self.edges:
            if not 0 <= i < len(self.nodes) or not 0 <= j < len(self.nodes) or i == j:
                raise ValueError("bad edge (%d, %d)" % (i, j))
            if w <= 0:
                raise ValueError("edge weights must be positive")
            norm.append((min(i, j), max(i, j), w))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def __len__(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.nodes))}
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj

    def simple_degrees(self) -> tuple[int, ...]:
        """Number of distinct neighbours of each node (weights ignored)."""
        adj = self.adjacency()
        return tuple(len(adj[i]) for i in range(len(self.nodes)))

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt, _ in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.nodes)

    def is_simple_tree(self) -> bool:
        """Connected, no multiple edges, and edge count n - 1."""
        return (
            self.is_connected()
            and all(w == 1 for _, _, w in self.edges)
            and len(self.edges) == len(self.nodes) - 1
        )


def dual_graph(components: Sequence[DivisorClass], labels: Sequence[str] = ()) -> DualGraph:
    """Build the dual graph; rejects pairs with negative intersection."""
    comps = tuple(components)
    if not comps:
        raise NotAFiberError("no components")
    model = comps[0].model
    for c in comps:
        if c.model != model:
            raise ModelMismatchError("components live on different models")
    labels = tuple(labels) or tuple("Theta%d" % k for k in range(len(comps)))
    if len(labels) != len(comps):
        raise ValueError("label count does not match component count")
    nodes = []
    edges = []
    for i, c in enumerate(comps):
        nodes.append(GraphNode(labels[i], intersect(c, c)))
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            w = intersect(comps[i], comps[j])
            if w < 0:
                raise NotAFiberError(
                    "components %s and %s meet negatively (%d); "
                    "they cannot be distinct curves" % (labels[i], labels[j], w)
                )
            if w > 0:
                edges.append((i, j, w))
    return DualGraph(tuple(nodes), tuple(edges))


def fiber_multiplicities(
    components: Sequence[DivisorClass], fiber: DivisorClass
) -> tuple[int, ...]:
    """Positive integers m with sum m_i Theta_i = F; unique when it exists."""
    comps = tuple(components)
    if not comps:
        raise NotAFiberError("no components")
    for c in comps:
        if c.model != fiber.model:
            raise ModelMismatchError("components and fibre on different models")
    matrix = tuple(c.coeffs for c in comps)
    solution, rank = mx._solve_left_and_rank(matrix, fiber.coeffs)
    if rank < len(comps):
        raise NotAFiberError("components are linearly dependent")
    if solution is None:
        raise NotAFiberError("fibre class is not spanned by the components")
    mults = []
    for i, value in enumerate(solution):
        value = Fraction(value)
        if value.denominator != 1:
            raise NotAFiberError("multiplicity of component %d is %s, not integral" % (i, value))
        if value < 1:
            raise NotAFiberError("multiplicity of component %d is %s, not positive" % (i, value))
        mults.append(int(value))
    return tuple(mults)


def mw_rank_formula(rho: int, component_counts: Sequence[int]) -> int:
    """Mordell-Weil rank rho - 2 - sum_t (v_t - 1) from fibre component counts."""
    total = 0
    for v in component_counts:
        if v < 1:
            raise ValueError("component counts must be positive")
        total += v - 1
    return rho - 2 - total


@dataclass(frozen=True)
class FiberShape:
    """Recognized dual-graph shape with its parameter."""

    kind: str
    genus: int | None = None
    length: int | None = None

    def __str__(self) -> str:
        if self.kind in (KIND_TRIVIALIZING, KIND_TRIVIALIZING_CORE):
            return "%s(g=%s)" % (self.kind, self.genus)
        if self.kind in (KIND_RULING_CHAIN, KIND_RULING_FORK):
            return "%s(k=%s)" % (self.kind, self.length)
        return self.kind


def _arms(graph: DualGraph, branch: int) -> list[list[int]] | None:
    """Paths from a degree-3 node to the leaves, or None if not arm-like."""
    adj = graph.adjacency()
    arms = []
    for first, _ in adj[branch]:
        arm = [first]
        prev, cur = branch, first
        while True:
            nxt = [k for k, _ in adj[cur] if k != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
            arm.append(cur)
        arms.append(arm)
    return arms


def _match_trivializing(graph: DualGraph, mults: Sequence[int]) -> int | None:
    """Genus g when the graph is the full trivializing fibre, else None."""
    n = len(graph)
    if n < 9 or (n - 5) % 4 != 0:
        return None
    g = (n - 5) // 4
    if not graph.is_simple_tree():
        return None
    degrees = graph.simple_degrees()
    if sorted(degrees).count(3) != 1 or max(degrees) > 3:
        return None
    branch = degrees.index(3)
    arms = _arms(graph, branch)
    if arms is None:
        return None
    arms.sort(key=len)
    if [len(a) for a in arms] != [1, 2, 4 * g + 1]:
        return None
    short, middle, long_arm = arms
    sq = [node.self_intersection for node in graph.nodes]
    special = middle[-1]
    for i in range(n):
        want = -(g + 1) if i == special else -2
        if sq[i] != want:
            return None
    if mults[branch] != 4 * g + 2:
        return None
    if mults[short[0]] != 2 * g + 1:
        return None
    if mults[middle[0]] != 2 * g + 2 or mults[middle[1]] != 2:
        return None
    for pos, node in enumerate(long_arm):
        if mults[node] != 4 * g + 1 - pos:
            return None
    return g


def _match_trivializing_core(graph: DualGraph) -> int | None:
    """Smallest genus whose core diagram embeds as an induced subgraph."""
    n = len(graph)
    if n > 40:
        return None
    adj = graph.adjacency()
    simple = {i: {j for j, _ in adj[i]} for i in range(n)}
    weights = {(min(i, j), max(i, j)): w for i, j, w in graph.edges}
    sq = [node.self_intersection for node in graph.nodes]

    def induced_ok(selected: list[int], pattern_edges: set[tuple[int, int]]) -> bool:
        pos = {node: k for k, node in enumerate(selected)}
        for a in selected:
            for b in simple[a]:
                if b in pos and a < b:
                    key = (min(pos[a], pos[b]), max(pos[a], pos[b]))
                    if key not in pattern_edges or weights[(a, b)] != 1:
                        return False
        for (pa, pb) in pattern_edges:
            ga, gb = selected[pa], selected[pb]
            if gb not in simple[ga]:
                return False
        return True

    def paths_from(start: int, avoid: set[int], length: int) -> list[list[int]]:
        """Simple paths of exact node count starting at start, avoiding ``avoid``."""
        out = []

        def extend(path: list[int]):
            if len(path) == length:
                out.append(list(path))
                return
            for nxt in simple[path[-1]]:
                if nxt not in avoid and nxt not in path:
                    path.append(nxt)
                    extend(path)
                    path.pop()

        extend([start])
        return out

    for g in range(1, (n - 4) // 4 + 1):
        core = 4 * g + 4
        if core > n:
            break
        # Pattern positions: 0..4g-1 long arm (leaf first), 4g branch,
        # 4g+1 short arm, 4g+2 and 4g+3 the middle arm.
        pattern_edges = {(i, i + 1) for i in range(4 * g - 1)}
        pattern_edges |= {(4 * g - 1, 4 * g), (4 * g, 4 * g + 1), (4 * g, 4 * g + 2), (4 * g + 2, 4 * g + 3)}
        pattern_edges = {(min(a, b), max(a, b)) for a, b in pattern_edges}
        for branch in range(n):
            if len(simple[branch]) < 3 or sq[branch] != -2:
                continue
            for s_node in simple[branch]:
                if sq[s_node] != -2:
                    continue
                for m1 in simple[branch]:
                    if m1 in (s_node,) or sq[m1] != -2:
                        continue
                    for m2 in simple[m1]:
                        if m2 in (branch, s_node, m1) or sq[m2] != -(g + 1):
                            continue
                        avoid = {branch, s_node, m1, m2}
                        starts = [
                            x for x in simple[branch] if x not in avoid and sq[x] == -2
                        ]
                        for start in starts:
                            for arm in paths_from(start, avoid, 4 * g):
                                if any(sq[x] != -2 for x in arm):
                                    continue
                                selected = list(reversed(arm)) + [branch, s_node, m1, m2]
                                if len(set(selected)) != core:
                                    continue
                                if induced_ok(selected, pattern_edges):
                                    return g
    return None


def _match_ruling_chain(graph: DualGraph, mults: Sequence[int]) -> int | None:
    n = len(graph)
    if n < 2 or not graph.is_simple_tree():
        return None
    degrees = graph.simple_degrees()
    if max(degrees) > 2 or degrees.count(1) != 2:
        return None
    if any(m != 1 for m in mults):
        return None
    sq = [node.self_intersection for node in graph.nodes]
    for i in range(n):
        want = -1 if degrees[i] == 1 else -2
        if sq[i] != want:
            return None
    return n - 2


def _match_ruling_fork(graph: DualGraph, mults: Sequence[int]) -> int | None:
    n = len(graph)
    if n < 3 or not graph.is_simple_tree():
        return None
    sq = [node.self_intersection for node in graph.nodes]
    degrees = graph.simple_degrees()
    minus_one = [i for i in range(n) if sq[i] == -1]
    if len(minus_one) != 1 or any(sq[i] != -2 for i in range(n) if i not in minus_one):
        return None
    stem_end = minus_one[0]
    if mults[stem_end] != 2:
        return None
    tails = [i for i in range(n) if mults[i] == 1]
    if len(tails) != 2 or any(degrees[i] != 1 for i in tails):
        return None
    if any(mults[i] != 2 for i in range(n) if i not in tails):
        return None
    if n == 3:
        # Degenerate fork: tail - stem - tail.
        if degrees[stem_end] == 2 and all(degrees[i] == 1 for i in tails):
            return 2
        return None
    if degrees[stem_end] != 1:
        return None
    forks = [i for i in range(n) if degrees[i] == 3]
    if len(forks) != 1 or max(degrees) > 3:
        return None
    fork = forks[0]
    adj = graph.adjacency()
    if not all(t in {j for j, _ in adj[fork]} for t in tails):
        return None
    # Remaining nodes must form the stem path from the fork to the -1 end.
    arms = _arms(graph, fork)
    if arms is None:
        return None
    stem = [a for a in arms if len(a) > 1 or a[0] == stem_end]
    if len(stem) != 1 or stem[0][-1] != stem_end:
        return None
    return n - 1


def classify_shape(graph: DualGraph, multiplicities: Sequence[int]) -> FiberShape:
    """Match the dual graph against the recognized shapes."""
    if len(multiplicities) != len(graph):
        raise ValueError("multiplicity count does not match node count")
    mults = tuple(int(m) for m in multiplicities)
    g = _match_trivializing(graph, mults)
    if g is not None:
        return FiberShape(KIND_TRIVIALIZING, genus=g)
    k = _match_ruling_chain(graph, mults)
    if k is not None:
        return FiberShape(KIND_RULING_CHAIN, length=k)
    k = _match_ruling_fork(graph, mults)
    if k is not None:
        return FiberShape(KIND_RULING_FORK, length=k)
    g = _match_trivializing_core(graph)
    if g is not None:
        return FiberShape(KIND_TRIVIALIZING_CORE, genus=g)
    return FiberShape(KIND_OTHER)


def to_dot(graph: DualGraph, multiplicities: Sequence[int] | None = None, name: str = "fiber") -> str:
    """GraphViz source with one node per component, labelled m=..., s=...."""
    lines = ['graph "%s" {' % name.replace('"', "'")]
    for i, node in enumerate(graph.nodes):
        m = str(multiplicities[i]) if multiplicities else "?"
        lines.append(
            '  n%d [label="%s: m=%s, s=%d"];'
            % (i, node.label.replace('"', "'"), m, node.self_intersection)
        )
    for i, j, w in graph.edges:
        if w == 1:
            lines.append("  n%d -- n%d;" % (i, j))
        else:
            lines.append('  n%d -- n%d [label="%d"];' % (i, j, w))
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Dual graphs of reducible fibres and their shape classification.

The dual graph of a reducible fibre has one node per component, named
Theta<k> by its position in the fibre and decorated with the
self-intersection, and an edge of weight Theta_i . Theta_j for each
intersecting pair.  Each recognized shape is one generated reference
tree, labelled with squares and multiplicities (``_reference``), and a
graph has the shape when that tree embeds in it as an induced subgraph with
equal labels and weight-1 edges (``_embeds``):

* ``RulingChainA``: chain of a ruling member through blown-up points,
  two (-1) ends and k nodes of square -2 between them, all multiplicity 1;
* ``RulingForkD``: ruling member with a multiplicity-2 stem, one (-1) end
  and a fork into two multiplicity-1 tails of square -2;
* ``TrivializingFiber``: the genus-g fibre on a maximal model whose
  presence forces the Mordell-Weil group to vanish: a fork with arm
  lengths (4g+1, 1, 2), all squares -2 except the end of the two-node arm,
  -(g+1), and multiplicity pattern (1, 2, ..., 4g+2, 2g+2, 2g+1, 2);
* ``TrivializingCoreOnly``: the graph is not that fibre, but contains its
  core (the trivializing tree minus the multiplicity-1 end, squares only)
  as an induced subgraph.

A full shape is tested on simple trees of its own node count, so there the
embedding is an isomorphism.  Everything else is ``Other``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _component_label(k: int) -> str:
    """Name of the k-th component of a fibre, as graphs and reports print it."""
    return "Theta%d" % k


def dual_graph(components: Sequence[DivisorClass]) -> DualGraph:
    """Build the dual graph; rejects pairs with negative intersection."""
    comps = tuple(components)
    if not comps:
        raise NotAFiberError("no components")
    model = comps[0].model
    for c in comps:
        if c.model != model:
            raise ModelMismatchError("components live on different models")
    nodes = []
    edges = []
    for i, c in enumerate(comps):
        nodes.append(GraphNode(_component_label(i), intersect(c, c)))
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            w = intersect(comps[i], comps[j])
            if w < 0:
                raise NotAFiberError(
                    "components %s and %s meet negatively (%d); "
                    "they cannot be distinct curves"
                    % (_component_label(i), _component_label(j), w)
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
        if value.denominator != 1:
            raise NotAFiberError("multiplicity of component %d is %s, not integral" % (i, value))
        if value < 1:
            raise NotAFiberError("multiplicity of component %d is %s, not positive" % (i, value))
        mults.append(value.numerator)
    return tuple(mults)


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


def _reference(kind: str, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Labels (square, multiplicity) and edges of the one n-node tree of a shape."""
    if kind == KIND_RULING_CHAIN:
        labels = [(-1, 1)] + [(-2, 1)] * (n - 2) + [(-1, 1)]
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == KIND_RULING_FORK:
        # Stem 0 .. n-3 from the (-1) end to the fork, tails n-2 and n-1.
        labels = [(-1, 2)] + [(-2, 2)] * (n - 3) + [(-2, 1)] * 2
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    else:
        # Chain 0 .. 4g+2 with the short arm 4g+3 and the end 4g+4 of the
        # middle arm, as in the paper.
        g = (n - 5) // 4
        squares = [-2] * (n - 1) + [-(g + 1)]
        mults = list(range(1, 4 * g + 3)) + [2 * g + 2, 2 * g + 1, 2]
        labels = list(zip(squares, mults))
        edges = [(i, i + 1) for i in range(4 * g + 2)]
        edges += [(4 * g + 1, 4 * g + 3), (4 * g + 2, 4 * g + 4)]
    return labels, edges


def _embeds(
    pattern: tuple[Sequence, Sequence[tuple[int, int]]], graph: DualGraph, labels: Sequence
) -> bool:
    """Whether the pattern tree sits in the graph as an induced subgraph.

    ``pattern`` is (labels, edges).  A match sends its nodes to distinct
    graph nodes of equal label, such that two chosen nodes meet exactly when
    their pattern nodes do, and then by an edge of weight 1.
    """
    want, pattern_edges = pattern
    pattern_near: dict[int, set[int]] = {p: set() for p in range(len(want))}
    for a, b in pattern_edges:
        pattern_near[a].add(b)
        pattern_near[b].add(a)
    # Place the nodes from one of highest degree outwards, each next to an
    # earlier one, so every candidate is a neighbour of a placed node.
    root = max(pattern_near, key=lambda p: len(pattern_near[p]))
    order, parent = [root], {root: None}
    for p in order:
        for q in sorted(pattern_near[p] - parent.keys()):
            parent[q] = p
            order.append(q)
    near = {v: {u for u, _ in pairs} for v, pairs in graph.adjacency().items()}
    weight = {}
    for i, j, w in graph.edges:
        weight[i, j] = weight[j, i] = w
    image: dict[int, int] = {}

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        p = order[k]
        for v in near[image[parent[p]]] if k else near:
            if (
                v in image.values()
                or labels[v] != want[p]
                or len(near[v]) < len(pattern_near[p])
                or any(
                    weight.get((v, u)) != (1 if q in pattern_near[p] else None)
                    for q, u in image.items()
                )
            ):
                continue
            image[p] = v
            if extend(k + 1):
                return True
            del image[p]
        return False

    return extend(0)


def classify_shape(graph: DualGraph, multiplicities: Sequence[int]) -> FiberShape:
    """Match the dual graph against the recognized shapes.

    A simple tree is compared with each full shape of its node count, on
    (square, multiplicity).  Otherwise, or when none matches, the smallest
    genus whose trivializing core embeds, on squares alone, gives
    ``TrivializingCoreOnly``; that search returns ``Other`` for graphs of
    more than 40 nodes.
    """
    if len(multiplicities) != len(graph):
        raise ValueError("multiplicity count does not match node count")
    n = len(graph)
    squares = [node.self_intersection for node in graph.nodes]
    labels = list(zip(squares, map(mx._integer, multiplicities)))
    if graph.is_simple_tree():
        full = []
        if n >= 2:
            full.append(FiberShape(KIND_RULING_CHAIN, length=n - 2))
        if n >= 3:
            full.append(FiberShape(KIND_RULING_FORK, length=n - 1))
        if n >= 9 and n % 4 == 1:
            full.append(FiberShape(KIND_TRIVIALIZING, genus=(n - 5) // 4))
        for shape in full:
            if _embeds(_reference(shape.kind, n), graph, labels):
                return shape
    if n <= 40:
        for g in range(1, (n - 4) // 4 + 1):
            # The trivializing tree minus node 0, its multiplicity-1 end.
            ref_labels, ref_edges = _reference(KIND_TRIVIALIZING, 4 * g + 5)
            core = [s for s, _ in ref_labels[1:]], [(a - 1, b - 1) for a, b in ref_edges if a]
            if _embeds(core, graph, squares):
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

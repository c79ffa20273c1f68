"""Dual graphs, component multiplicities, shape recognition."""

import pytest

from mwlattice.errors import NotAFiberError
from mwlattice.fibers import (
    KIND_OTHER,
    KIND_RULING_CHAIN,
    KIND_RULING_FORK,
    KIND_TRIVIALIZING,
    KIND_TRIVIALIZING_CORE,
    DualGraph,
    FiberShape,
    GraphNode,
    classify_shape,
    dual_graph,
    fiber_multiplicities,
    mw_rank_formula,
    to_dot,
)
from mwlattice.oracles import (
    reference_component_multiplicities,
    reference_reducible_fiber_gram,
)
from mwlattice.scenarios import scenario_trivial_mw
from mwlattice.surface import SurfaceModel, exceptional, fiber_class, intersect


def _graph(squares, edges):
    nodes = tuple(GraphNode("n%d" % i, s) for i, s in enumerate(squares))
    return DualGraph(nodes, tuple(edges))


def test_dual_graph_from_components():
    sc = scenario_trivial_mw(1)
    graph = dual_graph(sc.fibers[0].components, sc.fibers[0].labels)
    assert len(graph) == 9
    assert graph.is_connected()
    assert graph.is_simple_tree()
    # edges agree with the off-diagonal entries of the reference Gram matrix
    ref = reference_reducible_fiber_gram(1)
    expected_edges = {
        (i, j)
        for i in range(9)
        for j in range(i + 1, 9)
        if ref[i][j] != 0
    }
    assert {(i, j) for i, j, _ in graph.edges} == expected_edges
    assert all(w == 1 for _, _, w in graph.edges)


def test_dual_graph_rejects_negative_meeting():
    model = SurfaceModel.maximal(1)
    e1 = exceptional(model, 1)
    with pytest.raises(NotAFiberError):
        dual_graph((e1, e1))  # a curve against itself meets in -1


def test_graph_validation():
    with pytest.raises(ValueError):
        _graph((-2, -2), [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        _graph((-2, -2), [(0, 2, 1)])  # out of range
    with pytest.raises(ValueError):
        _graph((-2, -2), [(0, 1, 0)])  # nonpositive weight


def test_graph_connectivity_and_tree():
    path = _graph((-2, -2, -2), [(0, 1, 1), (1, 2, 1)])
    assert path.is_connected() and path.is_simple_tree()
    disconnected = _graph((-2, -2), [])
    assert not disconnected.is_connected()
    double = _graph((-2, -2), [(0, 1, 2)])
    assert double.is_connected() and not double.is_simple_tree()
    cycle = _graph((-2, -2, -2), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert cycle.is_connected() and not cycle.is_simple_tree()
    assert _graph((), []).is_connected()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_multiplicities_reference_pattern(g):
    sc = scenario_trivial_mw(g)
    mults = fiber_multiplicities(sc.fibers[0].components, sc.fiber)
    assert mults == reference_component_multiplicities(g)
    # weighted sum reproduces the fibre class
    total = None
    for m, c in zip(mults, sc.fibers[0].components):
        total = m * c if total is None else total + m * c
    assert total == sc.fiber


def test_multiplicities_failure_modes():
    model = SurfaceModel.maximal(1)
    f = fiber_class(model)
    e1 = exceptional(model, 1)
    with pytest.raises(NotAFiberError):
        fiber_multiplicities((), f)
    # dependent rows that do not span F either: dependence is reported
    with pytest.raises(NotAFiberError, match="linearly dependent"):
        fiber_multiplicities((e1, e1), f)
    with pytest.raises(NotAFiberError, match="not spanned"):
        fiber_multiplicities((e1,), f)
    # spans F with a negative coefficient: F - E1 and 2 E1 would need m < 1
    with pytest.raises(NotAFiberError):
        fiber_multiplicities((f - e1, f + e1), f)


def test_rank_formula():
    assert mw_rank_formula(10, ()) == 8
    assert mw_rank_formula(10, (9,)) == 0
    assert mw_rank_formula(14, (3, 4)) == 7
    with pytest.raises(ValueError):
        mw_rank_formula(10, (0,))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_classify_trivializing(g):
    sc = scenario_trivial_mw(g)
    graph = dual_graph(sc.fibers[0].components, sc.fibers[0].labels)
    mults = fiber_multiplicities(sc.fibers[0].components, sc.fiber)
    shape = classify_shape(graph, mults)
    assert shape == FiberShape(KIND_TRIVIALIZING, genus=g)
    assert str(shape) == "TrivializingFiber(g=%d)" % g


@pytest.mark.parametrize("g", [1, 2, 3])
def test_classify_core_only(g):
    # the full trivializing tree with its free chain end removed still
    # contains the distinguished core, but not the whole shape
    sc = scenario_trivial_mw(g)
    full = dual_graph(sc.fibers[0].components, sc.fibers[0].labels)
    keep = list(range(1, len(full)))  # drop node 0, the far end of the chain
    relabel = {old: new for new, old in enumerate(keep)}
    reduced = DualGraph(
        tuple(full.nodes[i] for i in keep),
        tuple(
            (relabel[i], relabel[j], w)
            for i, j, w in full.edges
            if i in relabel and j in relabel
        ),
    )
    mults = [1] * len(reduced)  # placeholder; the core match ignores them
    shape = classify_shape(reduced, mults)
    assert shape == FiberShape(KIND_TRIVIALIZING_CORE, genus=g)
    assert str(shape) == "TrivializingCoreOnly(g=%d)" % g


def test_classify_core_requires_branch_geometry():
    # same node budget, but the special node sits on the long arm instead
    # of at the end of the middle arm: no core
    squares = [-2] * 8
    squares[0] = -2
    edges = [(i, i + 1, 1) for i in range(7)]
    shape = classify_shape(_graph(squares, edges), [1] * 8)
    assert shape.kind == KIND_OTHER


def test_classify_ruling_chain():
    g = _graph((-1, -2, -2, -1), [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    shape = classify_shape(g, (1, 1, 1, 1))
    assert shape == FiberShape(KIND_RULING_CHAIN, length=2)
    assert str(shape) == "RulingChainA(k=2)"
    two = _graph((-1, -1), [(0, 1, 1)])
    assert classify_shape(two, (1, 1)) == FiberShape(KIND_RULING_CHAIN, length=0)
    # wrong self-intersection at an end
    bad = _graph((-2, -2), [(0, 1, 1)])
    assert classify_shape(bad, (1, 1)).kind == KIND_OTHER


def test_classify_ruling_fork():
    # degenerate three-component fork: tail - stem - tail
    g3 = _graph((-2, -1, -2), [(0, 1, 1), (1, 2, 1)])
    assert classify_shape(g3, (1, 2, 1)) == FiberShape(KIND_RULING_FORK, length=2)
    # five components: two tails on a degree-3 fork, stem to the -1 end
    g5 = _graph(
        (-2, -2, -2, -2, -1),
        [(0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
    )
    assert classify_shape(g5, (1, 1, 2, 2, 2)) == FiberShape(
        KIND_RULING_FORK, length=4
    )
    # multiplicity 1 on the stem breaks the pattern
    assert classify_shape(g5, (1, 1, 2, 1, 2)).kind == KIND_OTHER


def test_classify_cycle_is_other():
    cycle = _graph((-2, -2, -2), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert classify_shape(cycle, (1, 1, 1)).kind == KIND_OTHER


def test_classify_checks_lengths():
    g = _graph((-2,), [])
    with pytest.raises(ValueError):
        classify_shape(g, (1, 1))


def test_to_dot_output():
    sc = scenario_trivial_mw(1)
    graph = dual_graph(sc.fibers[0].components, sc.fibers[0].labels)
    mults = fiber_multiplicities(sc.fibers[0].components, sc.fiber)
    text = to_dot(graph, mults, name="my-fiber")
    assert text.startswith('graph "my-fiber" {')
    assert text.rstrip().endswith("}")
    assert '"Theta0: m=1, s=-2"' in text
    assert "n0 -- n1;" in text
    # weighted edges carry a label
    double = _graph((-2, -2), [(0, 1, 2)])
    assert '[label="2"]' in to_dot(double)
    assert "m=?" in to_dot(double)

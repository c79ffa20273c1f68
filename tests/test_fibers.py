"""Dual graphs, component multiplicities, shape recognition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    graph = dual_graph(sc.fibers[0].components)
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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_classify_trivializing(g):
    sc = scenario_trivial_mw(g)
    graph = dual_graph(sc.fibers[0].components)
    mults = fiber_multiplicities(sc.fibers[0].components, sc.fiber)
    shape = classify_shape(graph, mults)
    assert shape == FiberShape(KIND_TRIVIALIZING, genus=g)
    assert str(shape) == "TrivializingFiber(g=%d)" % g


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_classify_core_only(g):
    # the full trivializing tree with its free chain end removed still
    # contains the distinguished core, but not the whole shape
    sc = scenario_trivial_mw(g)
    full = dual_graph(sc.fibers[0].components)
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


def _oracle_fiber(g):
    """Squares, edges and multiplicities of the distinguished fibre, from the oracle."""
    gram = reference_reducible_fiber_gram(g)
    n = len(gram)
    squares = [gram[i][i] for i in range(n)]
    edges = [(i, j, gram[i][j]) for i in range(n) for j in range(i + 1, n) if gram[i][j]]
    return squares, edges, list(reference_component_multiplicities(g))


def _oracle_core(g):
    """The oracle fibre without node 0, its multiplicity-1 end."""
    squares, edges, mults = _oracle_fiber(g)
    return squares[1:], [(i - 1, j - 1, w) for i, j, w in edges if i], mults[1:]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_classify_oracle_fiber(g):
    # the recognizer agrees with the independent entry-pattern oracle
    squares, edges, mults = _oracle_fiber(g)
    shape = classify_shape(_graph(squares, edges), mults)
    assert shape == FiberShape(KIND_TRIVIALIZING, genus=g)


def _chain(k):
    squares = [-1] + [-2] * k + [-1]
    edges = [(i, i + 1, 1) for i in range(k + 1)]
    return squares, edges, [1] * (k + 2), FiberShape(KIND_RULING_CHAIN, length=k)


def _fork(k):
    # stem 0 .. k-2 from the (-1) end to the fork, tails k-1 and k
    squares = [-1] + [-2] * k
    edges = [(i, i + 1, 1) for i in range(k - 2)] + [(k - 2, k - 1, 1), (k - 2, k, 1)]
    mults = [2] * (k - 1) + [1, 1]
    return squares, edges, mults, FiberShape(KIND_RULING_FORK, length=k)


def _trivializing(g):
    return (*_oracle_fiber(g), FiberShape(KIND_TRIVIALIZING, genus=g))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.one_of(
        st.integers(1, 10).map(_chain),
        st.integers(2, 11).map(_fork),
        st.integers(1, 5).map(_trivializing),
    ),
    st.sampled_from(("square", "multiplicity", "edge")),
    st.data(),
)
def test_shape_survives_relabelling_not_one_change(case, change, data):
    squares, edges, mults, shape = case
    n = len(squares)
    perm = data.draw(st.permutations(range(n)))
    squares = [squares[perm.index(v)] for v in range(n)]
    mults = [mults[perm.index(v)] for v in range(n)]
    edges = [(perm[i], perm[j], w) for i, j, w in edges]
    assert classify_shape(_graph(squares, edges), mults) == shape
    node = data.draw(st.integers(0, n - 1))
    if change == "square":
        squares[node] += data.draw(st.sampled_from((-1, 1)))
    elif change == "multiplicity":
        mults[node] += data.draw(st.integers(1, 3))
    else:
        pairs = {(min(i, j), max(i, j)) for i, j, _ in edges}
        free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
        edges[data.draw(st.integers(0, len(edges) - 1))] = data.draw(st.sampled_from(free)) + (1,)
    assert classify_shape(_graph(squares, edges), mults) != shape


@pytest.mark.parametrize("g", [1, 2, 3])
def test_classify_core_must_be_induced(g):
    # the core graph (oracle fibre minus its multiplicity-1 end) with a chord
    # from the long-arm end to the branch, or with one doubled edge, holds
    # the genus-g core only as a non-induced subgraph; for g > 1 the genus-1
    # core still fits around the chord's cycle
    squares, core, mults = _oracle_core(g)
    chord = _graph(squares, core + [(0, 4 * g, 1)])
    assert classify_shape(chord, mults) == (
        FiberShape(KIND_OTHER) if g == 1 else FiberShape(KIND_TRIVIALIZING_CORE, genus=1)
    )
    doubled = _graph(squares, [(i, j, 2 if j == 4 * g + 3 else w) for i, j, w in core])
    assert classify_shape(doubled, mults).kind == KIND_OTHER
    assert classify_shape(_graph(squares, core), mults) == FiberShape(
        KIND_TRIVIALIZING_CORE, genus=g
    )


def test_classify_core_takes_smallest_genus():
    # disjoint genus-1 and genus-2 cores: the smaller genus is reported
    sq2, e2, _ = _oracle_core(2)
    sq1, e1, _ = _oracle_core(1)
    shift = len(sq2)
    graph = _graph(sq2 + sq1, e2 + [(i + shift, j + shift, w) for i, j, w in e1])
    assert classify_shape(graph, [1] * len(graph)) == FiberShape(
        KIND_TRIVIALIZING_CORE, genus=1
    )


def test_classify_core_search_stops_above_40_nodes():
    squares, edges, mults = _oracle_fiber(9)  # 41 nodes
    full = _graph(squares, edges)
    assert classify_shape(full, mults) == FiberShape(KIND_TRIVIALIZING, genus=9)
    assert classify_shape(full, [1] * 41).kind == KIND_OTHER
    squares, core, mults = _oracle_core(9)
    assert classify_shape(_graph(squares, core), mults) == FiberShape(
        KIND_TRIVIALIZING_CORE, genus=9
    )


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


@pytest.mark.parametrize("value", [1.5, True, "1"])
def test_classify_takes_integer_multiplicities(value):
    # int(1.5) used to read the multiplicity as 1
    two = _graph((-1, -1), [(0, 1, 1)])
    with pytest.raises(TypeError, match="expected an integer"):
        classify_shape(two, (value, 1))


def test_to_dot_output():
    sc = scenario_trivial_mw(1)
    graph = dual_graph(sc.fibers[0].components)
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

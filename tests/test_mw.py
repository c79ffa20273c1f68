"""Mordell-Weil groups, lattices, and the two-route triviality check."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import lattice
from mwlattice import matrices as mx
from mwlattice import mw
from mwlattice.catalog import _cycle_scenario, build_catalog, catalog_entry
from mwlattice.errors import FormError, InvalidModelError
from mwlattice.lattice import AbelianGroupInvariants, short_vectors_with_norms
from mwlattice.mw import (
    EquivalenceReport,
    LatticeIdentification,
    _identify_unimodular,
    _root_span_factors,
    equivalence_check,
    identify_dn_plus,
    mw_group,
    mw_rank_by_formula,
    mwl,
    trivial_lattice_generators,
)
from mwlattice.scenarios import (
    ReducibleFiber,
    Scenario,
    elementary_transformation,
    scenario_all_irreducible,
    scenario_trivial_mw,
    transform_scenario,
    validate_scenario,
)
from mwlattice.surface import SurfaceModel, delta, exceptional, fiber_class

E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, -1),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 0, 0, 2),
)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_trivial_scenario_group_is_trivial(g):
    sc = scenario_trivial_mw(g)
    group = mw_group(sc)
    assert group.is_trivial
    assert mw_rank_by_formula(sc) == 0
    report = mwl(sc)
    assert report.trivial_rank == sc.model.rho  # full rank: T = NS(X)
    assert report.trivial_discriminant == 1


@pytest.mark.parametrize("g", [1, 2, 3])
def test_all_irreducible_group_is_free_maximal(g):
    sc = scenario_all_irreducible(g)
    group = mw_group(sc)
    assert group == AbelianGroupInvariants(4 * g + 4, ())
    assert mw_rank_by_formula(sc) == 4 * g + 4
    gens = trivial_lattice_generators(sc)
    assert len(gens) == 2  # zero section and fibre only


def test_catalog_frozen_groups():
    for entry in build_catalog():
        assert mw_group(entry.scenario) == entry.expected_group, entry.name
        assert mw_rank_by_formula(entry.scenario) == entry.expected_group.free_rank


@pytest.mark.parametrize(
    "name,rank,disc,roots,label",
    [
        ("trivial-mw-g1", 0, Fraction(1), 0, None),
        ("all-irreducible-g1", 8, Fraction(1), 240, "D_8^+ = E_8"),
        ("all-irreducible-g2", 12, Fraction(1), 264, "D_12^+"),
        ("all-irreducible-g3", 16, Fraction(1), 480, "D_16^+"),
        ("g1-cycle2", 7, Fraction(1, 2), 126, None),
        ("g1-cycle3", 6, Fraction(1, 3), 72, None),
        ("g2-cycle2", 11, Fraction(1, 2), 182, None),
        ("g2-cycle5", 8, Fraction(1, 5), 84, None),
        ("g3-cycle2", 15, Fraction(1, 2), 366, None),
        ("g3-cycle4", 13, Fraction(1, 4), 264, None),
        ("g1-star", 4, Fraction(1, 4), 24, None),
        ("g1-two-fibers", 6, Fraction(1, 4), 60, None),
    ],
)
def test_mwl_reports_frozen(name, rank, disc, roots, label):
    report = mwl(catalog_entry(name).scenario)
    assert report.rank == rank
    assert report.discriminant == disc
    assert report.root_count == roots
    assert report.identified_as == label
    assert report.group.free_rank == rank
    if rank:
        gram = report.gram
        assert all(
            gram[i][j] == gram[j][i] for i in range(rank) for j in range(rank)
        )
        # dual Gram determinant is exactly the discriminant
        assert mx.det(gram) == disc


@pytest.mark.parametrize(
    "g,roots,label", [(4, 760, "D_20^+"), (5, 1104, "D_24^+")]
)
def test_mwl_maximal_reports_beyond_catalog(g, roots, label):
    report = mwl(scenario_all_irreducible(g))
    assert str(report.group) == "Z^%d" % (4 * g + 4)
    assert report.rank == 4 * g + 4
    assert report.discriminant == 1
    assert report.root_count == roots
    assert report.identified_as == label


@pytest.mark.parametrize(
    "name,reason",
    [
        ("trivial-mw-g1", "rank is 0"),
        ("all-irreducible-g1", "240 roots spanning everything"),
        ("all-irreducible-g2", "264 roots of index-2 span"),
        ("g2-cycle5", "Gram matrix is not integral"),
    ],
)
def test_mwl_reports_why_identification_failed_or_held(name, reason):
    report = mwl(catalog_entry(name).scenario)
    assert report.identification_reason == reason
    expected = identify_dn_plus(report.gram)
    assert (report.identified_as, report.identification_reason) == (
        expected.label, expected.reason)


def pinned_scenarios():
    """The 38 scenarios of ``test_lattice_path_is_pinned``."""
    scenarios = [entry.scenario for entry in build_catalog()]
    scenarios += [scenario_all_irreducible(g, d) for g in (1, 2, 3) for d in range(g + 2)]
    scenarios += [seeded_transformable_scenario(g, seed) for g in (1, 2, 3) for seed in range(4)]
    return scenarios


def test_mwl_identification_is_the_public_one():
    # ``mwl`` reads integrality off its discriminant and hands its own search
    # to the tail; the public path gates, expands det and searches again.
    scenarios = pinned_scenarios() + [scenario_all_irreducible(g) for g in (4, 5)]
    reasons = set()
    for sc in scenarios:
        report = mwl(sc)
        expected = identify_dn_plus(report.gram)
        assert (report.identified_as, report.identification_reason) == (
            expected.label, expected.reason), sc.name
        reasons.add(report.identification_reason)
    assert len(scenarios) == 40
    assert {"rank is 0", "Gram matrix is not integral", "240 roots spanning everything",
            "760 roots of index-2 span", "1104 roots of index-2 span"} <= reasons


@pytest.mark.parametrize("g", [1, 2])
def test_mwl_takes_no_determinant_of_the_dual_gram(g, monkeypatch):
    # dual_gram has already given |det| of the complement's Gram matrix,
    # so the dual's determinant is known: only T's Gram matrix is expanded.
    seen = []
    real = mx.det
    monkeypatch.setattr(mx, "det", lambda m: seen.append(m) or real(m))
    report = mwl(scenario_all_irreducible(g))
    assert report.identified_as == ("D_8^+ = E_8" if g == 1 else "D_12^+")
    assert [len(m) for m in seen] == [2]


@pytest.mark.parametrize("g", [1, 2])
def test_mwl_runs_two_bareiss_eliminations(g, monkeypatch):
    # T's basis and its complement are independent rows by construction, so
    # no rank is eliminated: only det of T's Gram and dual_gram remain.
    seen = []
    real = mx._bareiss
    monkeypatch.setattr(mx, "_bareiss", lambda a, ncols: seen.append(ncols) or real(a, ncols))
    report = mwl(scenario_all_irreducible(g))
    assert report.rank == 4 * g + 4
    assert seen == [2, 4 * g + 4]


def test_mwl_reduces_the_generators_once(monkeypatch):
    # The group and T's basis both come from one Smith reduction with U;
    # no second reduction of the generators (``mw_group``'s) remains.
    sc = catalog_entry("g1-two-fibers").scenario
    gens = trivial_lattice_generators(sc)
    seen = []
    real = mx._smith_reduce
    monkeypatch.setattr(mx, "_smith_reduce", lambda m, *a, **kw: (
        seen.append(tuple(map(tuple, m))) or real(m, *a, **kw)))
    mwl(sc)
    assert seen.count(gens) == 1


def test_mwl_reads_each_matrix_once(monkeypatch):
    # One product F B^T gives T's Gram matrix and the complement, and the
    # stages pass checked int rows on: the gate reads four matrices, each
    # once: F B^T (left_kernel_basis), T's Gram matrix (det), the
    # complement's (dual_gram) and the rational dual (the search).
    scenarios = [entry.scenario for entry in build_catalog()]
    scenarios += [scenario_all_irreducible(g, d) for g in range(1, 6) for d in range(g + 2)]
    calls = []
    for name in ("as_integer_matrix", "matmul"):
        real = getattr(mx, name)
        monkeypatch.setattr(mx, name, lambda *a, real=real, name=name: (
            calls.append(name) or real(*a)))
    checked = 0
    for sc in scenarios:
        calls.clear()
        if mwl(sc).rank:
            assert (calls.count("as_integer_matrix"), calls.count("matmul")) == (4, 5), sc.name
            checked += 1
    assert (len(scenarios), checked) == (39, 36)  # three catalog entries have rank 0


def seeded_transformable_scenario(g, seed):
    """Model d = g with the fibre (Delta - E_1, F - Delta + E_1), the centre
    of an elementary transformation, and random cycle fibres over disjoint
    subsets of E_2 .. E_{n-1}; the zero section is E_n."""
    rng = random.Random(seed)
    model = SurfaceModel.maximal(g, g)
    f = fiber_class(model)
    witness = delta(model) - exceptional(model, 1)
    fibers = [ReducibleFiber((witness, f - witness))]
    points = list(range(2, model.n))
    rng.shuffle(points)
    while len(points) >= 2 and rng.random() < 0.75:
        k = rng.randint(2, min(5, len(points)))
        cycle, points = sorted(points[:k]), points[k:]
        e = [exceptional(model, i) for i in cycle]
        comps = [a - b for a, b in zip(e, e[1:])] + [f - e[0] + e[-1]]
        fibers.append(ReducibleFiber(tuple(comps)))
    return Scenario(
        "seeded-g%d-%d" % (g, seed), model, f, (exceptional(model, model.n),), fibers
    )


TRANSFORMABLE = [("trivial", g, None) for g in (1, 2, 3)] + [
    ("seeded", g, seed) for g in (1, 2, 3) for seed in range(4)
]


@pytest.mark.parametrize(
    "kind,g,seed", TRANSFORMABLE, ids=["%s-g%d-%s" % t for t in TRANSFORMABLE]
)
def test_elementary_transformation_keeps_mw_invariants(kind, g, seed):
    if kind == "trivial":
        sc = scenario_trivial_mw(g)
    else:
        sc = seeded_transformable_scenario(g, seed)
    assert validate_scenario(sc).ok, validate_scenario(sc).failures()
    moved = transform_scenario(elementary_transformation(sc), sc)
    assert moved.model.d == sc.model.d + 1
    assert validate_scenario(moved).ok, validate_scenario(moved).failures()

    def invariants(report):
        return (
            report.group,
            report.rank,
            report.trivial_discriminant,
            report.discriminant,
            report.root_count,
            report.identified_as,
        )

    assert invariants(mwl(moved)) == invariants(mwl(sc))


def test_lattice_path_is_pinned():
    """Every field of ``mwl`` on 38 scenarios: the 14 catalog entries, the
    maximal scenario at each (g, d) for g = 1..3, and 12 seeded cycle
    scenarios.  The hash was taken when ``mwl`` still reduced the generator
    matrix twice (once for the group, once for T's basis); the group must
    also equal the one ``mw_group`` reads off its own Hermite route."""
    scenarios = [entry.scenario for entry in build_catalog()]
    scenarios += [scenario_all_irreducible(g, d) for g in (1, 2, 3) for d in range(g + 2)]
    scenarios += [seeded_transformable_scenario(g, seed) for g in (1, 2, 3) for seed in range(4)]
    rows = []
    for sc in scenarios:
        r = mwl(sc)
        assert mw_group(sc) == r.group, sc.name
        rows.append((
            str(r.group), r.trivial_rank, str(r.trivial_discriminant), r.rank,
            str(r.discriminant), r.root_count, r.identified_as,
            r.identification_reason, tuple(tuple(map(str, row)) for row in r.gram),
        ))
    assert len(rows) == 38
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "06e2e7a73e9232f20c2168d4abf79c8f67ee2d484981a432a9e3035b6f9d343f")


def test_mwl_searches_stay_in_int64(monkeypatch):
    """The search of every catalog, maximal (g = 1..5, every d) and seeded
    cycle scenario runs in int64: its budget is below 2^62 and no level's
    guard reaches 2^62.  The budget is checked on its own because a search
    that starts on Python integers never consults the guard."""
    scenarios = [entry.scenario for entry in build_catalog()]
    scenarios += [scenario_all_irreducible(g, d) for g in range(1, 6) for d in range(g + 2)]
    scenarios += [seeded_transformable_scenario(g, seed) for g in (1, 2, 3) for seed in range(4)]
    reaches = []
    real = lattice._level_reach
    monkeypatch.setattr(lattice, "_level_reach", lambda *a: reaches.append(real(*a)) or reaches[-1])
    budgets = [lattice._search(gram, 2)[2] for gram in (mwl(sc).gram for sc in scenarios) if gram]
    assert len(budgets) == 48 and max(budgets) < 1 << 62
    assert reaches and max(reaches) < 1 << 62


def test_mwl_products_stay_in_int64(monkeypatch, python_loops):
    """Every product ``mwl`` makes on the catalog, on the maximal scenario at
    each (g, d) for g = 1..10 and on cycles of 3 and 5 components at
    g = 10, 12 runs as one int64 product, never as sums of Python products."""
    scenarios = [entry.scenario for entry in build_catalog()]
    scenarios += [scenario_all_irreducible(g, d) for g in range(1, 11) for d in range(g + 2)]
    scenarios += [_cycle_scenario(g, length) for g in (10, 12) for length in (3, 5)]
    products = []
    matmul = mx.matmul
    monkeypatch.setattr(mx, "matmul", lambda a, b: products.append(a) or matmul(a, b))
    for sc in scenarios:
        mwl(sc)
    assert len(scenarios) == 93 and len(products) >= 4 * len(scenarios)
    assert python_loops == []


def test_mwl_degenerate_complement_raises():
    # with Delta as zero section, T = <Delta, F> and F.F = F.Delta = 0, so
    # F lies in the complement of T and its Gram matrix is singular
    model = SurfaceModel.maximal(1, 2)
    sc = Scenario("delta-section", model, fiber_class(model), (delta(model),))
    with pytest.raises(FormError, match="degenerate"):
        mwl(sc)


def test_mwl_trivial_lattice_discriminant():
    # on the trivial scenario T = NS so |det| = 1; all-irreducible has
    # T = <O, F> with Gram ((-1, 1), (1, 0)), determinant -1
    for g in (1, 2, 3):
        assert mwl(scenario_trivial_mw(g)).trivial_discriminant == 1
        assert mwl(scenario_all_irreducible(g)).trivial_discriminant == 1


def identify_both_ways(gram):
    """identify_dn_plus, checked on unimodular input against the tail that
    ``mwl`` calls with its own search."""
    result = identify_dn_plus(gram)
    igram, den = mx.as_integer_matrix(gram)
    if gram and den == 1 and abs(mx.det(igram)) == 1:
        assert _identify_unimodular(len(gram), short_vectors_with_norms(gram, 2)) == result
    return result


def test_identify_e8():
    result = identify_both_ways(E8)
    assert result.label is not None
    assert result.label == "D_8^+ = E_8"
    assert "240" in result.reason


def test_identify_d4_plus_is_z4():
    # the n = 4 exception: D_4^+ and Z^4 are the same lattice
    result = identify_both_ways(mx.identity(4))
    assert result.label == "D_4^+"


def test_identify_misses_name_the_invariant():
    assert identify_both_ways(()).reason == "rank is 0"
    half = ((Fraction(1, 2),),)
    assert "not integral" in identify_both_ways(half).reason
    assert "determinant" in identify_both_ways(((2,),)).reason
    indefinite = ((1, 0), (0, -1))
    assert "not positive definite" in identify_dn_plus(indefinite).reason
    # Z^n for n != 4 carries the same root data as D_n^+ (2n(n-1) roots
    # spanning an index-2 sublattice) but contains unit vectors
    for n in (1, 2, 3, 12):
        miss = identify_both_ways(mx.identity(n))
        assert miss.label is None, n
        assert "norm-1" in miss.reason


def test_identify_checks_symmetry_before_the_determinant():
    # the search refuses an asymmetric form too, but that is no statement
    # about definiteness: the gate names symmetry, after integrality
    assert identify_dn_plus(((1, 1), (0, 1))).reason == "Gram matrix is not symmetric"
    assert identify_dn_plus(((2, 1), (0, 1))).reason == "Gram matrix is not symmetric"
    assert "not integral" in identify_dn_plus(((Fraction(1, 2), 1), (0, 1))).reason
    assert identify_dn_plus(E8).label is not None


def reference_identification(n, found):
    """``_identify_unimodular`` as it was before the early stop: the
    invariant factors of every upper-half root, from the public Smith route."""
    if n != 4 and any(nv == 1 for _, nv in found):
        return LatticeIdentification(None, "lattice contains norm-1 vectors")
    roots = [v for v, nv in found if nv == 2]
    count = len(roots)
    if count == 0:
        return LatticeIdentification(None, "lattice has no norm-2 vectors")
    factors = mx.invariant_factors(roots[count // 2:])
    if len(factors) != n:
        return LatticeIdentification(
            None, "norm-2 vectors span rank %d < %d" % (len(factors), n))
    if n == 8 and count == 240 and all(f == 1 for f in factors):
        return LatticeIdentification("D_8^+ = E_8", "240 roots spanning everything")
    if count != 2 * n * (n - 1):
        return LatticeIdentification(
            None, "root count %d, expected %d" % (count, 2 * n * (n - 1)))
    torsion = [f for f in factors if f > 1]
    if torsion != [2]:
        return LatticeIdentification(
            None, "root sublattice index invariants %s, expected [2]" % (torsion,))
    return LatticeIdentification("D_%d^+" % n, "%d roots of index-2 span" % count)


def direct_sum(a, b):
    return tuple(tuple(row) + (0,) * len(b) for row in a) + tuple(
        (0,) * len(a) + tuple(row) for row in b)


def unimodular_lattices():
    """Unimodular Grams whose root spans reach every route of the witness:
    index 1 (E_8, E_8 + E_8), index 2 (D_12^+, D_16^+, Z^4, Z^n), index 4
    (Z^2 + D_12^+) and a deficient rank (E_8 + Z)."""
    d12, d16 = (mx.int_matrix(mwl(scenario_all_irreducible(g)).gram) for g in (2, 3))
    grams = [E8, d12, d16, mx.identity(4), direct_sum(E8, E8),
             direct_sum(mx.identity(2), d12), direct_sum(E8, mx.identity(1))]
    return grams + [mx.identity(n) for n in (1, 2, 3, 5, 7)]


UNIMODULAR = unimodular_lattices()


@st.composite
def basis_changes(draw):
    """A Gram of ``UNIMODULAR`` in a random basis U G U^T, U a product of at
    most n elementary row operations r_i += +-r_j."""
    gram = draw(st.sampled_from(UNIMODULAR))
    n = len(gram)
    u = [list(row) for row in mx.identity(n)]
    if n > 1:
        pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   st.sampled_from((-1, 1))), max_size=n)
        for i, j, k in draw(pairs):
            if i != j:
                u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    return mx.matmul(mx.matmul(u, gram), mx.transpose(u))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(basis_changes())
def test_identification_matches_the_full_hermite_pass(gram):
    n = len(gram)
    found = short_vectors_with_norms(gram, 2)
    assert _identify_unimodular(n, found) == reference_identification(n, found)
    roots = [v for v, nv in found if nv == 2]
    upper = roots[len(roots) // 2:]
    if upper:
        assert _root_span_factors(n, upper) == mx.invariant_factors(upper)


@st.composite
def row_lists(draw):
    """Up to 12 rows of small ints with n <= 5 columns, n as well."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=12))
    return n, rows


@settings(derandomize=True, max_examples=200, deadline=None)
@given(row_lists())
def test_early_stop_factors_match_the_full_hermite_pass(case):
    # random rows reach every outcome of the early stop: prefixes of index
    # 1, 2 and more, odd rows after an index-2 prefix, and deficient rank
    n, rows = case
    assert _root_span_factors(n, rows) == mx.invariant_factors(rows)


@st.composite
def echelon_inputs(draw):
    """Up to 12 rows with n <= 6 columns and entries -4..4, n as well: each
    row is fresh, zero, or a repeat or negation of an earlier row."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "negated")))
        if kind in ("repeat", "negated") and rows:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "repeat" else tuple(-x for x in row))
        elif kind == "zero":
            rows.append((0,) * n)
        else:
            rows.append(draw(st.tuples(*[st.integers(-4, 4)] * n)))
    return n, rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(echelon_inputs())
def test_echelon_insert_keeps_an_echelon_basis_of_the_span(case):
    n, rows = case
    table = {}
    for k, values in enumerate(rows, 1):
        mw._echelon_insert(table, values)
        assert all(min(row) == c and row[c] > 0 for c, row in table.items())
        factors = mx.invariant_factors(rows[:k])
        assert len(table) == len(factors)
        dense = [[row.get(j, 0) for j in range(n)] for row in table.values()]
        assert mx.invariant_factors(dense) == factors
        pivots = 1
        for c, row in table.items():
            pivots *= row[c]
        if len(table) == n and pivots == 2:
            # every row so far lies in the span, the kernel of phi, so
            # the parity pass finds none odd
            assert mw._index_two_factors(n, table, rows[:k]) == (1,) * (n - 1) + (2,)


def test_a_root_odd_under_the_witness_reads_index_1(monkeypatch):
    # The 20 upper-half roots of D_5 (norm 2 in Z^5).  The interleaved
    # prefix (stride 4: rows 0, 4, 8, 12, 16) already spans D_5, of index 2,
    # with phi = (1, 1, 1, 1, 1); the last row is swapped for a vector odd
    # under phi, which the echelon table never sees, so only the parity
    # pass can tell that the span is all of Z^5.
    found = [(v, nv) for v, nv in short_vectors_with_norms(mx.identity(5), 2) if nv == 2]
    upper = [v for v, _ in found[20:]]
    seen = []
    real = mw._echelon_insert
    monkeypatch.setattr(mw, "_echelon_insert", lambda t, v: seen.append(v) or real(t, v))
    assert _identify_unimodular(5, found) == LatticeIdentification(
        "D_5^+", "40 roots of index-2 span")
    assert len(seen) == 5
    upper[-1] = (1, 1, 1, 0, 0)
    odd = [(tuple(-x for x in v), 2) for v in reversed(upper)] + [(v, 2) for v in upper]
    seen.clear()
    result = _identify_unimodular(5, odd)
    assert upper[-1] not in seen
    assert result == reference_identification(5, odd) == LatticeIdentification(
        None, "root sublattice index invariants [], expected [2]")


def test_maximal_identification_reduces_at_most_3n_roots(monkeypatch):
    # the sorted order would reach full rank only after most of the
    # 2n(n-1)/2 upper-half roots (65 of 132 at g = 2, 507 of 552 at g = 5)
    seen = []
    real = mw._echelon_insert
    monkeypatch.setattr(mw, "_echelon_insert", lambda t, v: seen.append(v) or real(t, v))
    for g in range(1, 6):
        n = 4 * g + 4
        for d in range(g + 2):
            seen.clear()
            assert mwl(scenario_all_irreducible(g, d)).identified_as is not None
            assert 0 < len(seen) <= 3 * n, (g, d, len(seen))


def test_identify_rejects_e8_plus_z():
    # unimodular and positive definite, but the extra unit vector gives
    # it away before the deficient root span would
    gram = tuple(
        tuple(list(row) + [0]) for row in E8
    ) + ((0,) * 8 + (1,),)
    miss = identify_both_ways(gram)
    assert miss.label is None
    assert "norm-1" in miss.reason


def test_identify_distinguishes_e8e8_from_d16_plus():
    # E8 + E8 and D_16^+ share rank, determinant and root count (480);
    # they differ in how the roots sit: index 1 versus index 2
    gram = tuple(
        tuple(list(row) + [0] * 8) for row in E8
    ) + tuple(
        tuple([0] * 8 + list(row)) for row in E8
    )
    miss = identify_both_ways(gram)
    assert miss.label is None
    assert "index invariants" in miss.reason


def test_equivalence_catalog_agreement():
    for entry in build_catalog():
        report = equivalence_check(entry.scenario)
        assert report.agree, entry.name
        assert report.certificate() is None
        kinds = tuple(s.kind for s in report.shapes)
        assert kinds == entry.expected_shapes, entry.name
        if report.has_trivializing_fiber:
            assert report.mw_trivial


def test_equivalence_requires_maximal_model():
    model = SurfaceModel(d=1, n=6, g=1)
    sc = Scenario(
        "small",
        model,
        exceptional(model, 1),
        (exceptional(model, 2),),
    )
    with pytest.raises(InvalidModelError):
        equivalence_check(sc)


def test_certificate_reports_disagreement():
    # construct a report by hand to check the disagreement payload
    report = EquivalenceReport(
        scenario="synthetic",
        group=AbelianGroupInvariants(0, ()),
        shapes=(),
        mw_trivial=True,
        has_trivializing_fiber=False,
    )
    assert not report.agree
    cert = report.certificate()
    assert cert is not None
    assert cert["scenario"] == "synthetic"
    assert cert["mw_trivial"] is True
    assert cert["has_trivializing_fiber"] is False
    assert "0" in cert["group"]


def test_lattice_identification_record():
    rec = LatticeIdentification("D_4^+", "because")
    assert (rec.label, rec.reason) == ("D_4^+", "because")
    assert LatticeIdentification(None, "nope").label is None

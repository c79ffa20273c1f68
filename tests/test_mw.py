"""Mordell-Weil groups, lattices, and the two-route triviality check."""

import hashlib
import random
from fractions import Fraction

import pytest

from mwlattice import lattice
from mwlattice import matrices as mx
from mwlattice.catalog import _cycle_scenario, build_catalog, catalog_entry
from mwlattice.errors import FormError, InvalidModelError
from mwlattice.lattice import AbelianGroupInvariants, short_vectors_with_norms
from mwlattice.mw import (
    EquivalenceReport,
    LatticeIdentification,
    _identify_dn_plus,
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
    # no Hermite pass over the generators (``mw_group``'s route) remains.
    sc = catalog_entry("g1-two-fibers").scenario
    gens = trivial_lattice_generators(sc)
    seen = []
    for name in ("_smith_reduce", "_hermite_rows"):
        real = getattr(mx, name)
        monkeypatch.setattr(mx, name, lambda m, *a, real=real, name=name, **kw: (
            seen.append((name, tuple(map(tuple, m)))) or real(m, *a, **kw)))
    mwl(sc)
    assert [name for name, m in seen if m == gens] == ["_smith_reduce"]


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
    """identify_dn_plus searching itself, checked against a precomputed search."""
    result = identify_dn_plus(gram)
    assert _identify_dn_plus(gram, short_vectors_with_norms(gram, 2), None) == result
    return result


def test_identify_e8():
    result = identify_both_ways(E8)
    assert result.matched
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
        assert not miss.matched, n
        assert "norm-1" in miss.reason


def test_identify_rejects_e8_plus_z():
    # unimodular and positive definite, but the extra unit vector gives
    # it away before the deficient root span would
    gram = tuple(
        tuple(list(row) + [0]) for row in E8
    ) + ((0,) * 8 + (1,),)
    miss = identify_both_ways(gram)
    assert not miss.matched
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
    assert not miss.matched
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
    assert rec.matched
    assert not LatticeIdentification(None, "nope").matched

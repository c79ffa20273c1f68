"""Mordell-Weil groups, lattices, and the two-route triviality check."""

from fractions import Fraction

import pytest

from mwlattice import matrices as mx
from mwlattice.catalog import build_catalog, catalog_entry
from mwlattice.errors import FormError, InvalidModelError
from mwlattice.lattice import AbelianGroupInvariants, short_vectors_with_norms
from mwlattice.mw import (
    EquivalenceReport,
    LatticeIdentification,
    equivalence_check,
    identify_dn_plus,
    mw_group,
    mw_rank_by_formula,
    mw_torsion,
    mwl,
    trivial_lattice,
    trivial_lattice_generators,
)
from mwlattice.scenarios import (
    Scenario,
    scenario_all_irreducible,
    scenario_trivial_mw,
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
    assert mw_torsion(sc).is_trivial
    lat = trivial_lattice(sc)
    assert lat.rank == sc.model.rho  # full rank: T = NS(X)
    assert abs(lat.determinant()) == 1


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
    assert identify_dn_plus(gram, short_vectors_with_norms(gram, 2)) == result
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
            assert report.has_trivializing_core  # full match contains the core
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
        has_trivializing_core=False,
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

"""Scenario construction, validation, base change, JSON round trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import matrices as mx
from mwlattice import scenarios
from mwlattice.errors import ConfigurationError, InputFormatError
from mwlattice.fibers import dual_graph
from mwlattice.scenarios import (
    BasisIsometry,
    ReducibleFiber,
    Scenario,
    elementary_transformation,
    scenario_all_irreducible,
    scenario_from_json,
    scenario_to_json,
    scenario_trivial_mw,
    transform_scenario,
    validate_scenario,
)
from mwlattice.surface import (
    SurfaceModel,
    class_from_coeffs,
    delta,
    exceptional,
    fiber_class,
    gamma,
    intersect,
)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_builtin_scenarios_validate(g):
    for sc in (scenario_all_irreducible(g), scenario_trivial_mw(g)):
        report = validate_scenario(sc)
        assert report.ok, report.failures()
        assert sc.genus == g
        assert sc.zero_section == sc.sections[0]


def test_trivial_scenario_component_count():
    for g in (1, 2, 3):
        sc = scenario_trivial_mw(g)
        assert len(sc.fibers) == 1
        assert len(sc.fibers[0]) == 4 * g + 5
        # components are named by position
        nodes = dual_graph(sc.fibers[0].components).nodes
        assert nodes[0].label == "Theta0"
        assert nodes[-1].label == "Theta%d" % (4 * g + 4)


def test_reducible_fiber_requires_components():
    with pytest.raises(ConfigurationError):
        ReducibleFiber(())


def test_scenario_requires_section():
    model = SurfaceModel.maximal(1)
    with pytest.raises(ConfigurationError):
        Scenario("s", model, fiber_class(model), ())


def test_scenario_rejects_foreign_classes():
    model = SurfaceModel.maximal(1)
    other = SurfaceModel.maximal(2)
    with pytest.raises(ConfigurationError):
        Scenario("s", model, fiber_class(model), (exceptional(other, 1),))


def test_validation_names_each_failure():
    model = SurfaceModel.maximal(1)
    f = fiber_class(model)
    # section with wrong self-intersection: E1 + E2 has S.S = -2, S.F = 2
    bad_section = exceptional(model, 1) + exceptional(model, 2)
    sc = Scenario("bad-section", model, f, (bad_section,))
    report = validate_scenario(sc)
    failed = {c.name for c in report.failures()}
    assert "section_0_meets_fiber_once" in failed
    assert "section_0_self_intersection" in failed

    # fibre whose components are not orthogonal to F
    sc2 = Scenario(
        "bad-fiber",
        model,
        f,
        (exceptional(model, 8),),
        (ReducibleFiber((exceptional(model, 1),)),),
    )
    failed2 = {c.name for c in validate_scenario(sc2).failures()}
    assert "fiber_0_components_orthogonal" in failed2
    assert "fiber_0_multiplicities" in failed2

    # disconnected dual graph: two disjoint (-2) curves cannot sum to F either
    a = exceptional(model, 1) - exceptional(model, 2)
    b = exceptional(model, 3) - exceptional(model, 4)
    sc3 = Scenario(
        "disconnected",
        model,
        f,
        (exceptional(model, 8),),
        (ReducibleFiber((a, b)),),
    )
    failed3 = {c.name for c in validate_scenario(sc3).failures()}
    assert "fiber_0_dual_graph" in failed3


def test_validation_rejects_negative_genus_component():
    # At g = 2, C = E_1 - F - O has C.F = 0, C^2 = -2 and K.C = -2, so
    # p_a(C) = -1: no fibre component is such a class.
    model = SurfaceModel.maximal(2)
    f = fiber_class(model)
    zero = exceptional(model, model.n)
    c = exceptional(model, 1) - f - zero
    assert (intersect(c, f), intersect(c, c)) == (0, -2)
    sc = Scenario("negative-genus", model, f, (zero,), (ReducibleFiber((c, f - c)),))
    checks = {ch.name: ch for ch in validate_scenario(sc).checks}
    assert not checks["fiber_0_component_0_genus"].passed
    assert checks["fiber_0_component_0_genus"].detail == "p_a = -1"
    assert checks["fiber_0_component_1_genus"].passed


def _two_component_fiber(model, i, j):
    # E_i - E_j and its complement in F: a fibre of type I_2.
    a = exceptional(model, i) - exceptional(model, j)
    return ReducibleFiber((a, fiber_class(model) - a))


def test_validation_rejects_meeting_fibres():
    model = SurfaceModel.maximal(1, 1)
    f = fiber_class(model)
    section = (exceptional(model, 8),)
    disjoint = Scenario("disjoint", model, f, section, (
        _two_component_fiber(model, 1, 2), _two_component_fiber(model, 3, 4)))
    assert validate_scenario(disjoint).ok
    # (E1 - E2).(E2 - E3) = 1: each fibre is fine alone, but they meet.
    meeting = Scenario("meeting", model, f, section, (
        _two_component_fiber(model, 1, 2), _two_component_fiber(model, 2, 3)))
    failed = validate_scenario(meeting).failures()
    assert [c.name for c in failed] == ["fibers_0_1_disjoint"]
    assert "Theta0 of fibre 0 meets Theta0 of fibre 1 (1)" in failed[0].detail
    # One fibre declared twice: its components meet themselves.
    twice = Scenario("twice", model, f, section, (
        _two_component_fiber(model, 1, 2), _two_component_fiber(model, 3, 4),
        _two_component_fiber(model, 1, 2)))
    failed = validate_scenario(twice).failures()
    assert [c.name for c in failed] == ["fibers_0_2_disjoint"]


def test_validation_flags_nonmaximal_model():
    model = SurfaceModel(d=1, n=6, g=1)
    # no fibre class exists; fake one with the right numerology anyway
    f = class_from_coeffs(model, (0, 1, 0, 0, 0, 0, 0, 0))
    sc = Scenario("small", model, f, (exceptional(model, 1),))
    report = validate_scenario(sc)
    failed = {c.name for c in report.failures()}
    assert "picard_number_maximal" in failed


def test_elementary_transformation_roundtrip():
    for g in (1, 2):
        sc = scenario_trivial_mw(g)
        iso = elementary_transformation(sc)
        assert iso.target.d == sc.model.d + 1
        assert abs(mx.det(iso.matrix)) == 1
        # intersection numbers preserved on a spanning set
        classes = [sc.fiber, sc.zero_section] + list(sc.fibers[0].components)
        for a in classes:
            for b in classes:
                assert intersect(iso.apply(a), iso.apply(b)) == intersect(a, b)
        inv = iso.inverse()
        for a in classes:
            assert inv.apply(iso.apply(a)) == a

        moved = transform_scenario(iso, sc)
        assert validate_scenario(moved).ok
        # Delta - E1 blows down to the new Gamma-direction: its image meets
        # the story differently but all numerics survive, checked above.


def test_elementary_transformation_needs_witness():
    sc = scenario_all_irreducible(1)
    with pytest.raises(ConfigurationError):
        elementary_transformation(sc)


def test_basis_isometry_verifies_form():
    model = SurfaceModel.maximal(1)
    with pytest.raises(ConfigurationError):
        BasisIsometry(model, model, mx.identity(model.rank - 1))
    bad = [list(row) for row in mx.identity(model.rank)]
    bad[0][1] = 1  # shears Delta into Gamma, not an isometry of this form
    with pytest.raises(ConfigurationError):
        BasisIsometry(model, model, tuple(tuple(r) for r in bad))
    ident = BasisIsometry(model, model, mx.identity(model.rank))
    assert ident.apply(delta(model)) == delta(model)


def test_isometry_apply_checks_model():
    model = SurfaceModel.maximal(1)
    iso = BasisIsometry(model, model, mx.identity(model.rank))
    with pytest.raises(ConfigurationError):
        iso.apply(gamma(SurfaceModel.maximal(2)))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_json_round_trip(g):
    for sc in (scenario_all_irreducible(g), scenario_trivial_mw(g)):
        doc = scenario_to_json(sc)
        back = scenario_from_json(doc)
        assert back.name == sc.name
        assert back.model == sc.model
        assert back.fiber == sc.fiber
        assert back.sections == sc.sections
        assert len(back.fibers) == len(sc.fibers)
        for fa, fb in zip(back.fibers, sc.fibers):
            assert fa.components == fb.components


def test_json_rejects_malformed():
    doc = scenario_to_json(scenario_trivial_mw(1))
    # name is optional; everything else must be present and well formed
    assert scenario_from_json({k: v for k, v in doc.items() if k != "name"}).name == "scenario"
    for breakage in (
        lambda d: d.update(name=42),
        lambda d: d.pop("fiber"),
        lambda d: d.update(genus="one"),
        lambda d: d.update(genus=True),
        lambda d: d.update(degree=False),
        lambda d: d["fiber"].__setitem__(0, True),
        lambda d: d["sections"][0].__setitem__(1, False),
        lambda d: d["fibers"][0]["components"][0].__setitem__(0, True),
        lambda d: d.update(sections=[]),
        lambda d: d.update(sections=[[1, 2]]),
        lambda d: d["fibers"][0].update(components=[]),
    ):
        broken = scenario_to_json(scenario_trivial_mw(1))
        breakage(broken)
        with pytest.raises(InputFormatError):
            scenario_from_json(broken)
    with pytest.raises(InputFormatError):
        scenario_from_json([1, 2, 3])


def test_validate_scenario_raises_programming_errors(monkeypatch):
    # only MWLatticeError is bad data; a TypeError is a bug and must surface
    def broken(components, fiber):
        raise TypeError("broken helper")

    monkeypatch.setattr(scenarios, "fiber_multiplicities", broken)
    with pytest.raises(TypeError, match="broken helper"):
        validate_scenario(scenario_trivial_mw(1))


def test_validate_scenario_abbreviates_numbers_it_cannot_print():
    # F.F of a fibre class with a 3,001-digit coefficient has 6,002 digits,
    # past Python's limit on int-to-str conversion
    doc = scenario_to_json(scenario_trivial_mw(1))
    doc["fiber"][0] = int("7" * 3001)
    checks = {ch.name: ch for ch in validate_scenario(scenario_from_json(doc)).checks}
    assert checks["fiber_self_intersection"].detail == "F.F = -<6002 digits>"
    assert checks["fiber_genus"].detail == "adjunction genus -<6002 digits>"
    assert len(checks["fiber_canonical_degree"].detail) == len("K.F = -") + 3001
    assert not checks["fiber_self_intersection"].passed


# Integers of up to 4,300 digits, the most a JSON document read by Python
# can carry: a drawn block of digits repeated to a drawn width, since a
# drawn 4,300-digit integer exhausts hypothesis's entropy budget.
_COEFFICIENT = st.one_of(
    st.integers(-3, 3),
    st.builds(
        lambda sign, block, width: sign * int((str(block) * 4300)[:width]),
        st.sampled_from((-1, 1)), st.integers(1, 10 ** 6), st.integers(1, 4300),
    ),
)


@st.composite
def _scenario_documents(draw):
    g = draw(st.integers(1, 2))
    classes = st.lists(_COEFFICIENT, min_size=4 * g + 6, max_size=4 * g + 6)
    fibers = st.lists(st.lists(classes, min_size=1, max_size=3), max_size=2)
    return {
        "genus": g,
        "degree": draw(st.integers(0, g + 1)),
        "n": 4 * g + 4,
        "fiber": draw(classes),
        "sections": draw(st.lists(classes, min_size=1, max_size=2)),
        "fibers": [{"components": comps} for comps in draw(fibers)],
    }


@settings(derandomize=True, max_examples=40, deadline=None)
@given(doc=_scenario_documents())
def test_validate_scenario_reports_on_any_document(doc):
    scenario = scenario_from_json(json.loads(json.dumps(doc)))
    report = validate_scenario(scenario)
    assert report.scenario == scenario.name
    assert all(isinstance(ch.detail, str) for ch in report.checks)

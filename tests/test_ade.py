"""Simple-singularity recognition on exact rational germs.

The local variables (u, v) ride in the t and y slots of SparsePoly, so
U and V below are aliases for those generators.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice.ade import (
    GermClassification,
    classify_ade_germ,
    default_step_budget,
)
from mwlattice.errors import ConfigurationError, ShapeError
from mwlattice.pencil import (
    PencilCoefficients,
    double_cover_branch_germ,
    pencil_to_double_cover,
    random_pencil,
)
from mwlattice.poly import T, X, Y, SparsePoly

U, V = T, Y


BATTERY = [
    # A-chain
    (U * V, "A(1)"),
    (U * U + V * V, "A(1)"),
    (U * U - V * V * V, "A(2)"),
    (U * U + V ** 4, "A(3)"),
    ((U + V ** 2) * (U + 2 * V ** 2), "A(3)"),
    (U * U - V ** 5, "A(4)"),
    (U * U + U * V ** 3, "A(5)"),
    ((U + V ** 2) ** 2 + V ** 6, "A(5)"),
    ((U + V ** 2) ** 2 - V ** 6, "A(5)"),
    ((U + V ** 2) ** 2 - V ** 7, "A(6)"),
    (U * U + V ** 8, "A(7)"),
    (U * U - V ** 9, "A(8)"),
    (3 * U * U + 5 * U * V + V * V + V ** 9, "A(1)"),
    # D-chain
    (U * V * (U + V), "D(4)"),
    (V * (U * U + V * V), "D(4)"),
    (U ** 3 - U * V ** 2, "D(4)"),
    (U * U * V + V ** 4, "D(5)"),
    ((U * U - V ** 3) * (U + V), "D(5)"),
    ((U + V) ** 2 * V + V ** 4, "D(5)"),
    (U * U * V + V ** 5, "D(6)"),
    (U ** 5 + U * V * V, "D(6)"),
    (U * U * V - V ** 6, "D(7)"),
    (U * U * V + V ** 7, "D(8)"),
    (U * U * V + V ** 8, "D(9)"),
    (U * U * V - V ** 9, "D(10)"),
    # E-decision
    (U ** 3 + V ** 4, "E(6)"),
    (U ** 3 + V ** 4 + U * V ** 3, "E(6)"),
    ((2 * U - V) ** 3 + U * V ** 3, "E(6)"),
    (U ** 3 + U * V ** 3, "E(7)"),
    ((U + V) ** 3 + (U + V) * V ** 3, "E(7)"),
    (U ** 3 + V ** 5, "E(8)"),
    (V ** 3 + U ** 5, "E(8)"),
    (U ** 3 - 2 * V ** 5 + U * V ** 4, "E(8)"),
    # beyond the simple range
    (U ** 3 + V ** 6, "NotSimple"),
    (U ** 3 + U * U * V * V, "NotSimple"),
    ((U + V ** 2) ** 2, "NotSimple"),
    (U * U * V, "NotSimple"),
    (U * U * V * V, "NotSimple"),
    (U ** 4 + V ** 4, "NotSimple"),
    (U ** 4 + V ** 5, "NotSimple"),
]


@pytest.mark.parametrize(
    "germ,label", BATTERY, ids=[label + "/%d" % i for i, (_, label) in enumerate(BATTERY)]
)
def test_battery(germ, label):
    assert classify_ade_germ(germ).label == label


def test_battery_is_invariant_under_scaling():
    rng = random.Random(5)
    for germ, label in BATTERY:
        scale = rng.choice((-3, -1, 2, 7))
        assert classify_ade_germ(scale * germ).label == label


def test_classification_details():
    out = classify_ade_germ(U * U + U * V ** 3)
    assert out.kind == "A"
    assert out.index == 5
    assert out.detail == "normal form u^2 + v^6"
    assert out.coordinate_changes == ("u -> u - (1/2) v^3",)

    out = classify_ade_germ(U * U - V ** 5)
    assert out.detail == "normal form u^2 + v^5"
    assert out.coordinate_changes == ()

    out = classify_ade_germ(U * V * (U + V))
    assert out.detail == "three distinct tangent lines"

    out = classify_ade_germ(U ** 5 + U * V * V)
    assert out.detail == "normal form u^2 v + v^5"
    # the rotation moving the double line to u = 0 is in the audit
    assert any("u, v ->" in step for step in out.coordinate_changes)

    out = classify_ade_germ((U + V ** 2) ** 2)
    assert out.detail == "germ has a repeated branch u = 0"

    out = classify_ade_germ(U ** 3 + V ** 6)
    assert out.detail == "tails vanish past the E(8) range"

    out = classify_ade_germ(U ** 4 + V ** 4)
    assert out.detail == "multiplicity 4 exceeds 3"

    out = classify_ade_germ(SparsePoly.zero())
    assert out.kind == "NotSimple"
    assert out.detail == "zero germ"


def test_budget_exhaustion():
    out = classify_ade_germ(U * U + U * V ** 3, max_steps=0)
    assert out.kind == "Unresolved"
    assert out.index is None
    assert out.detail == "no verdict within 0 coordinate changes"
    assert out.coordinate_changes == ()
    # the same germ resolves with one change allowed
    assert classify_ade_germ(U * U + U * V ** 3, max_steps=1).label == "A(5)"
    # and a germ already in normal form never spends a step
    assert classify_ade_germ(U * U - V ** 5, max_steps=0).label == "A(4)"


def test_negative_budget_is_rejected():
    for germ in (U * U + U * V ** 3, SparsePoly.zero()):
        with pytest.raises(ConfigurationError, match="^max_steps must be nonnegative, got -1$"):
            classify_ade_germ(germ, max_steps=-1)


def test_default_step_budget():
    assert default_step_budget(U * U + V ** 3) == 8
    assert default_step_budget(U * U + V ** 12) == 40


def test_shape_rejections():
    with pytest.raises(ShapeError):
        classify_ade_germ(X * X + V ** 3)
    with pytest.raises(ShapeError):
        classify_ade_germ(U + V ** 2)
    with pytest.raises(ShapeError):
        classify_ade_germ(SparsePoly.monomial(1) + U * U)


def test_classification_record_validation():
    with pytest.raises(ValueError):
        GermClassification("A", 0)
    with pytest.raises(ValueError):
        GermClassification("A", None)
    with pytest.raises(ValueError):
        GermClassification("D", 3)
    with pytest.raises(ValueError):
        GermClassification("E", 5)
    with pytest.raises(ValueError):
        GermClassification("NotSimple", 1)
    with pytest.raises(ValueError):
        GermClassification("Unresolved", 2)
    with pytest.raises(ValueError):
        GermClassification("F", 4)
    rec = GermClassification("E", 7)
    assert rec.label == "E(7)"
    assert str(rec) == "E(7)"
    assert str(GermClassification("NotSimple", None)) == "NotSimple"


@pytest.mark.parametrize("g", (1, 2, 3))
def test_double_cover_germ_is_d_type(g):
    """The branch germ of the minimal pencil has a D(4g+4) point."""
    pc = PencilCoefficients.from_map(g, {(2, 0): 1, (0, 1): 1})
    germ = double_cover_branch_germ(pencil_to_double_cover(pc))
    out = classify_ade_germ(germ)
    assert out.kind == "D"
    assert out.index == 4 * g + 4
    assert out.detail == "normal form u^2 v + v^%d" % (4 * g + 3)


@pytest.mark.parametrize("g", (1, 2, 3))
def test_double_cover_germ_random_pencils(g):
    rng = random.Random(40 + g)
    for _ in range(5):
        pc = random_pencil(g, rng)
        germ = double_cover_branch_germ(pencil_to_double_cover(pc))
        out = classify_ade_germ(germ)
        assert (out.kind, out.index) == ("D", 4 * g + 4)


NORMAL_FORMS = (
    [("A(%d)" % k, lambda u, v, k=k: u * u + v ** (k + 1)) for k in range(1, 9)]
    + [("D(%d)" % k, lambda u, v, k=k: u * u * v + v ** (k - 1)) for k in range(4, 10)]
    + [("E(6)", lambda u, v: u ** 3 + v ** 4),
       ("E(7)", lambda u, v: u ** 3 + u * v ** 3),
       ("E(8)", lambda u, v: u ** 3 + v ** 5)]
)

_LINEAR = st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2])
_QUADRATIC = st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 6)
_UNIT = st.tuples(st.sampled_from((1, -1, 2, -3, Fraction(1, 2))),
                  st.integers(-2, 2), st.integers(-2, 2))


@pytest.mark.parametrize("label,normal_form", NORMAL_FORMS,
                         ids=[label for label, _ in NORMAL_FORMS])
@settings(derandomize=True, max_examples=3, deadline=None)
@given(linear=_LINEAR, quadratic=_QUADRATIC, unit=_UNIT)
def test_label_is_invariant_under_coordinate_change(label, normal_form, linear, quadratic, unit):
    """unit * f(P, Q) with (P, Q) an invertible polynomial map keeps the label."""
    a, b, c, d = linear
    q = quadratic
    p_u = a * U + b * V + q[0] * U * U + q[1] * U * V + q[2] * V * V
    p_v = c * U + d * V + q[3] * U * U + q[4] * U * V + q[5] * V * V
    germ = (unit[0] + unit[1] * U + unit[2] * V) * normal_form(p_u, p_v)
    assert classify_ade_germ(germ).label == label

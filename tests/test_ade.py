"""Simple-singularity recognition on exact rational germs.

The local variables (u, v) ride in the t and y slots of SparsePoly, so
U and V below are aliases for those generators.
"""

import hashlib
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
    branch_decomposition,
    contact_order_at_origin,
    discriminant_in_x,
    double_cover_branch_germ,
    pencil_equation,
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


TANGENT_CONE_CASES = [
    # three distinct lines
    (U * V * (U + V), "D(4)", (), "three distinct tangent lines"),
    # double line u - v, simple line u + 2v (u^3 coefficient nonzero)
    ((U - V) ** 2 * (U + 2 * V) + V ** 5, "D(6)",
     ("u, v -> (2/3) u + (1/3) v, (-1/3) u + (1/3) v",), "normal form u^2 v + v^5"),
    # double line u - 2v, simple line v (no u^3 term)
    (V * (U - 2 * V) ** 2 + V ** 5, "D(6)",
     ("u, v -> (1) u + (2) v, (0) u + (1) v",), "normal form u^2 v + v^5"),
    # double line v, simple line u + v (no u^3 or u^2 v term)
    (V * V * (U + V) + U ** 4, "D(5)",
     ("u, v -> (-1) u + (1) v, (1) u + (0) v",), "normal form u^2 v + v^4"),
    # triple line u - 2v
    ((U - 2 * V) ** 3 + V ** 4, "E(6)",
     ("u, v -> (1) u + (2) v, (0) u + (1) v",), "normal form u^3 + v^4"),
    # triple line v
    (V ** 3 + U ** 4, "E(6)",
     ("u, v -> (0) u + (1) v, (1) u + (0) v",), "normal form u^3 + v^4"),
]


@pytest.mark.parametrize(
    "germ,label,changes,detail",
    TANGENT_CONE_CASES,
    ids=["%s/%d" % (case[1], i) for i, case in enumerate(TANGENT_CONE_CASES)],
)
def test_tangent_cone_audit_trail(germ, label, changes, detail):
    # every branch of the multiplicity-3 decision, with its exact line change
    out = classify_ade_germ(germ)
    assert out.label == label
    assert out.coordinate_changes == changes
    assert out.detail == detail


@pytest.mark.parametrize(
    "germ",
    [
        # v^2 (27 v + u^2 v - u^2 v^2 + u^4): a repeated branch with a
        # nonzero u^2-tail, past the E(8) range after the swap u <-> v
        27 * V ** 3 + U ** 2 * V ** 3 + U ** 4 * V ** 2 - U ** 2 * V ** 4,
        # J10: every term has weight 6 for the weights (2, 1)
        U ** 3 + U * U * V * V + V ** 6,
        (U + V) ** 3 + (U + V) ** 2 * V ** 3 - V ** 7,
    ],
)
def test_triple_line_past_e8_is_not_simple(germ):
    # No shift of the u^2-tail can bring an E type back, so the verdict
    # comes without one, whatever the budget.
    for max_steps in (None, 400):
        out = classify_ade_germ(germ, max_steps=max_steps)
        assert out.label == "NotSimple"
        assert out.detail == "tails vanish past the E(8) range"
        assert len(out.coordinate_changes) <= 1
        assert not any(step.startswith("u -> ") for step in out.coordinate_changes)


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


def test_audit_trails_are_pinned():
    # Digest of what the pencil and germ paths print, as the per-term
    # Fraction kernel gave it: the discriminant, the contact order, the
    # label and the whole audit trail of 20 random pencils, then of every
    # A/D/E normal form under a seeded invertible change of coordinates.
    h = hashlib.sha256()
    rng = random.Random(16)
    for g in range(1, 6):
        for _ in range(4):
            pc = random_pencil(g, rng)
            disc = discriminant_in_x(pencil_equation(pc))
            contact = contact_order_at_origin(branch_decomposition(disc).branch)
            out = classify_ade_germ(double_cover_branch_germ(pencil_to_double_cover(pc)))
            h.update(repr((str(disc), contact, out.label, out.coordinate_changes,
                           out.detail)).encode())
    small = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 5)]
    for label, normal_form in NORMAL_FORMS:
        a = b = c = d = 0
        while a * d == b * c:
            a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        q = [rng.choice(small) for _ in range(5)]
        p_u = a * U + b * V + q[0] * V * V + q[1] * U * V
        p_v = c * U + d * V + q[2] * U * U
        germ = (q[3] + q[4] * U) * normal_form(p_u, p_v)
        out = classify_ade_germ(germ)
        assert out.label == label
        h.update(repr((str(germ), out.label, out.coordinate_changes, out.detail)).encode())
    assert h.hexdigest() == (
        "bd9954acd3a26e7635f104fb11c86f489848b16efdecf72914e03b7704a452f2"
    )

"""Neron-Severi basis, intersection numbers, canonical and fibre classes."""

from fractions import Fraction

import numpy as np
import pytest

from mwlattice.errors import InvalidModelError, ModelMismatchError
from mwlattice.surface import (
    DivisorClass,
    SurfaceModel,
    adjunction_genus,
    canonical_class,
    class_from_coeffs,
    delta,
    exceptional,
    fiber_class,
    gamma,
    intersect,
)


@pytest.fixture(params=[1, 2, 3])
def model(request):
    return SurfaceModel.maximal(request.param)


def test_maximal_model_numbers(model):
    g = model.g
    assert model.n == 4 * g + 4
    assert model.rho == 4 * g + 6
    assert model.rank == model.rho
    assert model.is_maximal


def test_maximal_model_degree_bound():
    SurfaceModel.maximal(1, d=2)  # d = g+1 is allowed
    with pytest.raises(InvalidModelError):
        SurfaceModel.maximal(1, d=3)
    with pytest.raises(InvalidModelError):
        SurfaceModel(d=1, n=8, g=0)


def test_negative_genus_reports_genus():
    # maximal(-1) has d = -1 as well; the genus is the real fault
    with pytest.raises(InvalidModelError, match="genus must be at least 1"):
        SurfaceModel.maximal(-1)


def test_basis_intersections(model):
    dl, gm = delta(model), gamma(model)
    assert intersect(dl, dl) == -model.d
    assert intersect(dl, gm) == 1
    assert intersect(gm, gm) == 0
    for i in range(1, model.n + 1):
        ei = exceptional(model, i)
        assert intersect(ei, ei) == -1
        assert intersect(dl, ei) == 0
        assert intersect(gm, ei) == 0
        for j in range(1, i):
            assert intersect(ei, exceptional(model, j)) == 0


def test_intersection_matrix_matches_pairings(model):
    m = model.intersection_matrix()
    basis = [delta(model), gamma(model)] + [
        exceptional(model, i) for i in range(1, model.n + 1)
    ]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            assert m[i][j] == intersect(x, y)
    neg = model.neg_intersection_matrix()
    assert all(neg[i][j] == -m[i][j] for i in range(len(m)) for j in range(len(m)))


def test_canonical_class_squares(model):
    k = canonical_class(model)
    # K^2 = 8 - n on a blown-up Hirzebruch surface
    assert intersect(k, k) == 8 - model.n
    assert intersect(k, k) == 10 - model.rho


def test_fiber_class_numerics(model):
    f = fiber_class(model)
    k = canonical_class(model)
    assert intersect(f, f) == 0
    assert intersect(k, f) == 2 * model.g - 2
    assert adjunction_genus(f) == model.g
    adj = k + f
    assert intersect(adj, adj) == 0


def test_fiber_class_requires_maximal():
    with pytest.raises(InvalidModelError):
        fiber_class(SurfaceModel(d=1, n=7, g=1))


def test_adjunction_on_rational_curves(model):
    for i in range(1, model.n + 1):
        assert adjunction_genus(exceptional(model, i)) == 0
    assert adjunction_genus(gamma(model)) == 0


def test_divisor_arithmetic():
    model = SurfaceModel.maximal(1)
    e1, e2 = exceptional(model, 1), exceptional(model, 2)
    s = e1 + e2
    assert s.coeffs[2:4] == (-1, -1)
    assert (e1 - e2).coeffs[2:4] == (-1, 1)
    assert (-e1).coeffs[2] == 1
    assert (3 * e1).coeffs[2] == -3
    assert (e1 * 3).coeffs[2] == -3
    assert intersect(e1 - e2, e1 - e2) == -2
    assert intersect(e1, e2) == 0


@pytest.mark.parametrize("flag", [True, False])
def test_divisor_refuses_a_bool_multiplier(flag):
    # True is no coefficient: every other entry point refuses it too
    e1 = exceptional(SurfaceModel.maximal(1), 1)
    with pytest.raises(TypeError):
        flag * e1
    with pytest.raises(TypeError):
        e1 * flag


def test_model_mismatch_rejected():
    a = exceptional(SurfaceModel.maximal(1), 1)
    b = exceptional(SurfaceModel.maximal(2), 1)
    with pytest.raises(ModelMismatchError):
        intersect(a, b)
    with pytest.raises(ModelMismatchError):
        a + b


def test_coefficient_length_checked():
    model = SurfaceModel.maximal(1)
    with pytest.raises(ModelMismatchError):
        class_from_coeffs(model, (1, 2, 3))


@pytest.mark.parametrize("value", [1.7, 1.0, "3", True, Fraction(1)],
                         ids=["float", "integral-float", "str", "bool", "fraction"])
def test_coefficients_must_be_integers(value):
    # int() would have truncated 1.7 to 1 and parsed "3"
    model = SurfaceModel.maximal(1)
    with pytest.raises(TypeError, match="expected an integer"):
        DivisorClass(model, (value,) * model.rank)


def test_coefficients_take_numpy_integers():
    model = SurfaceModel.maximal(1)
    cls = DivisorClass(model, np.arange(model.rank))
    assert cls.coeffs == tuple(range(model.rank))
    assert all(type(c) is int for c in cls.coeffs)


@pytest.mark.parametrize("params", [(1.5, 8, 1), (1, 8.0, 1), (1, 8, True), (1, 8, "1")])
def test_model_parameters_must_be_integers(params):
    # SurfaceModel(1.5, 8, 1) used to construct, with Delta^2 = -1.5.
    with pytest.raises(TypeError, match="expected an integer"):
        SurfaceModel(*params)
    model = SurfaceModel(*map(np.int64, (1, 8, 1)))
    assert model == SurfaceModel(1, 8, 1)
    assert all(type(x) is int for x in (model.d, model.n, model.g))


def test_str_form():
    model = SurfaceModel.maximal(1)
    assert str(delta(model)) == "Delta"
    assert str(exceptional(model, 1)) == "E1"
    assert str(-exceptional(model, 1)) == "-E1"
    assert str(delta(model) - delta(model)) == "0"
    f = fiber_class(model)
    assert str(f).startswith("2Delta + 3Gamma - E1")

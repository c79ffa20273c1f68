"""Exact linear algebra: determinants, elimination, Smith forms, kernels."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwlattice import matrices as mx
from mwlattice.oracles import determinant_by_expansion, invariant_factors_by_minors


def test_det_known_values():
    assert mx.det(()) == 1
    assert mx.det(((5,),)) == 5
    assert mx.det(((1, 2), (3, 4))) == -2
    assert mx.det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert mx.det(((1, 2), (2, 4))) == 0


def test_det_rational_entries():
    m = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 5)))
    assert mx.det(m) == Fraction(1, 10) - Fraction(1, 12)


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        b = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        assert mx.det(mx.matmul(a, b)) == mx.det(a) * mx.det(b)


def _python_product(a, b):
    """a @ b as sums of Python products, the reference for ``matmul``."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@pytest.mark.parametrize(
    "a,b",
    [
        # a huge entry on the right
        (((0, 1), (1, 0)), ((1, 1 << 70), (0, 1))),
        # small right operand, large left entries: 2^40 * 2^30
        ((((1 << 40), 1),), ((1 << 30, 1), (0, 1))),
        # entries of 2^61 whose column sum 2^63 overflows int64
        (((1, 1, 1, 1),), tuple((1 << 61, 0) for _ in range(4))),
        # an all-zero operand beside a 2^63 entry: the product's bound is 0,
        # but the other operand does not fit in int64
        (((0, 0),), ((1 << 63, 0), (0, 1))),
        (((1 << 63, 1),), ((0,), (0,))),
        # -2^63 fits in int64, but its absolute value does not
        (((-(1 << 63), 0),), ((0,), (0,))),
        (((0, 0),), ((-(1 << 63), 0), (0, 1))),
    ],
)
def test_matmul_beyond_int64(a, b, python_loops):
    # In int64 each of these products would overflow or fail to convert.
    assert mx.matmul(a, b) == _python_product(a, b)
    assert len(python_loops) == 1
    assert mx.matmul((), b) == ()


def test_matmul_in_int64_gives_python_ints(python_loops):
    rng = random.Random(5)
    for _ in range(20):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a = tuple(tuple(rng.randint(-(1 << 20), 1 << 20) for _ in range(k)) for _ in range(n))
        b = tuple(tuple(rng.randint(-(1 << 20), 1 << 20) for _ in range(m)) for _ in range(k))
        got = mx.matmul(a, b)
        assert got == _python_product(a, b)
        assert all(type(x) is int for row in got for x in row)
    assert not python_loops


def test_matmul_guard_is_exact_at_the_limit(python_loops):
    # max |a_ik| * max_j sum_k |b_kj| must stay below 2^62.
    below = ((1 << 31,),), (((1 << 31) - 1,),)
    at = ((1 << 31,),), ((1 << 31,),)
    assert mx.matmul(*below) == _python_product(*below) and not python_loops
    assert mx.matmul(*at) == _python_product(*at) and len(python_loops) == 1
    # Four entries of 2^61 could wrap an int64 column sum; this one is 2^61.
    wide = ((1, 0, 0, 0),), ((1 << 61,), (0,), (0,), (0,))
    assert mx.matmul(*wide) == ((1 << 61,),) and len(python_loops) == 1


def test_matmul_keeps_other_entries_on_the_python_loop(python_loops):
    a = ((Fraction(1, 2), 1), (2, Fraction(-1, 3)))
    b = ((Fraction(2, 3),), (4,))
    got = mx.matmul(a, b)
    assert got == ((Fraction(13, 3),), (Fraction(0),)) == _python_product(a, b)
    assert all(type(row[0]) is Fraction for row in got)
    assert len(python_loops) == 1
    # bools and numpy integers read as int64: the exact route, Python ints out
    for a in (((True, 1),), ((np.int64(1), 1),)):
        got = mx.matmul(a, ((1,), (1,)))
        assert got == ((2,),) and type(got[0][0]) is int
    assert len(python_loops) == 1


def test_matmul_of_numpy_integers_does_not_wrap():
    # 2^40 * 2^40 in np.int64 arithmetic wraps to 0
    a = ((np.int64(1 << 40),),)
    got = mx.matmul(a, a)
    assert got == ((1 << 80,),) and type(got[0][0]) is int


def test_matmul_refuses_a_ragged_operand():
    with pytest.raises(ValueError):
        mx.matmul(((1, 1),), ((1, 2), (3,)))
    with pytest.raises(ValueError):
        mx.matmul(((1, 2), (3,)), ((1,), (1,)))


def test_inverse_round_trip():
    rng = random.Random(3)
    found = 0
    while found < 20:
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        if mx.det(a) == 0:
            continue
        found += 1
        assert mx.matmul(a, mx.inverse(a)) == mx.identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        mx.inverse(((1, 1), (1, 1)))


def test_invariant_factors_known():
    assert mx.invariant_factors(((2, 0), (0, 3))) == (1, 6)
    assert mx.invariant_factors(((2, 4), (6, 8))) == (2, 4)
    assert mx.invariant_factors(((1, 0), (0, 1))) == (1, 1)
    assert mx.invariant_factors(((0, 0), (0, 0))) == ()
    assert mx.invariant_factors(((6,),)) == (6,)


@pytest.mark.parametrize("call", [mx.invariant_factors, mx.left_kernel_basis, mx.int_matrix,
                                  mx.as_integer_matrix, lambda m: mx._solve_left_and_rank(m, (0, 0))],
                         ids=["invariant_factors", "left_kernel_basis", "int_matrix",
                              "as_integer_matrix", "solve_left"])
@pytest.mark.parametrize("m", [((1, 2), (3,)), ((2,), (4, 6)), ((Fraction(1, 2), 1), (1,))])
def test_ragged_matrix_is_rejected(call, m):
    # the entry gate reads rows through ``mat``: a short row is no zero-padded one
    with pytest.raises(ValueError, match="^ragged matrix$"):
        call(m)


def test_solve_left():
    a = ((1, 2), (3, 4))
    y = mx._solve_left_and_rank(a, (4, 6))[0]
    assert y is not None
    assert mx.matmul((y,), a) == ((4, 6),)
    assert mx._solve_left_and_rank(((1, 1), (1, 1)), (0, 1))[0] is None
    # the unknown of a column without a pivot is 0
    assert mx._solve_left_and_rank(((1, 1), (2, 2)), (3, 3))[0] == (3, 0)


@pytest.mark.parametrize("b", [(1,), (1, 2, 5)], ids=["short", "long"])
def test_solve_left_refuses_a_right_hand_side_of_the_wrong_length(b):
    # (1,) read rank 1 off a rank-2 matrix; (1, 2, 5) gave (1, 0) and dropped the 5
    with pytest.raises(ValueError, match="^right-hand side of length"):
        mx._solve_left_and_rank(((1, 2), (3, 4)), b)


def test_left_kernel_basis_annihilates():
    m = ((1, 2, 3), (2, 4, 6), (0, 1, 1))
    k = mx.left_kernel_basis(m)
    assert len(k) == 1
    assert mx.matmul(k, m) == ((0, 0, 0),)
    # kernel of the 2x-duplicated row is spanned by a primitive vector
    assert math.gcd(*k[0]) == 1


def _matrices(rows, cols, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda m: tuple(map(tuple, m)))


def _clear_denominators(m):
    """Scale each row by the lcm of its denominators, which keeps the rank."""
    return tuple(
        tuple(int(x * math.lcm(*(Fraction(y).denominator for y in row))) for x in row)
        for row in m)


def _rank(m):
    """Rank over the rationals, from the minors: off every elimination."""
    return len(invariant_factors_by_minors(_clear_denominators(m)))


_ENTRIES = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=5))
_SQUARE = st.integers(1, 5).flatmap(lambda n: _matrices(n, n, _ENTRIES))
_SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 5))
_RECTANGULAR = _SHAPES.flatmap(lambda shape: _matrices(*shape, _ENTRIES))
# Scaled rows make pivots that do not divide the rest of the matrix.
_INTEGER_RECTANGULAR = st.builds(
    lambda m, scales: tuple(tuple(c * x for x in row) for c, row in zip(scales, m)),
    _SHAPES.flatmap(lambda shape: _matrices(*shape, st.integers(-9, 9))),
    st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=4, max_size=4))


def _unit_triangular(n, entries):
    return st.lists(entries, min_size=n * n, max_size=n * n).map(lambda xs: tuple(
        tuple(1 if i == j else xs[i * n + j] if j < i else 0 for j in range(n))
        for i in range(n)))


# Products L U^T of unit lower triangular matrices have determinant 1.
_UNIMODULAR = st.integers(1, 5).flatmap(lambda n: st.builds(
    lambda low, up: mx.matmul(low, mx.transpose(up)),
    _unit_triangular(n, st.integers(-3, 3)), _unit_triangular(n, st.integers(-3, 3))))
_INTEGER_SQUARE = st.integers(1, 5).flatmap(lambda n: _matrices(n, n, st.integers(-3, 3)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.one_of(_INTEGER_SQUARE, _UNIMODULAR))
def test_inverse_is_integral_iff_det_is_a_unit(m):
    # det G * det G^-1 = 1, and G^-1 = +-adj G when |det G| = 1: ``mwl``
    # reads the dual Gram matrix's integrality off the discriminant.
    d = determinant_by_expansion(m)
    assume(d != 0)
    integral = all(x.denominator == 1 for row in mx.inverse(m) for x in row)
    assert integral == (abs(d) == 1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_SQUARE)
def test_det_and_inverse_match_cofactor_expansion(m):
    n = len(m)
    d = mx.det(m)
    assert isinstance(d, Fraction)
    assert d == determinant_by_expansion(m)
    if d == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            mx.inverse(m)
    else:
        inv = mx.inverse(m)
        assert all(isinstance(x, Fraction) for row in inv for x in row)
        assert mx.matmul(inv, m) == mx.identity(n)
        assert mx.matmul(m, inv) == mx.identity(n)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_RECTANGULAR, st.data())
def test_rank_and_solve_left_properties(m, data):
    rank = _rank(m)
    # b is an integer combination of the rows half of the time
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
        b = mx.matmul((coeffs,), m)[0]
    else:
        b = tuple(data.draw(st.lists(_ENTRIES, min_size=len(m[0]), max_size=len(m[0]))))
    x, found_rank = mx._solve_left_and_rank(m, b)
    assert found_rank == rank
    if _rank(m + (b,)) > rank:
        assert x is None
    else:
        assert len(x) == len(m)
        assert mx.matmul((x,), m) == (b,)


@st.composite
def _tall_integer_matrices(draw):
    """Up to 10 x 4, at least as many rows as columns, like ``mw``'s root
    lists: each row is fresh, zero, or an earlier row scaled, duplicated or
    negated, so the Smith reduction meets every kind of dependent row."""
    cols = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(cols, 10))):
        kind = draw(st.sampled_from(("fresh", "earlier", "zero")))
        if kind == "earlier" and rows:
            factor = draw(st.sampled_from((1, -1, 2, -3, 4, 6)))
            rows.append(tuple(factor * x for x in draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append((0,) * cols)
        else:
            rows.append(tuple(draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))))
    return tuple(rows)


@settings(derandomize=True, max_examples=140, deadline=None)
@given(st.one_of(_INTEGER_RECTANGULAR, _tall_integer_matrices()))
def test_smith_form_properties(m):
    factors = mx.invariant_factors(m)
    assert factors == invariant_factors_by_minors(m)
    assert all(x > 0 for x in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_INTEGER_RECTANGULAR)
def test_left_kernel_basis_properties(m):
    k = mx.left_kernel_basis(m)
    assert len(k) == len(m) - _rank(m)
    if k:
        assert all(not any(row) for row in mx.matmul(k, m))
        # saturated: Z^rows / span(k) is torsion-free
        assert set(mx.invariant_factors(k)) == {1}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_INTEGER_RECTANGULAR)
def test_smith_transform_gives_row_lattice_basis(m):
    # ``mw.mwl`` reads T's basis off the reduction that gives its factors.
    u, factors = mx._smith_reduce(m, track=True)
    assert factors == mx.invariant_factors(m)
    assert abs(mx.det(u)) == 1
    reduced = mx.matmul(u, m)
    basis = reduced[:len(factors)]
    assert not any(any(row) for row in reduced[len(factors):])
    assert len(basis) == _rank(m)
    # Every row of m is an integer combination of the basis; the basis rows
    # are independent, so the solution is unique and integrality decisive.
    for row in m:
        sol = mx._solve_left_and_rank(basis, row)[0]
        assert sol is not None
        assert all(x.denominator == 1 for x in sol)
    # Conversely: L(m) ⊆ L(basis) have the same rank, so equal invariant
    # factors (equal index in the saturation) make the two lattices equal.
    assert all(mx._solve_left_and_rank(m, row)[0] is not None for row in basis)
    assert invariant_factors_by_minors(basis) == invariant_factors_by_minors(m)

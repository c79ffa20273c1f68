"""Integer lattices: quotients, complements, LDL, short vectors."""

import random
import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import lattice
from mwlattice import matrices as mx
from mwlattice.boxenum import _box_radii, box_short_vectors
from mwlattice.errors import ConfigurationError, FormError
from mwlattice.lattice import (
    AbelianGroupInvariants,
    _round_quotient,
    cokernel_invariants,
    dual_gram,
    ldl,
    orthogonal_complement,
    short_vectors,
    size_reduce,
    vector_norms,
)
from mwlattice.mw import LatticeIdentification, identify_dn_plus
from mwlattice.oracles import brute_force_short_vectors, determinant_by_expansion

A2 = ((2, -1), (-1, 2))
D4 = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)
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


def test_group_invariants_str():
    assert str(AbelianGroupInvariants(0, ())) == "0"
    assert str(AbelianGroupInvariants(1, ())) == "Z"
    assert str(AbelianGroupInvariants(3, ())) == "Z^3"
    assert str(AbelianGroupInvariants(2, (2, 4))) == "Z^2 x Z/2 x Z/4"
    assert AbelianGroupInvariants(0, ()).is_trivial


def test_group_invariants_validation():
    with pytest.raises(ValueError):
        AbelianGroupInvariants(-1, ())
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (4, 2))  # must divide successively


@pytest.mark.parametrize("free,torsion", [
    (0, (2.5,)), (0, ("3",)), (0, (True,)), (0, (Fraction(2),)),
    (1.5, ()), ("1", ()), (True, ()),
], ids=["float", "str", "bool", "fraction", "float-rank", "str-rank", "bool-rank"])
def test_group_invariants_refuse_non_integers(free, torsion):
    # int() would have truncated 2.5 to Z/2 and parsed "3"
    with pytest.raises(TypeError, match="expected an integer"):
        AbelianGroupInvariants(free, torsion)


def test_group_invariants_take_numpy_integers():
    group = AbelianGroupInvariants(np.int64(2), (np.int32(2), np.int64(4)))
    assert group == AbelianGroupInvariants(2, (2, 4))
    assert type(group.free_rank) is int
    assert all(type(t) is int for t in group.torsion)


def test_cokernel_invariants():
    g = cokernel_invariants(((2, 0), (0, 3)), 2)
    assert (g.free_rank, g.torsion) == (0, (6,))
    g = cokernel_invariants(((1, 0, 0),), 3)
    assert (g.free_rank, g.torsion) == (2, ())
    g = cokernel_invariants(((2, 2),), 2)
    assert (g.free_rank, g.torsion) == (1, (2,))
    g = cokernel_invariants((), 4)
    assert (g.free_rank, g.torsion) == (4, ())


def test_orthogonal_complement_hyperbolic():
    # ambient form with a hyperbolic plane and one (-1) vector
    form = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    comp = orthogonal_complement(((1, 0, 0),), form)
    # x.(1,0,0) = x_2 = 0 under this form
    assert len(comp) == 2
    for row in comp:
        assert mx.matmul(mx.matmul((row,), form), ((1,), (0,), (0,))) == ((0,),)


@pytest.mark.parametrize(
    "basis,form,message",
    [
        (((1, 1),), ((1, 0), (0, 1), (0, 0)), "ambient form must be square"),
        ((), ((0, 1), (2, 0)), "ambient form must be symmetric"),
        (((1, 1, 0),), mx.identity(2), "basis rows must match the ambient rank"),
    ],
    ids=["non-square", "asymmetric", "row-length"],
)
def test_orthogonal_complement_refuses_bad_input(basis, form, message):
    with pytest.raises(FormError, match="^%s$" % message):
        orthogonal_complement(basis, form)


def test_orthogonal_complement_of_dependent_rows_is_that_of_their_span():
    form = mx.identity(2)
    assert orthogonal_complement(((1, 1), (2, 2)), form) == ((-1, 1),)
    assert orthogonal_complement(((1, 1),), form) == ((-1, 1),)
    assert orthogonal_complement((), mx.identity(3)) == mx.identity(3)


def test_dual_gram():
    dual, d = dual_gram(A2)
    assert d == 3
    assert dual == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    with pytest.raises(FormError):
        dual_gram(((1, 1), (1, 1)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-2, 2, max_denominator=2), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_dual_gram_is_inverse_and_abs_det(rows):
    # the drawn upper triangle, mirrored: dual_gram takes symmetric matrices
    n = len(rows)
    m = tuple(tuple(rows[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    d = determinant_by_expansion(m)
    if d == 0:
        with pytest.raises(FormError, match="^degenerate Gram matrix$"):
            dual_gram(m)
    else:
        dual, disc = dual_gram(m)
        assert isinstance(disc, Fraction) and disc == abs(d)
        assert dual == mx.inverse(m)
        assert mx.matmul(dual, m) == mx.identity(len(m))


def test_ldl_positive_definite():
    d, r = ldl(A2)
    assert d == (Fraction(2), Fraction(3, 2))
    assert r[0][1] == Fraction(-1, 2)
    with pytest.raises(FormError):
        ldl(((0, 0), (0, 1)))
    with pytest.raises(FormError):
        ldl(((1, 2), (2, 1)))  # indefinite
    with pytest.raises(FormError):
        ldl(((1, 2), (3, 1)))  # asymmetric


NON_SQUARE_ENTRY_POINTS = {
    "ldl": ldl,
    "size_reduce": size_reduce,
    "dual_gram": dual_gram,
    "short_vectors": lambda gram: short_vectors(gram, 2),
    "brute_force_short_vectors": lambda gram: brute_force_short_vectors(gram, 2),
    "box_short_vectors": lambda gram: box_short_vectors(gram, 2),
    # A negative bound has no vectors, but the shape is checked first.
    "short_vectors/bound-1": lambda gram: short_vectors(gram, -1),
    "brute_force_short_vectors/bound-1": lambda gram: brute_force_short_vectors(gram, -1),
    "box_short_vectors/bound-1": lambda gram: box_short_vectors(gram, -1),
    "identify_dn_plus": identify_dn_plus,
    "vector_norms": lambda gram: vector_norms(gram, ((1, 0),)),
}


@pytest.mark.parametrize("entry", NON_SQUARE_ENTRY_POINTS)
@pytest.mark.parametrize(
    "gram",
    [((2, 0, 5), (0, 2, 7)), ((2, 0), (0, 2), (5, 7)), ((2, 0), (0, 2, 7))],
    ids=["2x3", "3x2", "ragged"],
)
def test_non_square_gram_is_rejected(entry, gram):
    # Each entry point refuses the whole matrix, not just its leading block.
    call = NON_SQUARE_ENTRY_POINTS[entry]
    if entry == "identify_dn_plus":
        assert call(gram) == LatticeIdentification(None, "Gram matrix is not square")
    else:
        with pytest.raises(FormError, match="^Gram matrix must be square$"):
            call(gram)


@pytest.mark.parametrize(
    "entry", [e for e in NON_SQUARE_ENTRY_POINTS if e != "identify_dn_plus"])
@pytest.mark.parametrize(
    "gram", [((2, 1), (0, 2)), ((Fraction(1, 2), 1), (0, 1))], ids=["int", "rational"])
def test_non_symmetric_gram_is_rejected(entry, gram):
    # The same gate refuses the matrix before any bound is read.
    with pytest.raises(FormError, match="^Gram matrix must be symmetric$"):
        NON_SQUARE_ENTRY_POINTS[entry](gram)


# name -> (call, an integer matrix it takes, whether it takes integers only)
ENTRY_POLICY = {
    "det": (mx.det, A2, False),
    "rank": (lambda m: mx._solve_left_and_rank(m, (0, 0))[1], ((1, 2), (2, 4), (0, 1)), False),
    "inverse": (mx.inverse, A2, False),
    "solve_left": (lambda m: mx._solve_left_and_rank(m, (1, 0))[0], A2, False),
    "invariant_factors": (mx.invariant_factors, ((2, 4), (6, 8), (4, 0)), True),
    "left_kernel_basis": (mx.left_kernel_basis, ((1, 2), (2, 4), (0, 1)), True),
    "cokernel_invariants": (lambda m: cokernel_invariants(m, 2), ((2, 4), (6, 8)), True),
    "dual_gram": (dual_gram, A2, False),
    "size_reduce": (size_reduce, ((2, 3), (3, 5)), False),
    "short_vectors": (lambda m: short_vectors(m, 2), A2, False),
    "box_short_vectors": (lambda m: box_short_vectors(m, 2), A2, False),
    "brute_force_short_vectors": (lambda m: brute_force_short_vectors(m, 2), A2, False),
    "identify_dn_plus": (identify_dn_plus, E8, True),
    "vector_norms": (lambda m: vector_norms(m, ((1, 0), (1, 1))), A2, False),
    "orthogonal_complement": (lambda m: orthogonal_complement(((1, 0),), m), A2, True),
}


def _with_corner(m, x):
    return ((x, *m[0][1:]), *m[1:])


@pytest.mark.parametrize("entry", ENTRY_POLICY)
@pytest.mark.parametrize("bad", [2.0, "2", True, Decimal(2)], ids=["float", "str", "bool", "Decimal"])
def test_entries_must_be_exact_numbers(entry, bad):
    # One gate reads every entry; int() truncated floats and parsed strings.
    call, m, _ = ENTRY_POLICY[entry]
    with pytest.raises(TypeError, match="expected an integer"):
        call(_with_corner(m, bad))


@pytest.mark.parametrize("entry", ENTRY_POLICY)
@pytest.mark.parametrize("kind", [np.int64, Fraction], ids=["int64", "Fraction"])
def test_integral_entries_give_the_int_answer(entry, kind):
    # repr, so that a numpy integer left in the answer would show
    call, m, _ = ENTRY_POLICY[entry]
    assert repr(call(tuple(tuple(map(kind, row)) for row in m))) == repr(call(m))


@pytest.mark.parametrize("entry", [e for e, (_, _, whole) in ENTRY_POLICY.items() if whole])
def test_integer_only_entry_points_refuse_fractions(entry):
    call, m, _ = ENTRY_POLICY[entry]
    half = _with_corner(m, Fraction(1, 2))
    if entry == "identify_dn_plus":
        assert call(half) == LatticeIdentification(None, "Gram matrix is not integral")
    else:
        with pytest.raises(ValueError):
            call(half)


@pytest.mark.parametrize(
    "gram,message",
    [
        (((2, 0), (0, 2, 7)), "Gram matrix must be square"),
        (((2, 1), (0, 2)), "Gram matrix must be symmetric"),
        (((1, 2), (2, 1)), "form is not positive definite"),
        (((1, 1), (1, 1)), "form is not positive definite"),
    ],
    ids=["non-square", "non-symmetric", "indefinite", "singular"],
)
def test_box_radii_refuse_what_the_search_refuses(gram, message):
    calls = [_box_radii, short_vectors]
    if message.startswith("Gram matrix"):
        # _box_radii takes the gate's rows, so the box scan stands in for it;
        # size_reduce needs a square, symmetric form but no definiteness.
        calls = [box_short_vectors, short_vectors, lambda gram, bound: size_reduce(gram)]
    for call in calls:
        with pytest.raises(FormError, match="^%s$" % message):
            call(gram, 2)


BOUND_ENTRY_POINTS = {
    "short_vectors": short_vectors,
    "box_short_vectors": box_short_vectors,
    "brute_force_short_vectors": brute_force_short_vectors,
}


@pytest.mark.parametrize("entry", BOUND_ENTRY_POINTS)
@pytest.mark.parametrize("bound", [2.5, 0.1, -1.0, "2", True, Decimal(2)])
def test_bounds_must_be_exact_numbers(entry, bound):
    with pytest.raises(TypeError, match="expected an integer"):
        BOUND_ENTRY_POINTS[entry](((2,),), bound)


@pytest.mark.parametrize("entry", BOUND_ENTRY_POINTS)
def test_exact_bounds_pass_unchanged(entry):
    call = BOUND_ENTRY_POINTS[entry]
    expected = call(A2, 2)
    assert len(expected) == 6
    for bound in (Fraction(2), np.int64(2), Fraction(5, 2)):
        assert repr(call(A2, bound)) == repr(expected)
    assert call(A2, Fraction(-1, 2)) == ()


def search_with_norms(gram, bound):
    """The vectors of ``lattice._search`` as tuples, each with its norm q / unit."""
    xs, q, unit = lattice._search(gram, bound)
    return tuple(zip(map(tuple, xs.tolist()), (Fraction(x, unit) for x in q.tolist())))


@pytest.mark.parametrize(
    "gram,norm,count",
    [
        (A2, 2, 6),
        (D4, 2, 24),
        (E8, 2, 240),
        (((2,),), 2, 2),
        (mx.identity(4), 1, 8),
    ],
)
def test_short_vectors_counts(gram, norm, count):
    vectors = short_vectors(gram, norm)
    norms = vector_norms(gram, vectors)
    assert sum(1 for x in norms if x == norm) == count
    # the norms read off the search leaves are the exact v G v^T
    assert search_with_norms(gram, norm) == tuple(zip(vectors, norms))
    # closed under negation and sorted
    vs = set(vectors)
    assert all(tuple(-x for x in v) in vs for v in vectors)
    assert tuple(sorted(vectors)) == vectors
    assert all(any(v) for v in vectors)


def test_short_vectors_rational_gram():
    dual, _ = dual_gram(A2)
    # dual of A2 has 6 vectors of norm 2/3 and none of norm < 2/3
    vectors = short_vectors(dual, Fraction(2, 3))
    assert len(vectors) == 6
    assert set(vector_norms(dual, vectors)) == {Fraction(2, 3)}


@pytest.mark.parametrize("vectors", [((1, 0, 0),), ((1,),), ((1, 0), (1,))],
                         ids=["long", "short", "ragged"])
def test_vector_norms_refuses_a_wrong_length(vectors):
    # matmul's "incompatible shapes 1x3 * 2x2" named an internal product
    with pytest.raises(FormError, match="^vectors must match the Gram matrix's size$"):
        vector_norms(A2, vectors)


def test_short_vectors_empty_cases():
    assert short_vectors((), 2) == ()
    assert short_vectors(A2, -1) == ()
    assert short_vectors(A2, 0) == ()


def test_short_vectors_on_lattice_object():
    basis = ((1, 0), (0, 2))
    vectors = short_vectors(mx.matmul(basis, mx.transpose(basis)), 1)
    assert vectors == ((-1, 0), (1, 0))


def test_size_reduce_preserves_lattice():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 5)
        b = None
        while b is None or mx.det(b) == 0:
            b = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        gram = mx.matmul(b, mx.transpose(b))
        reduced, t = size_reduce(gram)
        assert abs(mx.det(t)) == 1
        assert mx.matmul(mx.matmul(t, gram), mx.transpose(t)) == tuple(
            tuple(x for x in row) for row in reduced
        )
        assert mx.det(reduced) == mx.det(gram)
        # same vector counts at a small bound
        bound = min(reduced[i][i] for i in range(n))
        assert len(short_vectors(gram, bound)) == len(short_vectors(reduced, bound))


def test_size_reduce_is_scale_invariant():
    # The loop runs on the Gram matrix scaled to integers, so scaling the
    # input by k > 0 keeps every decision: same transform, k times the Gram.
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 6)
        b = None
        while b is None or mx.det(b) == 0:
            b = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        gram = mx.matmul(b, mx.transpose(b))
        if rng.random() < 0.5:
            gram = tuple(tuple(Fraction(x, rng.randint(1, 6)) for x in row) for row in gram)
            gram = tuple(tuple(gram[max(i, j)][min(i, j)] for j in range(n)) for i in range(n))
        k = rng.choice([rng.randint(2, 9), Fraction(rng.randint(1, 9), rng.randint(2, 9))])
        reduced, t = size_reduce(gram)
        scaled, t_scaled = size_reduce(tuple(tuple(k * x for x in row) for row in gram))
        assert t_scaled == t
        assert scaled == tuple(tuple(k * x for x in row) for row in reduced)
        assert all(type(x) is Fraction for row in scaled for x in row)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 7, -1, -2, -4])
def test_round_quotient_is_round_half_even(b):
    for a in range(-20, 21):
        assert _round_quotient(a, b) == round(Fraction(a, b)), (a, b)


@pytest.mark.parametrize(
    "gram,transform,reduced",
    [
        # <b0, b1> / <b1, b1> = 1/2 rounds to 0: no shear (b0 - b1 would
        # have the same norm 3 anyway).
        (((3, 1), (1, 2)), ((0, 1), (1, 0)), ((2, 1), (1, 3))),
        # 3/2 rounds to 2, then -1/2 to 0: b0 - 2 b1 has norm 3.
        (((7, 3), (3, 2)), ((0, 1), (1, -2)), ((2, -1), (-1, 3))),
    ],
)
def test_size_reduce_rounds_half_to_even(gram, transform, reduced):
    assert size_reduce(gram) == (reduced, transform)


def test_as_integer_gram():
    scaled, s = mx.as_integer_matrix(((Fraction(1, 2), 0), (0, Fraction(1, 3))))
    assert s == 6
    assert scaled == ((3, 0), (0, 2))


@st.composite
def _rational_gram(draw):
    """B B^T / s for a random nonsingular integer B, or the dual of that."""
    n = draw(st.integers(1, 4))
    b = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                 min_size=n, max_size=n)
        .map(lambda rows: tuple(map(tuple, rows)))
        .filter(lambda m: mx.det(m) != 0)
    )
    s = draw(st.integers(1, 4))
    gram = tuple(tuple(Fraction(x, s) for x in row)
                 for row in mx.matmul(b, mx.transpose(b)))
    if draw(st.booleans()):
        gram, _ = dual_gram(gram)
    return gram


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_rational_gram(), st.fractions(0, 3, max_denominator=4))
def test_short_vectors_match_box_oracle(gram, bound):
    found = search_with_norms(gram, bound)
    vectors = tuple(v for v, _ in found)
    assert vectors == box_short_vectors(gram, bound)
    assert tuple(nv for _, nv in found) == vector_norms(gram, vectors)
    assert all(0 < nv <= bound for _, nv in found)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_rational_gram(), st.fractions(0, 3, max_denominator=4), st.booleans())
def test_search_norms_are_the_vector_norms(gram, bound, wide):
    # Row by row, q / unit is v G v^T: on int64 arrays, and on Python
    # integers when the guard's limit 0 widens the search from the start.
    with mock.patch.object(lattice, "_INT64_LIMIT", 0 if wide else 1 << 62):
        xs, q, unit = lattice._search(gram, bound)
    assert xs.dtype == q.dtype == (object if wide else np.int64)
    norms = tuple(Fraction(x, unit) for x in q.tolist())
    assert norms == vector_norms(gram, xs.tolist())


def shear_above(gram, k):
    """U G U^T for U = I + k (sum of e_{i, i+1}): row i += k row i+1."""
    n = len(gram)
    u = [[1 if j == i else k if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    return mx.matmul(mx.matmul(u, gram), mx.transpose(u))


def test_search_refuses_a_level_it_cannot_count():
    # E_8 in the basis U = I + 1000 (superdiagonal): the first level's
    # range of x_7 has more values than an array index can count, which
    # raised a bare OverflowError; a reduced basis of the same lattice
    # searches as usual.
    sheared = shear_above(E8, 1000)
    message = "level 7 of the search admits 2^63 or more values of x_7; reduce the basis first"
    with pytest.raises(ConfigurationError, match="^%s$" % re.escape(message)):
        short_vectors(sheared, 2)
    assert identify_dn_plus(sheared) == LatticeIdentification(None, message)
    reduced, _ = size_reduce(sheared)
    assert len(short_vectors(reduced, 2)) == 240
    assert identify_dn_plus(reduced) == LatticeIdentification(
        "D_8^+ = E_8", "240 roots spanning everything")


def _leading_minors(m):
    return [determinant_by_expansion([row[:k] for row in m[:k]])
            for k in range(1, len(m) + 1)]


SEARCHES = (ldl, lambda gram: short_vectors(gram, 2))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)),
    st.integers(-2, 6))
def test_search_rejects_exactly_the_non_definite_forms(rows, shift):
    # the upper triangle of ``rows`` plus ``shift`` on the diagonal: definite,
    # indefinite and degenerate forms all occur
    n = len(rows)
    sym = tuple(tuple(rows[min(i, j)][max(i, j)] + shift * (i == j) for j in range(n))
                for i in range(n))
    minors = _leading_minors(sym)
    if all(m > 0 for m in minors):  # Sylvester's criterion
        d, _ = ldl(sym)
        assert d == tuple(Fraction(b, a) for a, b in zip([1] + minors, minors))
        short_vectors(sym, 2)
    else:
        for search in SEARCHES:
            with pytest.raises(FormError, match="^form is not positive definite$"):
                search(sym)
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        for search in SEARCHES:
            with pytest.raises(FormError, match="^Gram matrix must be symmetric$"):
                search(tuple(map(tuple, rows)))


def _random_gram(rng, n):
    """B B^T for a random nonsingular B near 2 I: as it is, over s, or its dual times s."""
    b = None
    while b is None or mx.det(b) == 0:
        b = tuple(tuple(rng.randint(-1, 1) + 2 * (i == j) for j in range(n)) for i in range(n))
    gram = mx.matmul(b, mx.transpose(b))
    kind, s = rng.randrange(3), rng.randint(2, 5)
    if kind == 1:
        gram = tuple(tuple(Fraction(x, s) for x in row) for row in gram)
    elif kind == 2:
        gram = tuple(tuple(s * x for x in row) for row in dual_gram(gram)[0])
    return gram


def _search_recording_guard(monkeypatch, gram, bound, limit=1 << 62, wide_from=None):
    """search_with_norms with the int64 guard's limit set to ``limit``
    (and its verdict forced to "reject" from the level ``wide_from`` on),
    and the value of every guard the search consulted."""
    reaches = []
    real = lattice._level_reach

    def record(*args):
        reaches.append(real(*args))
        if len(reaches) - 1 == wide_from:
            return limit
        return reaches[-1]

    with monkeypatch.context() as m:
        m.setattr(lattice, "_level_reach", record)
        m.setattr(lattice, "_INT64_LIMIT", limit)
        found = search_with_norms(gram, bound)
    assert all(type(x) is int for v, _ in found for x in v)
    assert tuple(nv for _, nv in found) == vector_norms(gram, [v for v, _ in found])
    return found, reaches


def test_search_matches_box_oracle_at_every_limit(monkeypatch):
    # Every level in int64 (the real limit), every level on Python integers
    # (limit 0), and a switch from int64 to Python integers partway down.
    rng = random.Random(41)
    for _ in range(40):
        n, bound = rng.randint(1, 7), rng.randint(1, 8)
        gram = _random_gram(rng, n)
        box = brute_force_short_vectors(gram, bound)
        found, reaches = _search_recording_guard(monkeypatch, gram, bound)
        assert tuple(v for v, _ in found) == box == short_vectors(gram, bound)
        assert all(0 < nv <= bound for _, nv in found)
        assert _search_recording_guard(monkeypatch, gram, bound, limit=0) == (found, [])
        if reaches:
            wide_from = rng.randrange(len(reaches))
            got, seen = _search_recording_guard(monkeypatch, gram, bound, wide_from=wide_from)
            assert (got, seen) == (found, reaches[:wide_from + 1])


def test_search_keeps_coordinates_beyond_int64():
    # b_0 = e_0, b_1 = K e_0 + e_1: the vectors of norm 1 are +-b_0 and
    # +-(b_1 - K b_0), whose coordinate K does not fit in int64.
    k = 1 << 70
    gram = ((1, k), (k, k * k + 1))
    found = search_with_norms(gram, 1)
    assert found == (((-k, 1), 1), ((-1, 0), 1), ((1, 0), 1), ((k, -1), 1))
    assert all(type(x) is int for v, _ in found for x in v)


def test_search_bounds_partial_sums_by_the_coordinates(monkeypatch):
    # Rows b_i = K e_{i-1} + e_i: every N_ij is 0 or K = 2^21, far inside
    # int64, but the vectors of norm 1, +-e_j B^-1, have coordinates up to
    # K^3 = 2^63, so the centre sums of the last level need Python integers.
    k, n = 1 << 21, 4
    b = tuple(tuple(1 if j == i else k if j == i - 1 else 0 for j in range(n)) for i in range(n))
    gram = mx.matmul(b, mx.transpose(b))
    rows = mx.inverse(b)
    expected = sorted(tuple(int(sign * x) for x in row) for row in rows for sign in (1, -1))
    found, reaches = _search_recording_guard(monkeypatch, gram, 1)
    assert tuple(v for v, _ in found) == tuple(expected)
    assert max(abs(x) for v in expected for x in v) == k ** 3
    # int64 down to level 1, Python integers at level 0
    assert len(reaches) == n and max(reaches[:-1]) < 1 << 62 <= reaches[-1]


@pytest.mark.parametrize("k", [1 << 27, (1 << 27) + 1, 3037000499, 3037000500, 1 << 32])
def test_search_square_root_at_float_rounding(monkeypatch, k):
    # ((k, 1), (1, k + 1)): the gcd of level 0's row (k, 1) is 1, so its
    # pivot stays k, its weight is 1/k and the unit is k.  At bound
    # (k^2 - 1) / k the budget is k^2 - 1, level 1 admits only x_1 = 0, and
    # level 0 takes the root of k^2 - 1, whose float64 root rounds to k:
    # x = +-(1, 0) (norm k) lies just outside the bound.  The last three
    # put the budget between 2^62 and 2^63, just above 2^63 and just below
    # 2^64.
    gram = ((k, 1), (1, k + 1))
    roots = []
    for name in ("_isqrt", "_isqrt64"):
        root = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda q, root=root: roots.append(int(q.max())) or root(q))
    assert short_vectors(gram, Fraction(k * k - 1, k)) == ()
    assert max(roots) == k * k - 1
    assert lattice._search(gram, Fraction(k * k - 1, k))[2] == k
    assert search_with_norms(gram, k) == (((-1, 0), k), ((1, 0), k))


def test_survey_shaped_search_stays_in_int64():
    # The shape of a rank-8 dual Gram matrix of the survey workload: the
    # gcds and the lowest terms cancel the powers of the scale that its
    # minors carry, so its budget at bound 2 fits in int64.
    gram = [[Fraction(1 + (i == j)) for j in range(8)] for i in range(8)]
    for j in range(1, 8):
        gram[0][j] = gram[j][0] = Fraction(7)
    gram[0][0], gram[6][6] = Fraction(46), Fraction(10, 9)
    # at bound 2 the budget is 2 unit
    assert 2 * lattice._search(gram, 2)[2] < 1 << 62
    found = search_with_norms(gram, 2)
    vectors = tuple(v for v, _ in found)
    assert len(vectors) == 400
    assert vectors == brute_force_short_vectors(gram, 2)
    assert tuple(nv for _, nv in found) == vector_norms(gram, vectors)


def test_search_with_a_budget_beyond_int64():
    # Weights (p+1)/p and (q+1)/q with coprime denominators near 2^61 and
    # 2^31: the budget 2 * lcm(p, q) is 93 bits, so the search starts on
    # Python integers.
    p, q = (1 << 61) - 1, (1 << 31) - 1
    gram = ((Fraction(p + 1, p), 0), (0, Fraction(q + 1, q)))
    _, scaled_norms, unit = lattice._search(gram, 2)
    assert (2 * unit).bit_length() == 93 and scaled_norms.dtype == object
    found = search_with_norms(gram, 2)
    vectors = tuple(v for v, _ in found)
    assert vectors == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert vectors == brute_force_short_vectors(gram, 2)
    assert tuple(nv for _, nv in found) == vector_norms(gram, vectors)


def test_search_builds_no_fraction(monkeypatch):
    built = []
    monkeypatch.setattr(lattice, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    vectors = short_vectors(E8, 4)
    assert len(vectors) == 240 + 2160 and not built  # an int bound stays an int
    xs, q, unit = lattice._search(E8, 4)
    assert tuple(map(tuple, xs.tolist())) == vectors
    assert sorted(set(q.tolist())) == [2 * unit, 4 * unit] and not built

"""Integer lattices: quotients, complements, LDL, short vectors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import matrices as mx
from mwlattice.boxenum import box_short_vectors
from mwlattice.errors import FormError
from mwlattice.lattice import (
    AbelianGroupInvariants,
    IntegerLattice,
    as_integer_gram,
    cokernel_invariants,
    dual_gram,
    gram_matrix,
    ldl,
    orthogonal_complement,
    short_vectors,
    short_vectors_with_norms,
    size_reduce,
    vector_norms,
)
from mwlattice.oracles import determinant_by_expansion

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
    assert AbelianGroupInvariants(0, (5,)).order == 5
    assert AbelianGroupInvariants(1, ()).order is None


def test_group_invariants_validation():
    with pytest.raises(ValueError):
        AbelianGroupInvariants(-1, ())
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (4, 2))  # must divide successively


def test_cokernel_invariants():
    g = cokernel_invariants(((2, 0), (0, 3)), 2)
    assert (g.free_rank, g.torsion) == (0, (6,))
    g = cokernel_invariants(((1, 0, 0),), 3)
    assert (g.free_rank, g.torsion) == (2, ())
    g = cokernel_invariants(((2, 2),), 2)
    assert (g.free_rank, g.torsion) == (1, (2,))
    g = cokernel_invariants((), 4)
    assert (g.free_rank, g.torsion) == (4, ())


def test_integer_lattice_basic():
    form = ((1, 0), (0, 1))
    lat = IntegerLattice(((1, 1),), form)
    assert lat.rank == 1
    assert lat.ambient_rank == 2
    assert lat.gram() == ((2,),)
    assert lat.determinant() == 2
    assert lat.norm((3,)) == 18
    with pytest.raises(FormError):
        IntegerLattice(((1, 1), (2, 2)), form)
    with pytest.raises(FormError):
        IntegerLattice((), ((0, 1), (2, 0)))


def test_orthogonal_complement_hyperbolic():
    # ambient form with a hyperbolic plane and one (-1) vector
    form = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    sub = IntegerLattice(((1, 0, 0),), form)
    comp = orthogonal_complement(sub)
    # x.(1,0,0) = x_2 = 0 under this form
    assert comp.rank == 2
    for row in comp.basis:
        assert gram_matrix(form, (row, (1, 0, 0)))[0][1] == 0


def test_dual_gram():
    dual, d = dual_gram(A2)
    assert d == 3
    assert dual == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    with pytest.raises(FormError):
        dual_gram(((1, 1), (1, 1)))


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
    assert short_vectors_with_norms(gram, norm) == tuple(zip(vectors, norms))
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


def test_short_vectors_empty_cases():
    assert short_vectors((), 2) == ()
    assert short_vectors(A2, -1) == ()
    assert short_vectors(A2, 0) == ()


def test_short_vectors_on_lattice_object():
    lat = IntegerLattice(((1, 0), (0, 2)), mx.identity(2))
    vectors = short_vectors(lat, 1)
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


def test_as_integer_gram():
    scaled, s = as_integer_gram(((Fraction(1, 2), 0), (0, Fraction(1, 3))))
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
    found = short_vectors_with_norms(gram, bound)
    vectors = tuple(v for v, _ in found)
    assert vectors == box_short_vectors(gram, bound)
    assert tuple(nv for _, nv in found) == vector_norms(gram, vectors)
    assert all(0 < nv <= bound for _, nv in found)


def _leading_minors(m):
    return [determinant_by_expansion([row[:k] for row in m[:k]])
            for k in range(1, len(m) + 1)]


SEARCHES = (ldl, lambda gram: short_vectors_with_norms(gram, 2))


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
        short_vectors_with_norms(sym, 2)
    else:
        for search in SEARCHES:
            with pytest.raises(FormError, match="^form is not positive definite$"):
                search(sym)
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        for search in SEARCHES:
            with pytest.raises(FormError, match="^Gram matrix must be symmetric$"):
                search(tuple(map(tuple, rows)))

"""Integer lattices with a fixed ambient bilinear form.

An :class:`IntegerLattice` is a free subgroup of Z^N given by basis rows,
together with the Gram matrix of the ambient form.  Everything is exact:
determinants are integers or rationals, short vectors come from an
integer Fincke-Pohst search, and quotient groups are read off Smith normal
forms.

The search scales a rational Gram matrix to integers, s G, once and factors
it fraction-free (Bareiss): the leading principal minors D_0 = 1, D_1, ...,
D_n and integer numerators N_ij give the LDL data d_i = D_{i+1} / D_i and
r_ij = N_ij / D_{i+1}, with N_ii = D_{i+1}.  Each level divides its row by
g_i = gcd_j N_ij, giving piv_i = D_{i+1} / g_i and row_ij = N_ij / g_i, and
puts its weight g_i^2 / (D_i D_{i+1} s) in lowest terms u_i / v_i; with
L = lcm_i(v_i),

    L * x G x^T = sum_i c_i (x_i piv_i + sum_{j>i} row_ij x_j)^2,
    c_i = u_i L / v_i,

a sum of integer squares with integer weights.  The minors of s G carry
powers of s that the gcds and the lowest terms cancel, so the budget
L * bound of a rational dual Gram matrix stays small.  The search then
needs only integer square roots.  It runs level by level, i = n-1 down to 0, on a frontier of
partial vectors (x_{i+1}, ..., x_{n-1}) and their remaining integer
budgets: one array step per level gives each partial vector its admissible
x_i and so builds the next frontier.  The arrays are int64 while a guard,
worked out in exact integers before each level from the level data, the
budget and the frontier's largest coordinates, proves that no intermediate
of that level reaches 2^62; from the first level it cannot, the same loop
runs on Python integers, as for the norm-1 vectors (+-2^70, -+1) of
((1, 2^70), (2^70, 2^140 + 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import matrices as mx
from .errors import FormError

_INT64_LIMIT = 1 << 62
_isqrt = np.frompyfunc(math.isqrt, 1, 1)


def _isqrt64(q):
    """floor(sqrt(q)) of an int64 array whose entries are below 2^62.

    Rounding to float64 and the square root are monotone and correctly
    rounded, and sqrt(float(k^2)) = k for every k < 2^31; so the float root
    of q is never below the true root k and, as q < (k + 1)^2, at most k + 1.
    One step down corrects it.
    """
    m = np.sqrt(q).astype(np.int64)
    m -= m * m > q
    return m


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Finitely generated abelian group Z^free_rank + sum Z/torsion_i."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "free_rank", mx._integer(self.free_rank))
        object.__setattr__(self, "torsion", tuple(map(mx._integer, self.torsion)))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for t in self.torsion:
            if t <= 1:
                raise ValueError("torsion invariant must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must divide successively")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        result = 1
        for t in self.torsion:
            result *= t
        return result

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class IntegerLattice:
    """Sublattice of Z^N spanned by ``basis`` rows, with ambient Gram ``form``."""

    basis: mx.IntMatrix
    form: mx.IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "basis", mx.int_matrix(self.basis))
        object.__setattr__(self, "form", mx.int_matrix(self.form))
        n = len(self.form)
        if any(len(row) != n for row in self.form):
            raise FormError("ambient form must be square")
        for i in range(n):
            for j in range(i):
                if self.form[i][j] != self.form[j][i]:
                    raise FormError("ambient form must be symmetric")
        for row in self.basis:
            if len(row) != n:
                raise FormError("basis rows must match the ambient rank")
        if self.basis and mx.rank(self.basis) != len(self.basis):
            raise FormError("basis rows are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def ambient_rank(self) -> int:
        return len(self.form)

    def gram(self) -> mx.IntMatrix:
        return gram_matrix(self.form, self.basis)

    def determinant(self):
        return mx.det(self.gram())


def gram_matrix(form: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]):
    """Gram matrix B F B^T of the given integer rows under the integer form."""
    rows = mx.int_matrix(rows)
    if not rows:
        return ()
    return mx.matmul(mx.matmul(rows, mx.int_matrix(form)), mx.transpose(rows))


def cokernel_invariants(rows: Sequence[Sequence[int]], ambient_rank: int) -> AbelianGroupInvariants:
    """Invariants of Z^ambient_rank modulo the subgroup generated by ``rows``."""
    rows = mx.mat(rows)
    for row in rows:
        if len(row) != ambient_rank:
            raise ValueError("row length does not match ambient rank")
    return _group_from_factors(ambient_rank, mx.invariant_factors(rows))


def _group_from_factors(ambient_rank: int, factors: Sequence[int]) -> AbelianGroupInvariants:
    """Z^ambient_rank modulo a subgroup with the given invariant factors."""
    torsion = tuple(f for f in factors if f > 1)
    return AbelianGroupInvariants(ambient_rank - len(factors), torsion)


def orthogonal_complement(sub: IntegerLattice) -> IntegerLattice:
    """Saturated sublattice of Z^N orthogonal to ``sub`` under its form."""
    if sub.rank == 0:
        return IntegerLattice(mx.identity(sub.ambient_rank), sub.form)
    constraint = mx.matmul(sub.form, mx.transpose(sub.basis))
    kernel = mx.left_kernel_basis(constraint)
    return IntegerLattice(kernel, sub.form)


def dual_gram(gram: Sequence[Sequence]):
    """Gram matrix of the dual basis and |det| of the original Gram."""
    _check_square(gram)
    try:
        inv, d = mx._inverse_and_det(gram)
    except ValueError as exc:
        raise FormError("degenerate Gram matrix") from exc
    return inv, abs(d)


def _check_square(gram) -> None:
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise FormError("Gram matrix must be square")


def _bareiss_ldl(igram: mx.IntMatrix) -> tuple[tuple[int, ...], list[list[int]]]:
    """Fraction-free LDL data of a positive definite integer Gram matrix.

    Returns (D, N): the leading principal minors D[0] = 1, ..., D[n] and the
    rows N[i][j] (j >= i) of the Bareiss elimination, with N[i][i] = D[i+1].
    Raises FormError when the form is not square, symmetric and positive
    definite.
    """
    _check_square(igram)
    n = len(igram)
    for i in range(n):
        for j in range(i):
            if igram[i][j] != igram[j][i]:
                raise FormError("Gram matrix must be symmetric")
    a = [list(row) for row in igram]
    minors = [1]
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            raise FormError("form is not positive definite")
        prev = minors[-1]
        row_k = a[k]
        for i in range(k + 1, n):
            f = row_k[i]
            row_i = a[i]
            for j in range(i, n):
                row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
        minors.append(p)
    return tuple(minors), a


def ldl(gram: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], mx.Matrix]:
    """Exact LDL data of a positive definite Gram matrix.

    Returns (d, r) with Q(x) = sum_i d_i (x_i + sum_{j>i} r_ij x_j)^2.
    This is the rational view of the fraction-free factorisation the
    short-vector search runs on.  Raises FormError when the form is not
    square, symmetric and positive definite.
    """
    igram, scale = mx.as_integer_matrix(gram)
    minors, num = _bareiss_ldl(igram)
    n = len(igram)
    d = tuple(Fraction(minors[i + 1], minors[i] * scale) for i in range(n))
    r = tuple(
        tuple(Fraction(num[i][j], minors[i + 1]) if j > i else Fraction(0)
              for j in range(n))
        for i in range(n)
    )
    return d, r


def short_vectors_with_norms(gram, bound) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """All nonzero vectors of norm <= bound, each paired with its norm.

    ``gram`` is a positive definite Gram matrix (integer or rational
    entries).  Pairs are sorted lexicographically by vector and closed
    under negation.  The level-wise Fincke-Pohst search
    (see the module docstring) runs in int64 while its guard proves that
    no intermediate reaches 2^62, and on Python integers from the first
    level where it cannot; a vector's remaining budget gives ``v G v^T``
    exactly, so each norm comes free with its vector, as one Fraction per
    distinct norm.
    Raises FormError when the form is not square, symmetric and positive
    definite.
    """
    vectors, remaining, top, unit = _search(gram, bound)
    norms = {r: Fraction(top - r, unit) for r in set(remaining)}
    return tuple(zip(vectors, map(norms.__getitem__, remaining)))


def short_vectors(gram, bound) -> tuple[tuple[int, ...], ...]:
    """All nonzero vectors of norm <= bound, in basis coordinates.

    Same search and order as :func:`short_vectors_with_norms`, vectors
    only: no norm is built.
    """
    return _search(gram, bound)[0]


def _search(gram, bound):
    """Level-wise Fincke-Pohst search for the nonzero vectors of norm <= bound.

    Returns (vectors, remaining, top, unit): the vectors as sorted tuples of
    Python integers, the remaining integer budget of each, and the integers
    with norm(v) = (top - remaining) / unit.
    """
    _check_square(gram)
    bound = mx._exact(bound)
    n = len(gram)
    if n == 0 or bound < 0:
        return (), [], 0, 1
    igram, scale = mx.as_integer_matrix(gram)
    minors, num = _bareiss_ldl(igram)
    # Level i keeps t_i = sum_{j>=i} N_ij x_j / g_i, g_i the gcd of its row,
    # with the weight u_i / v_i = g_i^2 / (D_i D_{i+1} scale) in lowest terms.
    levels = []
    for i in range(n):
        g = math.gcd(*num[i][i:])
        u, v = g * g, minors[i] * minors[i + 1] * scale
        k = math.gcd(u, v)
        levels.append((u // k, v // k, [x // g for x in num[i][i:]]))
    unit = math.lcm(*(v for _, v, _ in levels))
    # x G x^T <= bound  <=>  sum_i c_i t_i^2 <= top, both sides integers.
    top = bound.numerator * unit // bound.denominator
    # The frontier: one row of ``xs`` per partial vector (x_{i+1}, ...,
    # x_{n-1} set, the rest 0) and its remaining budget.  It widens to
    # Python integers, for good, at the first level its guard rejects.
    wide = top >= _INT64_LIMIT
    xs = np.zeros((1, n), dtype=object if wide else np.int64)
    rem = np.array([top], dtype=xs.dtype)
    colmax: list[int] = []  # max |x_j| for j > i, as column j was set
    for i in range(n - 1, -1, -1):
        u, v, (piv, *row) = levels[i]
        ci = u * (unit // v)
        if not wide and _level_reach(top, ci, piv, row, colmax) >= _INT64_LIMIT:
            wide = True
            xs, rem = xs.astype(object), rem.astype(object)
        s = xs[:, i + 1:] @ np.array(row, dtype=xs.dtype)
        # |t_i| = |x_i piv_i + s| <= m  with  m = floor(sqrt(rem / c_i)).
        m = (_isqrt if wide else _isqrt64)(rem // ci)
        lo = -((m + s) // piv)
        counts = ((m - s) // piv + 1 - lo).astype(np.intp)
        # Row k has the children x_i = lo_k, lo_k + 1, ...: new row j, in
        # the block of its parent k that starts at start_k, has
        # x_i = lo_k + j - start_k.
        parent = np.repeat(np.arange(len(xs)), counts)
        xi = np.arange(len(parent)) + (lo - (np.cumsum(counts) - counts))[parent]
        t = xi * piv + s[parent]
        rem = rem[parent] - ci * t * t
        xs = xs[parent]
        xs[:, i] = xi
        colmax.insert(0, int(abs(xi).max()))
    nonzero = xs.any(axis=1)
    xs, rem = xs[nonzero], rem[nonzero]
    # For distinct integer rows, lexsort on the columns (the first one
    # primary) is tuple order.
    order = np.lexsort(xs.T[::-1])
    return tuple(map(tuple, xs[order].tolist())), rem[order].tolist(), top, unit


def _level_reach(top, ci, piv, row, colmax) -> int:
    """Bound on every magnitude one int64 level of the search computes.

    ``colmax`` bounds the frontier's set coordinates |x_j| and ``row``
    holds the row_ij (j > i) they meet.  With S = sum_j colmax_j |row_ij|
    and M = isqrt(top // c_i): |s| and its partial sums are <= S, m <= M,
    |m +- s| and |x_i piv_i| <= M + S, |t| <= M, |c_i t| <= c_i M,
    c_i t^2 and every budget are <= top, and piv_i, c_i and row_ij are
    operands themselves.  Below the limit 2^62, a sum of two such terms,
    as in the child count hi + 1 - lo, still fits in int64.
    """
    s = sum(a * abs(b) for a, b in zip(colmax, row))
    m = math.isqrt(top // ci)
    return max(top, piv, ci * max(m, 1), max(map(abs, row), default=0), m + s)


def vector_norms(gram, vectors):
    """The norms v G v^T of integer vectors: ints for an integral Gram
    matrix, Fractions for a rational one."""
    igram, scale = mx.as_integer_matrix(gram)
    norms = (sum(x * y for x, y in zip(v, mx.mat_vec(igram, v))) for v in mx.int_matrix(vectors))
    if scale == 1:
        return tuple(norms)
    return tuple(Fraction(q, scale) for q in norms)


def size_reduce(gram):
    """Greedy pairwise reduction of a symmetric Gram matrix.

    Returns (reduced_gram, transform) with transform unimodular and
    reduced = T G T^t.  This is plain integer size reduction (subtract
    rounded projections, reorder by norm); it changes the basis but not the
    lattice, so vector counts are preserved.  No floating point involved.

    The loop runs on the Gram matrix scaled to integers: every decision it
    takes (a quotient rounded half to even, a comparison of norms, an order
    by norm) is the same for s G as for G, so only the reduced Gram matrix
    is divided by the scale s at the end.
    """
    _check_square(gram)
    igram, scale = mx.as_integer_matrix(gram)
    g = [list(row) for row in igram]
    n = len(g)
    t = [list(row) for row in mx.identity(n)]

    for _ in range(1000):
        changed = False
        order = sorted(range(n), key=lambda i: (g[i][i], i))
        for i in order:
            for j in order:
                if i == j or g[j][j] == 0:
                    continue
                q = _round_quotient(g[i][j], g[j][j])
                # basis_i <- basis_i - q * basis_j changes g_ii by
                # q (q g_jj - 2 g_ij); only a shear that shrinks it is made.
                # (For q != 0 the change is never 0: that would need
                # g_ij / g_jj = q / 2, and q / 2 does not round to q.)
                if q * (q * g[j][j] - 2 * g[i][j]) >= 0:
                    continue
                t[i] = [a - q * b for a, b in zip(t[i], t[j])]
                g[i] = [a - q * b for a, b in zip(g[i], g[j])]
                for row in g:
                    row[i] -= q * row[j]
                changed = True
        if not changed:
            break
    perm = sorted(range(n), key=lambda i: (g[i][i], i))
    g2 = tuple(tuple(Fraction(g[p][qq], scale) for qq in perm) for p in perm)
    t2 = tuple(tuple(t[p]) for p in perm)
    return g2, t2


def _round_quotient(a: int, b: int) -> int:
    """round(a / b) for integers b != 0, half to even, as for a Fraction."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q

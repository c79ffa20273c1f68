"""Integer lattices with a fixed ambient bilinear form.

An :class:`IntegerLattice` is a free subgroup of Z^N given by basis rows,
together with the Gram matrix of the ambient form.  Everything is exact:
determinants are integers or rationals, short vectors come from a
Fincke-Pohst search run on Python integers, and quotient groups are read
off Smith normal forms.

The search scales a rational Gram matrix to integers once and factors it
fraction-free (Bareiss): the leading principal minors D_0 = 1, D_1, ..., D_n
and integer numerators N_ij give the LDL data d_i = D_{i+1} / D_i and
r_ij = N_ij / D_{i+1}, so that with L = lcm_i(D_i D_{i+1})

    L * x G x^T = sum_i c_i (x_i D_{i+1} + sum_{j>i} N_ij x_j)^2,
    c_i = L / (D_i D_{i+1}),

a sum of integer squares with integer weights.  The recursion then needs
only integer square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import matrices as mx
from .matrices import as_integer_matrix as as_integer_gram
from .errors import FormError


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Finitely generated abelian group Z^free_rank + sum Z/torsion_i."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
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
        object.__setattr__(self, "basis", mx.mat(self.basis))
        object.__setattr__(self, "form", mx.mat(self.form))
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

    def inner(self, u: Sequence[int], v: Sequence[int]):
        """Form value of two vectors given in basis coordinates."""
        g = self.gram()
        return sum(u[i] * g[i][j] * v[j] for i in range(self.rank) for j in range(self.rank))

    def norm(self, v: Sequence[int]):
        return self.inner(v, v)


def gram_matrix(form: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]):
    """Gram matrix B F B^T of the given rows under the ambient form."""
    if not rows:
        return ()
    return mx.matmul(mx.matmul(rows, form), mx.transpose(rows))


def cokernel_invariants(rows: Sequence[Sequence[int]], ambient_rank: int) -> AbelianGroupInvariants:
    """Invariants of Z^ambient_rank modulo the subgroup generated by ``rows``."""
    rows = mx.mat(rows)
    for row in rows:
        if len(row) != ambient_rank:
            raise ValueError("row length does not match ambient rank")
    if not rows:
        return AbelianGroupInvariants(ambient_rank, ())
    factors = mx.invariant_factors(rows)
    free = ambient_rank - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return AbelianGroupInvariants(free, torsion)


def orthogonal_complement(sub: IntegerLattice) -> IntegerLattice:
    """Saturated sublattice of Z^N orthogonal to ``sub`` under its form."""
    if sub.rank == 0:
        return IntegerLattice(mx.identity(sub.ambient_rank), sub.form)
    constraint = mx.matmul(sub.form, mx.transpose(sub.basis))
    kernel = mx.left_kernel_basis(constraint)
    return IntegerLattice(kernel, sub.form)


def dual_gram(gram: Sequence[Sequence]):
    """Gram matrix of the dual basis and |det| of the original Gram."""
    try:
        inv = mx.inverse(gram)
    except ValueError as exc:
        raise FormError("degenerate Gram matrix") from exc
    return inv, abs(mx.det(gram))


def _bareiss_ldl(igram: mx.IntMatrix) -> tuple[tuple[int, ...], list[list[int]]]:
    """Fraction-free LDL data of a positive definite integer Gram matrix.

    Returns (D, N): the leading principal minors D[0] = 1, ..., D[n] and the
    rows N[i][j] (j >= i) of the Bareiss elimination, with N[i][i] = D[i+1].
    Raises FormError when the form is not symmetric positive definite.
    """
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
    positive definite.
    """
    igram, scale = as_integer_gram(gram)
    minors, num = _bareiss_ldl(igram)
    n = len(igram)
    d = tuple(Fraction(minors[i + 1], minors[i] * scale) for i in range(n))
    r = tuple(
        tuple(Fraction(num[i][j], minors[i + 1]) if j > i else Fraction(0)
              for j in range(n))
        for i in range(n)
    )
    return d, r


def short_vectors_with_norms(obj, bound) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """All nonzero vectors of norm <= bound, each paired with its norm.

    ``obj`` may be an IntegerLattice or a positive definite Gram matrix
    (integer or rational entries).  Pairs are sorted lexicographically by
    vector and closed under negation.  The Fincke-Pohst recursion runs on
    integers only (see the module docstring); the leaf's remaining budget
    gives ``v G v^T`` exactly, so each norm comes free with its vector.
    Raises FormError when the form is not positive definite.
    """
    gram = obj.gram() if isinstance(obj, IntegerLattice) else mx.mat(obj)
    bound = Fraction(bound)
    n = len(gram)
    if n == 0 or bound < 0:
        return ()
    igram, scale = as_integer_gram(gram)
    minors, num = _bareiss_ldl(igram)
    weight = math.lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    c = [weight // (minors[i] * minors[i + 1]) for i in range(n)]
    # x G x^T <= bound  <=>  weight * x igram x^T <= top, both sides integers.
    unit = weight * scale
    top = bound.numerator * unit // bound.denominator
    results: list[tuple[tuple[int, ...], Fraction]] = []
    x = [0] * n

    def descend(i: int, remaining: int):
        if i < 0:
            if any(x):
                results.append((tuple(x), Fraction(top - remaining, unit)))
            return
        row = num[i]
        s = 0
        for j in range(i + 1, n):
            if x[j]:
                s += row[j] * x[j]
        ci, piv = c[i], minors[i + 1]
        # |x_i D_{i+1} + s| <= m  with  m = floor(sqrt(remaining / c_i)).
        m = math.isqrt(remaining // ci)
        for xi in range(-((m + s) // piv), (m - s) // piv + 1):
            x[i] = xi
            t = xi * piv + s
            descend(i - 1, remaining - ci * t * t)
        x[i] = 0

    descend(n - 1, top)
    return tuple(sorted(results))


def short_vectors(obj, bound) -> tuple[tuple[int, ...], ...]:
    """All nonzero vectors of norm <= bound, in basis coordinates.

    Same search and order as :func:`short_vectors_with_norms`, vectors only.
    """
    return tuple(v for v, _ in short_vectors_with_norms(obj, bound))


def vector_norms(gram, vectors):
    g = mx.mat(gram)
    out = []
    for v in vectors:
        out.append(sum(v[i] * g[i][j] * v[j] for i in range(len(v)) for j in range(len(v))))
    return tuple(out)


def size_reduce(gram):
    """Greedy pairwise reduction of a Gram matrix.

    Returns (reduced_gram, transform) with transform unimodular and
    reduced = T G T^t.  This is plain integer size reduction (subtract
    rounded projections, reorder by norm); it changes the basis but not the
    lattice, so vector counts are preserved.  No floating point involved.
    """
    g = [[Fraction(x) for x in row] for row in gram]
    n = len(g)
    t = [list(row) for row in mx.identity(n)]

    def apply_shear(i, j, q):
        # basis_i <- basis_i - q * basis_j
        for k in range(n):
            t[i][k] -= q * t[j][k]
        for k in range(n):
            g[i][k] -= q * g[j][k]
        for k in range(n):
            g[k][i] -= q * g[k][j]

    for _ in range(1000):
        changed = False
        order = sorted(range(n), key=lambda i: (g[i][i], i))
        for i in order:
            for j in order:
                if i == j or g[j][j] == 0:
                    continue
                q = round(g[i][j] / g[j][j])
                if q != 0:
                    before = g[i][i]
                    apply_shear(i, j, q)
                    if g[i][i] < before:
                        changed = True
                    elif g[i][i] > before:
                        apply_shear(i, j, -q)  # undo, would grow the basis
        if not changed:
            break
    perm = sorted(range(n), key=lambda i: (g[i][i], i))
    g2 = tuple(tuple(g[p][qq] for qq in perm) for p in perm)
    t2 = tuple(tuple(t[p][k] for k in range(n)) for p in perm)
    return g2, t2

"""Integer lattices with a fixed ambient bilinear form.

An :class:`IntegerLattice` is a free subgroup of Z^N given by basis rows,
together with the Gram matrix of the ambient form.  Everything is exact:
determinants are integers or rationals, short vectors come from a
Fincke-Pohst search driven by an exact rational LDL decomposition, and
quotient groups are read off Smith normal forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import matrices as mx
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


def saturate(sub: IntegerLattice) -> tuple[IntegerLattice, AbelianGroupInvariants]:
    """Saturation of a sublattice and the finite quotient saturation/sublattice."""
    basis = mx.saturation_basis(sub.basis)
    factors = mx.invariant_factors(sub.basis)
    torsion = tuple(f for f in factors if f > 1)
    return IntegerLattice(basis, sub.form), AbelianGroupInvariants(0, torsion)


def dual_gram(gram: Sequence[Sequence]):
    """Gram matrix of the dual basis and |det| of the original Gram."""
    try:
        inv = mx.inverse(gram)
    except ValueError as exc:
        raise FormError("degenerate Gram matrix") from exc
    return inv, abs(mx.det(gram))


def ldl(gram: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], mx.Matrix]:
    """Exact LDL data of a positive definite Gram matrix.

    Returns (d, r) with Q(x) = sum_i d_i (x_i + sum_{j>i} r_ij x_j)^2.
    Raises FormError when the form is not positive definite.
    """
    n = len(gram)
    for i in range(n):
        for j in range(i):
            if Fraction(gram[i][j]) != Fraction(gram[j][i]):
                raise FormError("Gram matrix must be symmetric")
    q = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise FormError("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    d = tuple(q[i][i] for i in range(n))
    r = tuple(
        tuple(q[i][j] if j > i else Fraction(0) for j in range(n)) for i in range(n)
    )
    return d, r


def _floor_sqrt_plus(c2: Fraction, shift: Fraction) -> int:
    """floor(sqrt(c2) + shift) for rational c2 >= 0, exact."""
    # Float gives a hint; exact comparisons settle the boundary.
    try:
        guess = int(math.floor(math.sqrt(float(c2)) + float(shift)))
    except (OverflowError, ValueError):
        guess = int(shift) + int(math.isqrt(int(c2))) + 1

    def ok(m: int) -> bool:
        t = m - shift
        return t <= 0 or t * t <= c2

    while not ok(guess):
        guess -= 1
    while ok(guess + 1):
        guess += 1
    return guess


def short_vectors_with_norms(obj, bound) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """All nonzero vectors of norm <= bound, each paired with its norm.

    ``obj`` may be an IntegerLattice or a positive definite Gram matrix
    (integer or rational entries).  Pairs are sorted lexicographically by
    vector and closed under negation.  The Fincke-Pohst leaf already holds
    ``bound - v G v^T`` exactly, so each norm comes free with its vector.
    Raises FormError when the form is not positive definite.
    """
    gram = obj.gram() if isinstance(obj, IntegerLattice) else mx.mat(obj)
    bound = Fraction(bound)
    n = len(gram)
    if n == 0 or bound < 0:
        return ()
    d, r = ldl(gram)
    results: list[tuple[tuple[int, ...], Fraction]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                results.append((tuple(x), bound - remaining))
            return
        s = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                s += r[i][j] * x[j]
        c2 = remaining / d[i]
        hi = _floor_sqrt_plus(c2, -s)
        lo = -_floor_sqrt_plus(c2, s)
        for xi in range(lo, hi + 1):
            x[i] = xi
            t = xi + s
            descend(i - 1, remaining - d[i] * t * t)
        x[i] = 0

    descend(n - 1, bound)
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


def as_integer_gram(gram):
    """Scale a rational Gram matrix to integers: returns (int_gram, scale)."""
    denom = 1
    for row in gram:
        for x in row:
            denom = denom * Fraction(x).denominator // math.gcd(denom, Fraction(x).denominator)
    scaled = tuple(
        tuple(int(Fraction(x) * denom) for x in row) for row in gram
    )
    return scaled, denom

"""Exact linear algebra over the integers and rationals.

Matrices are tuples of tuples (rows).  Entries are Python ints or
``fractions.Fraction``; nothing here ever rounds.  The sizes that occur in
practice are small (rank at most a few dozen), so the implementations favour
clarity and verifiability over asymptotics.

``_integer`` and ``_exact`` are the package's one rule for what counts as a
number: ints and numpy integers (read as ints) pass, and ``_exact`` also
passes a Fraction; a bool, float, string or Decimal is a TypeError.  Matrix
entries are read in one place, ``as_integer_matrix`` (``int_matrix`` is its
integer view), which reads the rows through ``mat``, so a ragged matrix is a
ValueError, and runs every entry through ``_exact``.  A public function
reads its input there once; ``_smith_reduce`` and ``_inverse_and_det``
take checked int rows.  A Gram matrix is read there through one gate,
``lattice._integer_gram``, which also refuses a non-square or non-symmetric
one.  The models, divisor classes, polynomials, pencils and germs read the
numbers they are given through the same two functions.

There is one matrix product, ``matmul``.  It reads each operand once, with
``np.array``, so a ragged operand is a ValueError.  When both reads are 2-D
int64 arrays, every entry is below 2^62 and
max |a_ik| * max_j sum_k |b_kj| < 2^62, which bounds every entry and partial
sum of the product (an operand's own bound matters when the other one is all
zero), it runs as one int64 product on those arrays.  Otherwise it runs as
sums of Python products: on the read's Python ints when it read integers,
so numpy integers cannot wrap, and on the entries as given when it did not
(Fractions, or ints that numpy reads as floats or objects).  On ints the
two agree.

There are two fraction-free (Bareiss) eliminations, in which every
intermediate entry is a minor of the scaled matrix, so all divisions are
exact integer divisions and no ``Fraction`` is built until the result.
``_bareiss`` is the Gauss-Jordan one: ``det``, ``inverse``,
``lattice.dual_gram``, ``fibers.fiber_multiplicities`` (through
``_solve_left_and_rank``) and ``boxenum._box_radii`` run it; ``mw.mwl``
runs it at most twice, in ``det`` of T's Gram matrix and in ``dual_gram``.
``lattice._bareiss_ldl`` is the symmetric LDL one, on the Gram gate's rows:
the Fincke-Pohst search runs on its data, and it is the check, shared with
the box oracle, that a Gram matrix is positive definite.

There is one Smith reduction, ``_smith_reduce``: the classical row/column
reduction, including the divisibility fix-up, so the diagonal entries
divide successively.  It carries only the row transform U
(``U @ M @ V == S``; V is never built).  Two callers run it with U:
``left_kernel_basis``, whose answer is the rows of U past the rank, and
``mw.mwl``, which reads a basis of the row lattice off the leading rows of
``U @ M`` in the same reduction as the invariant factors.  One runs it
without U: ``invariant_factors``, through which ``lattice.cokernel_invariants``
(``mw.mw_group``) and ``mw``'s root-span factors ask.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]

_INT64_LIMIT = 1 << 62


def mat(rows: Iterable[Iterable]) -> tuple:
    """Normalize nested iterables into a tuple-of-tuples matrix."""
    out = tuple(tuple(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def _integer(x) -> int:
    """``x`` as an int, for ints and numpy integers; a TypeError otherwise.

    ``int(x)`` would truncate a float and parse a string; a bool is refused
    too, since True is no coefficient.
    """
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError("expected an integer, got %r" % (x,))


def _exact(x):
    """``x`` as an int or a Fraction: a Fraction as it is, else ``_integer(x)``."""
    return x if type(x) is Fraction else _integer(x)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m)) if m else ()


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    x, y = np.array(a), np.array(b)
    if x.ndim == y.ndim == 2 and x.shape[1] != y.shape[0]:
        raise ValueError("incompatible shapes %dx%d * %dx%d" % (*x.shape, *y.shape))
    if x.ndim == y.ndim == 2 and x.dtype == y.dtype == np.int64:
        # |v| read as uint64 is exact for every int64 v, -2^63 included
        abs_y = np.abs(y)
        reach_a = int(np.abs(x).view(np.uint64).max())
        top_b = int(abs_y.view(np.uint64).max())
        if max(reach_a, top_b) < _INT64_LIMIT:
            # column sums of |b| in int64 while they cannot wrap, else in Python ints
            dtype = np.int64 if top_b * len(y) < 1 << 63 else object
            reach_b = int(abs_y.sum(axis=0, dtype=dtype).max())
            if max(reach_b, reach_a * reach_b) < _INT64_LIMIT:
                return tuple(map(tuple, (x @ y).tolist()))
    # sums of Python products: the only route that calls transpose (tests watch for it)
    a = x.tolist() if x.dtype.kind in "iu" else a
    bt = transpose(y.tolist() if y.dtype.kind in "iu" else b)
    return tuple(tuple(sum(p * q for p, q in zip(row, col)) for col in bt) for row in a)


def as_integer_matrix(m: Sequence[Sequence]) -> tuple[IntMatrix, int]:
    """Scale a rational matrix to integers: returns (int_matrix, den).

    ``den`` is the lcm of the entries' denominators, so ``int_matrix`` is
    ``den * m`` exactly.  Every entry goes through ``_exact``.
    """
    rows = mat(m)
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    rows = [[_exact(x) for x in row] for row in rows]
    den = lcm(1, *(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows), den


def _bareiss(a: list, ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan on the leading ``ncols`` columns of ``a``.

    ``a`` is a list of integer rows, reduced in place (rows are replaced,
    never mutated).  A column with no nonzero entry at or below the current
    pivot row is skipped.  Returns (pivot_cols, d): the columns that took a
    pivot and d = +-p, where p is the last pivot and the sign counts the row
    swaps (d = det(a) when ``a`` is square and nonsingular).  Pivot row i of
    the result is p times row i of the reduced row echelon form; the rows
    below the pivot rows are zero in the leading columns.  Every entry stays
    a minor of the row-swapped input, skipped columns included, which is why
    the division by the previous pivot is exact.
    """
    sign = 1
    prev = 1
    pivots: list[int] = []
    rows = len(a)
    for col in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[col]
        for i in range(rows):
            if i == r:
                continue
            row = a[i]
            f = row[col]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                a[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(col)
    return pivots, sign * prev


def det(m: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination, exact."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a, den = as_integer_matrix(m)
    pivots, d = _bareiss(list(a), n)
    return Fraction(d if len(pivots) == n else 0, den ** n)


def inverse(m: Sequence[Sequence]) -> Matrix:
    """Exact inverse; raises FormError-free ValueError on singular input."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    return _inverse_and_det(*as_integer_matrix(m))[0]


def _inverse_and_det(a: IntMatrix, den: int) -> tuple[Matrix, Fraction]:
    """Inverse and determinant of the nonsingular matrix m = a / den, from
    one elimination.

    ``a`` is checked square int rows, as ``as_integer_matrix`` or the Gram
    gate ``lattice._integer_gram`` returns them with ``den``.
    """
    n = len(a)
    aug = [[*row, *e] for row, e in zip(a, identity(n))]
    pivots, d = _bareiss(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    # aug = (p * I | p * (den * m)^-1) with p = aug[i][i], and
    # (den * m)^-1 = m^-1 / den, so each entry of m^-1 is den * x / p;
    # d = det(den * m), as in ``det``: the identity block never moves a pivot.
    inv = tuple(tuple(Fraction(x * den, aug[i][i]) for x in row[n:])
                for i, row in enumerate(aug))
    return inv, Fraction(d, den ** n)


def int_matrix(m: Sequence[Sequence]) -> IntMatrix:
    """``m`` with int entries, through ``as_integer_matrix``.

    A ValueError when some entry is a non-integral Fraction.
    """
    a, den = as_integer_matrix(m)
    if den != 1:
        raise ValueError("matrix has non-integer entries")
    return a


def _solve_left_and_rank(a: Sequence[Sequence], b: Sequence):
    """(x, rank of ``a``) from one elimination, for x one rational solution
    of x @ a = b, or None if there is none.

    Reduces (a^T | b); the unknowns of columns without a pivot are 0, and
    the pivots of the a^T block count the rank.
    """
    n = len(a)
    a = mat(a)
    if a and len(b) != len(a[0]):
        raise ValueError("right-hand side of length %d for rows of length %d"
                         % (len(b), len(a[0])))
    aug, _ = as_integer_matrix([*col, y] for col, y in zip(transpose(a), b))
    aug = list(aug)
    pivots, _ = _bareiss(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None, len(pivots)
    x = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        x[col] = Fraction(row[n], row[col])
    return tuple(x), len(pivots)


# ---------------------------------------------------------------------------
# Smith normal form


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _add_row(a, u, dst, src, factor):
    # row[dst] += factor * row[src]
    a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]


def _smith_reduce(m: Sequence[Sequence[int]], track: bool):
    """Reduce ``m`` to Smith normal form; returns (u, factors).

    ``factors`` are the nonzero diagonal entries of S, each dividing the
    next.  With ``track`` u is the unimodular row transform, U @ M @ V == S
    for some unimodular V that is not built; without it u holds one empty
    row per row of ``m``, so the row operations below update nothing but S.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if track:
        u = [list(row) for row in identity(rows)]
    else:
        u = [[] for _ in range(rows)]

    t = 0
    while t < min(rows, cols):
        # Locate a nonzero entry of minimal absolute value in the
        # trailing submatrix; the pivot shrinks monotonically, which
        # guarantees termination of the inner loop.
        while True:
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                _swap_rows(a, u, t, bi)
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // piv
                    if q:
                        _add_row(a, u, i, t, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // piv
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Pivot now clears its row and column; enforce that it also
            # divides the rest of the submatrix (divisibility chain).
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, u, t, offender, 1)
        t += 1

    return u, tuple(a[i][i] for i in range(min(rows, cols)) if a[i][i] != 0)


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith normal form of ``m``."""
    return _smith_reduce(int_matrix(m), track=False)[1]


def left_kernel_basis(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of the saturated lattice {x : x @ M == 0}, as rows."""
    if not m:
        return ()
    u, factors = _smith_reduce(int_matrix(m), track=True)
    return mat(u[len(factors):])


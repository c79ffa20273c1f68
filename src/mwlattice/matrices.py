"""Exact linear algebra over the integers and rationals.

Matrices are tuples of tuples (rows).  Entries are Python ints or
``fractions.Fraction``; nothing here ever rounds.  The sizes that occur in
practice are small (rank at most a few dozen), so the implementations favour
clarity and verifiability over asymptotics.

Determinants and inverses scale the matrix to integers once and run a
fraction-free (Bareiss) Gauss-Jordan elimination, in which every
intermediate entry is a minor of the scaled matrix, so all divisions are
exact integer divisions and no ``Fraction`` is built until the result.

The Smith normal form follows the classical row/column reduction, including
the divisibility fix-up, so the diagonal entries divide successively.
``smith_normal_form`` tracks the pair of unimodular transforms with
``U @ M @ V == S``; ``invariant_factors`` runs the same reduction without
them, since it reads only the diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows: Iterable[Iterable]) -> tuple:
    """Normalize nested iterables into a tuple-of-tuples matrix."""
    out = tuple(tuple(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m)) if m else ()


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    if a and b and len(a[0]) != len(b):
        raise ValueError("incompatible shapes %dx%d * %dx%d"
                         % (len(a), len(a[0]), len(b), len(b[0])))
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_mat(v: Sequence, m: Sequence[Sequence]) -> tuple:
    if m and len(v) != len(m):
        raise ValueError("incompatible shapes")
    return tuple(sum(v[i] * m[i][j] for i in range(len(v)))
                 for j in range(len(m[0]) if m else 0))


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum(x * y for x, y in zip(u, v))


def scale(m: Sequence[Sequence], c) -> tuple:
    return tuple(tuple(c * x for x in row) for row in m)


def as_integer_matrix(m: Sequence[Sequence]) -> tuple[IntMatrix, int]:
    """Scale a rational matrix to integers: returns (int_matrix, den).

    ``den`` is the lcm of the entries' denominators, so ``int_matrix`` is
    ``den * m`` exactly.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    den = lcm(1, *(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows), den


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan on the leading n columns of ``a``, in place.

    ``a`` holds n integer rows (B | T) with B square.  Returns det(B), or
    0 when B is singular (``a`` is then left partly reduced).  On success
    ``a`` reads (p * I | p * B^-1 T), where p = +-det(B) is the last pivot.
    After step k every entry is a (k+1)-minor of the row-swapped input,
    which is why the division by the previous pivot is exact.
    """
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot_row = a[col]
        p = pivot_row[col]
        for r in range(n):
            if r == col:
                continue
            row = a[r]
            f = row[col]
            if f:
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                a[r] = [p * x // prev for x in row]
        prev = p
    return sign * prev


def det(m: Sequence[Sequence]):
    """Determinant by fraction-free (Bareiss) elimination, exact."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a, den = as_integer_matrix(m)
    return Fraction(_bareiss([list(row) for row in a], n), den ** n)


def rank(m: Sequence[Sequence]) -> int:
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def inverse(m: Sequence[Sequence]) -> Matrix:
    """Exact inverse; raises FormError-free ValueError on singular input."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    a, den = as_integer_matrix(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    if _bareiss(aug, n) == 0:
        raise ValueError("matrix is singular")
    # aug = (p * I | p * (den * m)^-1) with p = aug[i][i], and
    # (den * m)^-1 = m^-1 / den, so each entry of m^-1 is den * x / p.
    return tuple(tuple(Fraction(x * den, aug[i][i]) for x in row[n:])
                 for i, row in enumerate(aug))


def int_matrix(m: Sequence[Sequence]) -> IntMatrix:
    """Cast a rational matrix with unit denominators to integers."""
    out = []
    for row in m:
        new = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError("entry %s is not an integer" % (x,))
            new.append(f.numerator)
        out.append(tuple(new))
    return tuple(out)


def is_unimodular(m: Sequence[Sequence]) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    try:
        im = int_matrix(m)
    except ValueError:
        return False
    return abs(det(im)) == 1


def solve_right(a: Sequence[Sequence], b: Sequence):
    """One rational solution x of a @ x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_piv = 1 / aug[r][col]
        aug[r] = [x * inv_piv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = aug[i][cols]
    return tuple(x)


def solve_left(a: Sequence[Sequence], b: Sequence):
    """One rational solution x of x @ a = b, or None if inconsistent."""
    return solve_right(transpose(a), b)


# ---------------------------------------------------------------------------
# Smith normal form


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, factor):
    # row[dst] += factor * row[src]
    a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]


def _add_col(a, v, dst, src, factor):
    for row in a:
        row[dst] += factor * row[src]
    for row in v:
        row[dst] += factor * row[src]


def _negate_row(a, u, i):
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]


def _smith_reduce(m: Sequence[Sequence[int]], track: bool):
    """Reduce ``m`` to Smith normal form; returns (u, s, v) as lists of rows.

    With ``track`` False, u holds one empty row per row of ``m`` and v no
    rows, so the row and column operations below update nothing but s.
    """
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if track:
        u = [list(row) for row in identity(rows)]
        v = [list(row) for row in identity(cols)]
    else:
        u, v = [[] for _ in range(rows)], []

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
                _swap_cols(a, v, t, bj)
            if a[t][t] < 0:
                _negate_row(a, u, t)
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
                        _add_col(a, v, j, t, -q)
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

    return u, a, v


def smith_normal_form(m: Sequence[Sequence[int]]):
    """Return (U, S, V) with U @ M @ V == S in Smith normal form.

    U and V are unimodular integer matrices.  S is diagonal with
    nonnegative entries and S[i][i] divides S[i+1][i+1].
    """
    u, s, v = _smith_reduce(m, track=True)
    return mat(u), mat(s), mat(v)


def diagonal_of(s: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)))


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith normal form of ``m``."""
    if not m or not m[0]:
        return ()
    _, s, _ = _smith_reduce(m, track=False)
    return tuple(x for x in diagonal_of(s) if x != 0)


def left_kernel_basis(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of the saturated lattice {x : x @ M == 0}, as rows."""
    if not m:
        return ()
    u, s, _ = smith_normal_form(m)
    r = sum(1 for f in diagonal_of(s) if f != 0)
    return tuple(u[r:])


def row_lattice_basis(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis (rows) of the lattice generated by the rows of ``m``."""
    if not m or not m[0]:
        return ()
    _, s, v = smith_normal_form(m)
    v_inv = int_matrix(inverse(v))
    factors = diagonal_of(s)
    basis = []
    for i, f in enumerate(factors):
        if f != 0:
            basis.append(tuple(f * x for x in v_inv[i]))
    return tuple(basis)


def saturation_basis(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of the saturation (Q-span intersected with Z^cols) of the rows."""
    if not m or not m[0]:
        return ()
    _, s, v = smith_normal_form(m)
    v_inv = int_matrix(inverse(v))
    r = sum(1 for f in diagonal_of(s) if f != 0)
    return tuple(v_inv[:r])


def gcd_all(xs: Iterable[int]) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g

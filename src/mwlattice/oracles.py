"""Independent cross-checks for the main algorithms.

Each function here recomputes a result by a different route than the
primary implementation: invariant factors via minor gcds instead of
row reduction, short vectors via box enumeration (in the given or the
size-reduced basis, whichever box has fewer points, with integer box
radii) instead of the pruned level-wise search, the discriminant via its
factored form instead of b^2 - 4ac, and the distinguished fibre Gram
matrix from its displayed entry pattern instead of from divisor classes.
Tests and the verification battery compare the two routes; nothing here
is used by the primary code paths.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod

from . import matrices as mx
from .boxenum import _box_radii, box_short_vectors
from .lattice import _check_square, size_reduce
from .pencil import PencilCoefficients
from .poly import SparsePoly, T, Y


def determinant_by_expansion(m) -> int:
    """Cofactor expansion along the first row; exponential but exact."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [
            [m[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        total += (-1) ** j * m[0][j] * determinant_by_expansion(minor)
    return total


def invariant_factors_by_minors(m) -> tuple[int, ...]:
    """Invariant factors as quotients of minor gcds d_k / d_{k-1}."""
    m = [list(row) for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[m[i][j] for j in csel] for i in rsel]
                g = gcd(g, determinant_by_expansion(sub))
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // previous)
        previous = g
    return tuple(out)


def brute_force_short_vectors(gram, bound):
    """All nonzero vectors of norm <= bound by box enumeration.

    The box is scanned in whichever basis gives it fewer points, the given
    one or its :func:`size_reduce` form (ties keep the given one); vectors
    found in the reduced basis are mapped back.  Size reduction shrinks the
    box of many skewed Grams but enlarges that of the maximal lattices
    D_n^+, so neither basis is always the better one.  The answer is the
    same either way.

    Each candidate basis is scaled to integers, checked by the search's
    LDL and given its box radii by the Gauss-Jordan elimination
    (:func:`_box_size`); the public :func:`box_short_vectors` runs that
    set-up once more on the chosen basis, so there are three per call.
    The scan goes through the public function because the benchmark's
    tracer counts box scans and points there.  The vectors found in the
    reduced basis are mapped back by one :func:`matrices.matmul`.
    """
    _check_square(gram)
    bound = mx._exact(bound)
    if bound < 0:
        return ()
    given = _box_size(gram, bound)
    reduced, transform = size_reduce(gram)
    if given <= _box_size(reduced, bound):
        return box_short_vectors(gram, bound)
    return tuple(sorted(mx.matmul(box_short_vectors(reduced, bound), transform)))


def _box_size(gram, bound) -> int:
    int_gram, scale = mx.as_integer_matrix(gram)
    return prod(2 * r + 1 for r in _box_radii(int_gram, bound * scale))


def factored_pencil_discriminant(pc: PencilCoefficients) -> SparsePoly:
    """The discriminant assembled directly from its factored form.

    t * y * (4 c01 y^{2g+1} - 4 c20 c01 t - 4 c01 t sum_{j>=1} c2j y^j
             + t y (sum_j c1j y^{j-1})^2)
    """
    g = pc.g
    c01 = pc.coefficient(0, 1)
    c20 = pc.coefficient(2, 0)
    bracket = SparsePoly.monomial(4 * c01, y=2 * g + 1)
    bracket = bracket + SparsePoly.monomial(-4 * c20 * c01, t=1)
    for j in range(1, 2 * g + 2):
        c2j = pc.coefficient(2, j)
        if c2j:
            bracket = bracket + SparsePoly.monomial(-4 * c01 * c2j, t=1, y=j)
    linear = SparsePoly.zero()
    for k, value in pc.row(1).items():
        linear = linear + SparsePoly.monomial(value, y=k - 1)
    bracket = bracket + T * Y * linear * linear
    return T * Y * bracket


def reference_reducible_fiber_gram(g: int):
    """Gram matrix of the distinguished reducible fibre, by entry pattern.

    A chain of -2 classes indexed 0 .. 4g+2, extra neighbours (4g+1,
    4g+3) and (4g+2, 4g+4), all self-intersections -2 except the last,
    which is -(g+1).
    """
    n = 4 * g + 5
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -2
    m[n - 1][n - 1] = -(g + 1)
    edges = [(k, k + 1) for k in range(4 * g + 2)]
    edges.append((4 * g + 1, 4 * g + 3))
    edges.append((4 * g + 2, 4 * g + 4))
    for i, j in edges:
        m[i][j] = 1
        m[j][i] = 1
    return tuple(tuple(row) for row in m)


def reference_component_multiplicities(g: int) -> tuple[int, ...]:
    """Fibre component multiplicities of the distinguished fibre."""
    return tuple(
        list(range(1, 4 * g + 3)) + [2 * g + 2, 2 * g + 1, 2]
    )

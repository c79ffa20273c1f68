"""Brute-force short-vector enumeration over a coordinate box.

This is the engine behind the cross-check oracle for the Fincke-Pohst
search in :mod:`mwlattice.lattice`.  For a positive definite Gram matrix G
and bound b, every vector v with v G v^T <= b satisfies

    |v_i| <= sqrt(b * (G^{-1})_{ii})

(Cauchy-Schwarz against the dual basis), so enumerating the integer box
with those radii and filtering by the exact norm is a complete search.
The set-up runs once per call: the Gram gate (``lattice._integer_gram``)
refuses a non-square or non-symmetric matrix and scales it to integers
once, the search's LDL check (``lattice._bareiss_ldl``) refuses a form that
is not positive definite, and the Gauss-Jordan ``matrices._bareiss`` of
(G | I) gives the radii (see :func:`_box_radii`); no rational inverse is
built.

Two interchangeable backends exist:

* ``numpy`` (the default): a tiled scan of half of the box.  The
  coordinates split into a head block a and a tail block b whose boxes
  hold about equally many points, and the norm is

      q1(a) + q2(b) + 2 a G12 b^T.

  Every head point and every tail point is built once, with its own norm.
  With the limit floor(tn / td) folded in, norm - limit is the product of
  the rows [2 a G12 | q1(a) - limit | 1] and the columns [b | 1 | q2(b)],
  so a tile of head rows gets all its comparisons from one float64 matrix
  product, read by its sign with one flat ``flatnonzero``.  Only the
  lexicographically positive half is scanned (a positive, or a = 0 and b
  positive) and mirrored.
* ``python``: direct product loop in arbitrary precision, the reference.

Every box point is evaluated exactly; nothing is pruned.  The numpy scan
runs only on boxes that pass an overflow precheck: |tn| < 2^50 and
td * sum_ij |g_ij| r_i r_j < 2^50 for the integer Gram (g_ij), the radii
r_i and the scaled bound tn/td.  Every partial sum of norm - limit, in
any summation order, is then an integer of size at most
td * sum_ij |g_ij| r_i r_j + |limit| < 2^51, which float64 holds exactly.
Any other box goes to the python backend, so the result never depends on
the backend.
"""

from __future__ import annotations

import itertools
from math import isqrt, prod
from typing import Sequence

import numpy as _np

from . import matrices as mx
from .lattice import _bareiss_ldl, _integer_gram

_TILE = 1 << 20  # norms computed per tile
_FLOAT64_EXACT_LIMIT = 1 << 50

_DEFAULT_BACKEND = "numpy"
_BACKEND = _DEFAULT_BACKEND


def enumeration_backend() -> str:
    """Name of the backend box_short_vectors will use."""
    return _BACKEND


def set_backend(name: str | None):
    """Force a backend ('numpy', 'python') or reset with None."""
    global _BACKEND
    if name is None:
        _BACKEND = _DEFAULT_BACKEND
        return
    if name not in ("numpy", "python"):
        raise ValueError("unknown backend %r" % name)
    _BACKEND = name


def _enumerate_python(gram, radii, tn, td):
    results = []
    n = len(radii)
    ranges = [range(-r, r + 1) for r in radii]
    for v in itertools.product(*ranges):
        norm = 0
        for i in range(n):
            vi = v[i]
            if vi:
                row = gram[i]
                norm += vi * sum(row[j] * v[j] for j in range(n))
        if td * norm <= tn and any(v):
            results.append(v)
    return results


def _grid(radii) -> _np.ndarray:
    """Every point of the box with these radii, one per row, lexicographically.

    Each side has odd length 2r+1, so the zero vector is the middle row and
    the rows after it are exactly the lexicographically positive points.
    """
    sizes = [2 * r + 1 for r in radii]
    points = _np.indices(sizes, dtype=_np.float64).reshape(len(sizes), prod(sizes)).T
    return points - _np.array(radii)


def _head_size(radii) -> int:
    """Length h >= 1 of the head block v[:h], splitting the box points evenly."""
    sizes = [2 * r + 1 for r in radii]
    return min(
        range(1, len(sizes) + 1),
        key=lambda k: max(prod(sizes[:k]), prod(sizes[k:])),
    )


def _enumerate_numpy(gram, radii, tn, td):
    h = _head_size(radii)
    g = _np.array(gram, dtype=_np.float64)
    a = _grid(radii[:h])
    b = _grid(radii[h:])
    a = a[len(a) // 2 + 1:]  # lexicographically positive heads
    q1 = _np.einsum("ij,jk,ik->i", a, g[:h, :h], a)
    q2 = _np.einsum("ij,jk,ik->i", b, g[h:, h:], b)
    # norm(a, b) = q1(a) + q2(b) + 2 a G12 b is an integer for integer
    # points, so td * norm <= tn is norm <= floor(tn / td).
    limit = tn // td
    # norm(a, b) - limit = [2 a G12 | q1(a) - limit | 1] . [b | 1 | q2(b)],
    # one product per tile, read in place by its sign.
    left = _np.column_stack([2 * a @ g[:h, h:], q1 - limit, _np.ones(len(a))])
    right = _np.column_stack([b, _np.ones(len(b)), q2]).T
    # a = 0 with b lexicographically positive; then every positive head
    # against all of B, one tile of rows at a time.  Mirror at the end.
    zero = len(b) // 2
    tails = _np.flatnonzero(q2[zero + 1:] <= limit) + zero + 1
    hits = [_np.hstack([_np.zeros((len(tails), h)), b[tails]])]
    rows = max(1, _TILE // len(b))
    for start in range(0, len(a), rows):
        i, j = divmod(_np.flatnonzero(left[start:start + rows] @ right <= 0), len(b))
        hits.append(_np.hstack([a[start + i], b[j]]))
    found = _np.concatenate(hits).astype(_np.int64)
    return [tuple(v) for v in _np.concatenate([found, -found]).tolist()]


def _box_fits_float64(gram, radii, tn, td) -> bool:
    worst = 0
    n = len(radii)
    for i in range(n):
        for j in range(n):
            worst += abs(gram[i][j]) * radii[i] * radii[j]
    return td * worst < _FLOAT64_EXACT_LIMIT and abs(tn) < _FLOAT64_EXACT_LIMIT


def _box_radii(int_gram: Sequence[Sequence[int]], threshold) -> list[int]:
    """Radii floor(sqrt(threshold * (G^-1)_ii)) of the box holding every short vector.

    G is the Gram gate's rows (``lattice._integer_gram``) and ``threshold``
    (an int or a Fraction) the norm bound for it.  ``lattice._bareiss_ldl``,
    the search's own check, raises FormError unless G is positive definite;
    then ``matrices._bareiss`` of (G | I) ends at (d I | adj G) with
    d = det G, so (G^-1)_ii = adj_ii / d.
    """
    _bareiss_ldl(int_gram)
    n = len(int_gram)
    a = [[*row, *e] for row, e in zip(int_gram, mx.identity(n))]
    _, d = mx._bareiss(a, n)
    # floor(sqrt(q)) = isqrt(floor(q)) for rational q >= 0.
    tn, td = threshold.numerator, threshold.denominator * d
    return [isqrt(tn * a[i][n + i] // td) for i in range(n)]


def box_short_vectors(gram: Sequence[Sequence], bound) -> tuple[tuple[int, ...], ...]:
    """All nonzero vectors with norm <= bound, by exhaustive box scan.

    Accepts an integer or rational positive definite Gram matrix.  The
    result is sorted lexicographically; same contract as
    :func:`mwlattice.lattice.short_vectors`.
    """
    int_gram, scale = _integer_gram(gram)
    bound = mx._exact(bound)
    if len(int_gram) == 0 or bound < 0:
        return ()
    threshold = bound * scale
    radii = _box_radii(int_gram, threshold)
    tn, td = threshold.numerator, threshold.denominator

    if _BACKEND == "numpy" and _box_fits_float64(int_gram, radii, tn, td):
        found = _enumerate_numpy(int_gram, radii, tn, td)
    else:
        found = _enumerate_python(int_gram, radii, tn, td)
    return tuple(sorted(found))

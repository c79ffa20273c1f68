"""Brute-force short-vector enumeration over a coordinate box.

This is the engine behind the cross-check oracle for the Fincke-Pohst
search in :mod:`mwlattice.lattice`.  For a positive definite Gram matrix G
and bound b, every vector v with v G v^T <= b satisfies

    |v_i| <= sqrt(b * (G^{-1})_{ii})

(Cauchy-Schwarz against the dual basis), so enumerating the integer box
with those radii and filtering by the exact norm is a complete search.

Three interchangeable backends exist:

* ``compiled``: Cython odometer with incremental Gram updates,
* ``numpy``: chunked vectorized scan of half of the box (mirrored),
* ``python``: direct product loop, arbitrary precision.

The compiled kernel and the numpy scan work in 64-bit integers (numpy in
float64 on integer values below 2^52, which is exact); a conservative
overflow precheck falls back to the pure Python backend otherwise, so the
result never depends on the backend.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import prod
from typing import Sequence

from . import matrices as mx
from .errors import FormError
from .lattice import _floor_sqrt_plus, as_integer_gram

_CHUNK = 1 << 20
_INT64_NORM_LIMIT = 1 << 50

try:  # pragma: no cover - exercised only when the extension is built
    if os.environ.get("MWLATTICE_NO_EXT"):
        raise ImportError("disabled by MWLATTICE_NO_EXT")
    from . import _boxenum as _compiled
except ImportError:
    _compiled = None

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dependency
    _np = None

if _compiled is not None:
    _DEFAULT_BACKEND = "compiled"
elif _np is not None:
    _DEFAULT_BACKEND = "numpy"
else:  # pragma: no cover
    _DEFAULT_BACKEND = "python"

_BACKEND = _DEFAULT_BACKEND


def enumeration_backend() -> str:
    """Name of the backend box_short_vectors will use."""
    return _BACKEND


def set_backend(name: str | None):
    """Force a backend ('compiled', 'numpy', 'python') or reset with None."""
    global _BACKEND
    if name is None:
        _BACKEND = _DEFAULT_BACKEND
        return
    if name == "compiled" and _compiled is None:
        raise ValueError("compiled kernel is not available")
    if name == "numpy" and _np is None:
        raise ValueError("numpy is not available")
    if name not in ("compiled", "numpy", "python"):
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


def _enumerate_numpy(gram, radii, tn, td):
    n = len(radii)
    g = _np.array(gram, dtype=_np.float64)
    out = []
    # Stratify by the first nonzero coordinate, taken positive; mirror at
    # the end.  This halves the work relative to the full box.
    for k in range(n):
        rk = radii[k]
        if rk == 0:
            continue
        tail = radii[k + 1:]
        sizes = [rk] + [2 * r + 1 for r in tail]
        total = prod(sizes)
        for start in range(0, total, _CHUNK):
            idx = _np.arange(start, min(start + _CHUNK, total), dtype=_np.int64)
            vecs = _np.zeros((len(idx), n), dtype=_np.float64)
            rem = idx
            for pos in range(len(sizes) - 1, -1, -1):
                rem, digit = _np.divmod(rem, sizes[pos])
                if pos == 0:
                    vecs[:, k] = digit + 1
                else:
                    vecs[:, k + pos] = digit - tail[pos - 1]
            norms = _np.einsum("ij,ij->i", vecs @ g, vecs)
            mask = td * norms <= tn
            for row in vecs[mask].astype(_np.int64):
                out.append(tuple(int(x) for x in row))
    out.extend(tuple(-x for x in v) for v in list(out))
    return out


def _box_fits_int64(gram, radii, tn, td) -> bool:
    worst = 0
    n = len(radii)
    for i in range(n):
        for j in range(n):
            worst += abs(gram[i][j]) * radii[i] * radii[j]
    return td * worst < _INT64_NORM_LIMIT and abs(tn) < _INT64_NORM_LIMIT


def box_short_vectors(gram: Sequence[Sequence], bound) -> tuple[tuple[int, ...], ...]:
    """All nonzero vectors with norm <= bound, by exhaustive box scan.

    Accepts an integer or rational positive definite Gram matrix.  The
    result is sorted lexicographically; same contract as
    :func:`mwlattice.lattice.short_vectors`.
    """
    gram = mx.mat(gram)
    n = len(gram)
    bound = Fraction(bound)
    if n == 0 or bound < 0:
        return ()
    int_gram, scale = as_integer_gram(gram)
    # Positive definiteness check and dual diagonal for the radii.
    try:
        inv = mx.inverse(gram)
    except ValueError as exc:
        raise FormError("Gram matrix is singular") from exc
    for i in range(n):
        if inv[i][i] <= 0 or gram[i][i] <= 0:
            raise FormError("form is not positive definite")
    radii = [_floor_sqrt_plus(bound * inv[i][i], Fraction(0)) for i in range(n)]
    threshold = bound * scale
    tn, td = threshold.numerator, threshold.denominator

    backend = _BACKEND
    if backend != "python" and not _box_fits_int64(int_gram, radii, tn, td):
        backend = "python"
    if backend == "compiled":
        found = _compiled.enumerate_box(
            [list(row) for row in int_gram], list(radii), tn, td
        )
    elif backend == "numpy":
        found = _enumerate_numpy(int_gram, radii, tn, td)
    else:
        found = _enumerate_python(int_gram, radii, tn, td)
    return tuple(sorted(tuple(v) for v in found))

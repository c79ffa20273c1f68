"""Intersection theory on blown-up Hirzebruch surfaces.

A :class:`SurfaceModel` fixes the basis (Delta, Gamma, E_1, ..., E_n) of the
Neron-Severi lattice of the blow-up of a Hirzebruch surface Sigma_d at n
points, with intersection numbers

    Delta^2 = -d,  Delta.Gamma = 1,  Gamma^2 = 0,  E_i^2 = -1,

and all other products between basis elements zero.  A divisor class is
stored by its coefficient tuple (a, b, m_1, ..., m_n), meaning

    a*Delta + b*Gamma - sum_i m_i E_i.

Note the sign: the class E_i itself has coefficient tuple with m_i = -1.
Because the E-part of the form is diagonal, the Gram matrix of this
coefficient convention equals the Gram matrix of the honest basis, so the
coefficient tuples can be used directly as lattice coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidModelError, ModelMismatchError, _shown
from .matrices import IntMatrix, _integer


@dataclass(frozen=True)
class SurfaceModel:
    """Blow-up of the Hirzebruch surface Sigma_d at n points, fibre genus g."""

    d: int
    n: int
    g: int

    def __post_init__(self):
        for name in ("d", "n", "g"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        if self.g < 1:
            raise InvalidModelError("genus must be at least 1")
        if self.d < 0 or self.n < 0:
            raise InvalidModelError("d and n must be nonnegative")

    @classmethod
    def maximal(cls, g: int, d: int | None = None) -> "SurfaceModel":
        """Model with the maximal Picard number 4g+6 for genus g.

        Requires d <= g+1; the fibre class below only exists in that range.
        """
        if d is None:
            d = g
        model = cls(d=d, n=4 * g + 4, g=g)
        if d > g + 1:
            raise InvalidModelError("maximal model requires d <= g+1, got d=%d" % d)
        return model

    @property
    def rho(self) -> int:
        """Picard number: 2 + number of blown-up points."""
        return 2 + self.n

    @property
    def is_maximal(self) -> bool:
        return self.n == 4 * self.g + 4

    @property
    def rank(self) -> int:
        return 2 + self.n

    def basis_labels(self) -> tuple[str, ...]:
        return ("Delta", "Gamma") + tuple("E%d" % i for i in range(1, self.n + 1))

    def intersection_matrix(self) -> IntMatrix:
        """Gram matrix of the intersection form on coefficient tuples."""
        size = self.rank
        rows = []
        for i in range(size):
            row = [0] * size
            if i == 0:
                row[0] = -self.d
                if size > 1:
                    row[1] = 1
            elif i == 1:
                row[0] = 1
            else:
                row[i] = -1
            rows.append(tuple(row))
        return tuple(rows)

    def neg_intersection_matrix(self) -> IntMatrix:
        """Gram matrix of the sign-flipped form, unimodular of signature (rho-1, 1)."""
        return tuple(tuple(-x for x in row) for row in self.intersection_matrix())


@dataclass(frozen=True)
class DivisorClass:
    """Element of NS(X) in the coefficient convention of the module docstring."""

    model: SurfaceModel
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(_integer, self.coeffs)))
        if len(self.coeffs) != self.model.rank:
            raise ModelMismatchError(
                "expected %d coefficients, got %d" % (self.model.rank, len(self.coeffs))
            )

    @property
    def a(self) -> int:
        return self.coeffs[0]

    @property
    def b(self) -> int:
        return self.coeffs[1]

    def _check_model(self, other: "DivisorClass"):
        if self.model != other.model:
            raise ModelMismatchError(
                "classes on different models: %s vs %s" % (self.model, other.model)
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_model(other)
        return DivisorClass(self.model, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_model(other)
        return DivisorClass(self.model, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model, tuple(-x for x in self.coeffs))

    def __rmul__(self, c: int) -> "DivisorClass":
        try:
            c = _integer(c)
        except TypeError:
            return NotImplemented
        return DivisorClass(self.model, tuple(c * x for x in self.coeffs))

    __mul__ = __rmul__

    def __str__(self) -> str:
        parts = []
        labels = self.model.basis_labels()
        signs = (1, 1) + (-1,) * self.model.n
        for coeff, label, sign in zip(self.coeffs, labels, signs):
            c = coeff * sign
            if c == 0:
                continue
            if c == 1:
                parts.append("+ %s" % label)
            elif c == -1:
                parts.append("- %s" % label)
            elif c > 0:
                parts.append("+ %d%s" % (c, label))
            else:
                parts.append("- %d%s" % (-c, label))
        if not parts:
            return "0"
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def delta(model: SurfaceModel) -> DivisorClass:
    return DivisorClass(model, (1, 0) + (0,) * model.n)


def gamma(model: SurfaceModel) -> DivisorClass:
    return DivisorClass(model, (0, 1) + (0,) * model.n)


def exceptional(model: SurfaceModel, i: int) -> DivisorClass:
    """The class E_i; its coefficient tuple has m_i = -1."""
    i = _integer(i)
    if not 1 <= i <= model.n:
        raise IndexError("point index out of range")
    coeffs = [0] * model.rank
    coeffs[1 + i] = -1
    return DivisorClass(model, tuple(coeffs))


def intersect(x: DivisorClass, y: DivisorClass) -> int:
    """Intersection number of two divisor classes on the same model."""
    if x.model != y.model:
        raise ModelMismatchError("classes on different models")
    d = x.model.d
    value = -d * x.a * y.a + x.a * y.b + y.a * x.b
    for i in range(2, x.model.rank):
        value -= x.coeffs[i] * y.coeffs[i]
    return value


def canonical_class(model: SurfaceModel) -> DivisorClass:
    """K = -2 Delta - (d+2) Gamma + sum_i E_i."""
    return DivisorClass(model, (-2, -(model.d + 2)) + (-1,) * model.n)


def fiber_class(model: SurfaceModel) -> DivisorClass:
    """Class of the genus-g pencil, 2 Delta + (d+g+1) Gamma - sum_i E_i.

    Only defined on maximal models (n = 4g+4); elsewhere the pencil does
    not compute to genus g and we refuse.
    """
    if not model.is_maximal:
        raise InvalidModelError(
            "fibre class needs n = 4g+4 (got n=%d, g=%d)" % (model.n, model.g)
        )
    return DivisorClass(model, (2, model.d + model.g + 1) + (1,) * model.n)


def adjunction_genus(div: DivisorClass) -> int:
    """Arithmetic genus from adjunction: (D^2 + K.D)/2 + 1."""
    k = canonical_class(div.model)
    total = intersect(div, div) + intersect(k, div)
    if total % 2 != 0:
        raise InvalidModelError("adjunction sum %s is odd" % _shown(total))
    return total // 2 + 1


def class_from_coeffs(model: SurfaceModel, coeffs: Iterable[int]) -> DivisorClass:
    return DivisorClass(model, tuple(coeffs))

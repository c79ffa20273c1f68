"""Pencils of bidegree-(2, 2g+1) curves and the induced double cover.

The fibration is cut out by a pencil spanned by the fixed member
x^2 y^{2g+1} and a sparse moving member sum c_{i,j} x^i y^j.  This module
builds the pencil member at parameter t, takes its discriminant as a
quadratic in x, splits off the two line factors t and y to expose the
branch curve B, measures the contact of B with the line {t = 0} at the
origin, and transfers the c-coefficients to the b-coefficients of the
double-cover equation

    z^2 = t y (b0 y^{2g+1} + b10 t + t y sum_j b1[j] y^{j-1}).

All arithmetic is exact over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import (
    CoefficientError,
    ContactError,
    InternalConsistencyError,
    ShapeError,
)
from .matrices import _integer
from .poly import SparsePoly, T, Y, Z, _rational


@dataclass(frozen=True)
class PencilCoefficients:
    """Coefficients of the moving member sum c_{i,j} x^i y^j.

    Valid indices are i in {0, 1, 2} with 0 <= j <= i*g + 1.  The corner
    coefficients c_{0,0} and c_{1,0} must vanish, while c_{2,0} and
    c_{0,1} must not; these four constraints make the pencil base points
    and the discriminant factorization come out right.  The genus and the
    indices are integers and a coefficient is an int or a Fraction;
    anything else, a float included, is a TypeError, as in the ring
    operations of :class:`SparsePoly`.
    """

    g: int
    entries: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "g", _integer(self.g))
        if self.g < 1:
            raise CoefficientError("genus must be at least 1")
        clean = {}
        for i, j, value in self.entries:
            i, j, value = _integer(i), _integer(j), _rational(value)
            if not (0 <= i <= 2 and 0 <= j <= i * self.g + 1):
                raise CoefficientError("index (%d, %d) out of range" % (i, j))
            if (i, j) in clean:
                raise CoefficientError("duplicate index (%d, %d)" % (i, j))
            if value:
                clean[(i, j)] = value
        if clean.get((0, 0)) or clean.get((1, 0)):
            raise CoefficientError("c_{0,0} and c_{1,0} must be zero")
        if not clean.get((2, 0)):
            raise CoefficientError("c_{2,0} must be nonzero")
        if not clean.get((0, 1)):
            raise CoefficientError("c_{0,1} must be nonzero")
        canon = tuple(sorted((i, j, clean[(i, j)]) for (i, j) in clean))
        object.__setattr__(self, "entries", canon)

    @classmethod
    def from_map(cls, g: int, coeffs) -> "PencilCoefficients":
        return cls(g, tuple((i, j, v) for (i, j), v in coeffs.items()))

    def coefficient(self, i: int, j: int) -> Fraction:
        for ei, ej, value in self.entries:
            if (ei, ej) == (i, j):
                return value
        return Fraction(0)

    def row(self, i: int) -> dict[int, Fraction]:
        """All nonzero coefficients with the given x-power."""
        return {j: v for ei, j, v in self.entries if ei == i}


def pencil_equation(pc: PencilCoefficients) -> SparsePoly:
    """Member of the pencil at parameter t: x^2 y^{2g+1} - t sum c x^i y^j."""
    terms = {(1, i, j, 0): -value for i, j, value in pc.entries}
    terms[(0, 2, 2 * pc.g + 1, 0)] = 1
    return SparsePoly(terms)


def discriminant_in_x(p: SparsePoly) -> SparsePoly:
    """b^2 - 4ac for p = a x^2 + b x + c with a, b, c free of x."""
    if p.degree("x") != 2:
        raise ShapeError("polynomial must have degree exactly 2 in x")
    a = p.coefficient("x", 2)
    b = p.coefficient("x", 1)
    c = p.coefficient("x", 0)
    return b * b - SparsePoly.const(4) * a * c


@dataclass(frozen=True)
class BranchDecomposition:
    """disc = unit * t^t_exponent * y^y_exponent * branch.

    The unit is always 1: numeric constants stay inside ``branch`` so the
    branch curve keeps the coefficient pattern of the discriminant.  The
    genus is read off from the y-degree of the branch, 2g + 1.
    """

    unit: Fraction
    t_exponent: int
    y_exponent: int
    branch: SparsePoly
    genus: int


def branch_decomposition(disc: SparsePoly) -> BranchDecomposition:
    """Split the two line factors t and y off the discriminant.

    Each must divide exactly once, and what remains must have bidegree
    (1 in t, odd >= 3 in y); anything else means the input was not the
    discriminant of a valid pencil.
    """
    if disc.is_zero():
        raise ShapeError("discriminant is identically zero")
    if disc.uses("x") or disc.uses("z"):
        raise ShapeError("discriminant must be a polynomial in t and y only")
    if disc.order("t") != 1:
        raise ShapeError("t must divide the discriminant exactly once")
    if disc.order("y") != 1:
        raise ShapeError("y must divide the discriminant exactly once")
    branch = disc.divide_by("t", 1).divide_by("y", 1)
    if branch.degree("t") != 1:
        raise ShapeError("branch curve must have degree 1 in t")
    dy = branch.degree("y")
    if dy < 3 or dy % 2 == 0:
        raise ShapeError("branch curve must have odd y-degree at least 3")
    return BranchDecomposition(
        unit=Fraction(1),
        t_exponent=1,
        y_exponent=1,
        branch=branch,
        genus=(dy - 1) // 2,
    )


def contact_order_at_origin(branch: SparsePoly) -> int:
    """Vanishing order in y of the branch restricted to the line t = 0.

    The contact point must already sit at the origin; no translation is
    attempted here.
    """
    restricted = branch.substitute_value("t", 0)
    if restricted.is_zero():
        raise ContactError("branch curve contains the line t = 0")
    return restricted.order("y")


@dataclass(frozen=True)
class DoubleCoverCoefficients:
    """Coefficients of z^2 = t y (b0 y^{2g+1} + b10 t + t y sum b1[j] y^j).

    ``b1`` lists the 2g+1 coefficients indexed j = 1 .. 2g+1 (so b1[0]
    multiplies t^2 y^2 in the expanded right-hand side).  b0 and b10 are
    required nonzero.  Coefficients are ints or Fractions, as in
    :class:`PencilCoefficients`.
    """

    g: int
    b0: Fraction
    b10: Fraction
    b1: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "g", _integer(self.g))
        if self.g < 1:
            raise CoefficientError("genus must be at least 1")
        object.__setattr__(self, "b0", _rational(self.b0))
        object.__setattr__(self, "b10", _rational(self.b10))
        object.__setattr__(self, "b1", tuple(map(_rational, self.b1)))
        if not self.b0:
            raise CoefficientError("leading branch coefficient b0 must be nonzero")
        if not self.b10:
            raise CoefficientError("coefficient b10 must be nonzero")
        if len(self.b1) != 2 * self.g + 1:
            raise CoefficientError(
                "expected %d tail coefficients, got %d"
                % (2 * self.g + 1, len(self.b1))
            )

    def branch_polynomial(self) -> SparsePoly:
        """b0 y^{2g+1} + b10 t + t sum_j b1[j-1] y^j, the curve under t*y."""
        terms = {(1, 0, j, 0): value for j, value in enumerate(self.b1, start=1)}
        terms[(0, 0, 2 * self.g + 1, 0)] = self.b0
        terms[(1, 0, 0, 0)] = self.b10
        return SparsePoly(terms)


def pencil_to_double_cover(pc: PencilCoefficients) -> DoubleCoverCoefficients:
    """Transfer pencil coefficients to double-cover coefficients.

    b0 = 4 c_{0,1}, b10 = -4 c_{2,0} c_{0,1}, and the tail comes from
    (sum_k c_{1,k} y^{k-1})^2 - 4 c_{0,1} sum_j c_{2,j} y^{j-1}.  The
    result is re-expanded and compared against the branch curve computed
    through the discriminant; a mismatch would mean the transfer rules
    are wrong, so it raises instead of returning silently.
    """
    g = pc.g
    c01 = pc.coefficient(0, 1)
    c20 = pc.coefficient(2, 0)
    linear = SparsePoly({(0, 0, k - 1, 0): value for k, value in pc.row(1).items()})
    square = linear * linear
    b1 = []
    for j in range(1, 2 * g + 2):
        coef = square.coefficient("y", j - 1).constant_term()
        b1.append(coef - 4 * c01 * pc.coefficient(2, j))
    dc = DoubleCoverCoefficients(g=g, b0=4 * c01, b10=-4 * c20 * c01, b1=tuple(b1))

    expected = branch_decomposition(discriminant_in_x(pencil_equation(pc))).branch
    if dc.branch_polynomial() != expected:
        raise InternalConsistencyError(
            "double-cover coefficients do not reproduce the branch curve"
        )
    return dc


def double_cover_equation(dc: DoubleCoverCoefficients) -> SparsePoly:
    """The defining equation z^2 - t y (b0 y^{2g+1} + b10 t + ty sum b1 y^{j-1})."""
    return Z * Z - T * Y * dc.branch_polynomial()


def double_cover_branch_germ(dc: DoubleCoverCoefficients) -> SparsePoly:
    """Local equation of the branch divisor at the origin: t * y * branch.

    This equals -psi(t, y, 0) for the double-cover equation psi; its
    singularity type drives the surface singularity of the cover.
    """
    return T * Y * dc.branch_polynomial()


def random_pencil(g: int, rng: Random) -> PencilCoefficients:
    """Random valid coefficient tuple with small rational entries.

    Besides c_{2,0} and c_{0,1}, each free coefficient is set with
    probability 1/2.
    """

    def nonzero() -> Fraction:
        num = rng.choice([n for n in range(-9, 10) if n])
        return Fraction(num, rng.randint(1, 5))

    coeffs = {(2, 0): nonzero(), (0, 1): nonzero()}
    for i in range(3):
        for j in range(i * g + 2):
            if (i, j) in ((0, 0), (1, 0), (2, 0), (0, 1)):
                continue
            if rng.random() < 0.5:
                coeffs[(i, j)] = nonzero()
    return PencilCoefficients.from_map(g, coeffs)

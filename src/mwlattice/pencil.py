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

The coefficient classes check their numbers once, on construction.  The
builders that start from them -- ``pencil_equation``,
``DoubleCoverCoefficients.branch_polynomial`` and
``double_cover_branch_germ`` -- trust those checked coefficients and hand
them to the polynomial kernel's unvalidated path (``poly._from_rationals``),
and ``discriminant_in_x`` reads a, b and c in one pass
(``poly._discriminant``).  ``branch_decomposition`` reads the
discriminant's exponents in one pass and divides out t y in one shifted
copy (``poly._shifted``).  ``pencil_to_double_cover`` reads the entries
once, and it keeps its self-check: it re-derives the branch curve through
the discriminant and raises on a mismatch, the transfer rules' only
independent check.
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
from .poly import SparsePoly, Z, _discriminant, _from_rationals, _rational, _shifted


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
        key = (_integer(i), _integer(j))
        for ei, ej, value in self.entries:
            if (ei, ej) == key:
                return value
        return Fraction(0)

    def row(self, i: int) -> dict[int, Fraction]:
        """All nonzero coefficients with the given x-power."""
        i = _integer(i)
        return {j: v for ei, j, v in self.entries if ei == i}


def pencil_equation(pc: PencilCoefficients) -> SparsePoly:
    """Member of the pencil at parameter t: x^2 y^{2g+1} - t sum c x^i y^j."""
    terms = {(1, i, j, 0): -value for i, j, value in pc.entries}
    terms[(0, 2, 2 * pc.g + 1, 0)] = 1
    return _from_rationals(terms)


def discriminant_in_x(p: SparsePoly) -> SparsePoly:
    """b^2 - 4ac for p = a x^2 + b x + c with a, b, c free of x."""
    if p.degree("x") != 2:
        raise ShapeError("polynomial must have degree exactly 2 in x")
    return _discriminant(p, "x")


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
    ts, xs, ys, zs = zip(*disc.exponents())
    if any(xs) or any(zs):
        raise ShapeError("discriminant must be a polynomial in t and y only")
    if min(ts) != 1:
        raise ShapeError("t must divide the discriminant exactly once")
    if min(ys) != 1:
        raise ShapeError("y must divide the discriminant exactly once")
    # the branch curve is disc / (t y): its degrees are one less
    if max(ts) != 2:
        raise ShapeError("branch curve must have degree 1 in t")
    dy = max(ys) - 1
    if dy < 3 or dy % 2 == 0:
        raise ShapeError("branch curve must have odd y-degree at least 3")
    return BranchDecomposition(
        unit=Fraction(1),
        t_exponent=1,
        y_exponent=1,
        branch=_shifted(disc, (-1, 0, -1, 0)),
        genus=(dy - 1) // 2,
    )


def contact_order_at_origin(branch: SparsePoly) -> int:
    """Vanishing order in y of the branch restricted to the line t = 0.

    That is the least y-exponent of the t-free terms.  The contact point
    must already sit at the origin; no translation is attempted here.
    """
    order = min((exp[2] for exp in branch.exponents() if exp[0] == 0), default=None)
    if order is None:
        raise ContactError("branch curve contains the line t = 0")
    return order


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
        return _branch_times_ty(self, 0)


def _branch_times_ty(dc: DoubleCoverCoefficients, s: int) -> SparsePoly:
    """(t y)^s times the branch curve, built from the checked coefficients."""
    terms = {(1 + s, 0, j + s, 0): value for j, value in enumerate(dc.b1, start=1)}
    terms[(s, 0, 2 * dc.g + 1 + s, 0)] = dc.b0
    terms[(1 + s, 0, s, 0)] = dc.b10
    return _from_rationals(terms)


def pencil_to_double_cover(pc: PencilCoefficients) -> DoubleCoverCoefficients:
    """Transfer pencil coefficients to double-cover coefficients.

    b0 = 4 c_{0,1}, b10 = -4 c_{2,0} c_{0,1}, and the tail comes from
    (sum_k c_{1,k} y^{k-1})^2 - 4 c_{0,1} sum_j c_{2,j} y^{j-1}, read
    off the entries in one pass.  The result is re-expanded and compared
    against the branch curve computed through the discriminant; a
    mismatch would mean the transfer rules are wrong, so it raises
    instead of returning silently.
    """
    g = pc.g
    linear, row2 = [], {}
    for i, j, value in pc.entries:
        if i == 0:  # c_{0,0} is zero, so this is c_{0,1}
            c01 = value
        elif i == 1:  # c_{1,j} multiplies y^{j-1}; c_{1,0} is zero
            linear.append((j - 1, value))
        elif j == 0:
            c20 = value
        else:
            row2[j] = value
    # b1[j-1] = [y^{j-1}] (sum_k c_{1,k} y^{k-1})^2 - 4 c_{0,1} c_{2,j}
    b1 = [0] * (2 * g + 1)
    for n, (k, u) in enumerate(linear):
        b1[2 * k] += u * u
        for m, w in linear[n + 1:]:
            b1[k + m] += 2 * u * w
    for j, value in row2.items():
        b1[j - 1] -= 4 * c01 * value
    dc = DoubleCoverCoefficients(g=g, b0=4 * c01, b10=-4 * c20 * c01, b1=tuple(b1))

    expected = branch_decomposition(discriminant_in_x(pencil_equation(pc))).branch
    if dc.branch_polynomial() != expected:
        raise InternalConsistencyError(
            "double-cover coefficients do not reproduce the branch curve"
        )
    return dc


def double_cover_equation(dc: DoubleCoverCoefficients) -> SparsePoly:
    """The defining equation z^2 - t y (b0 y^{2g+1} + b10 t + ty sum b1 y^{j-1})."""
    return Z * Z - double_cover_branch_germ(dc)


def double_cover_branch_germ(dc: DoubleCoverCoefficients) -> SparsePoly:
    """Local equation of the branch divisor at the origin: t * y * branch.

    This equals -psi(t, y, 0) for the double-cover equation psi; its
    singularity type drives the surface singularity of the cover.
    """
    return _branch_times_ty(dc, 1)


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

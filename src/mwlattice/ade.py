"""Exact recognition of simple plane-curve singularities.

``classify_ade_germ`` decides whether a germ f(u, v) vanishing to order
at least 2 at the origin is a simple singularity and names its type:
A(k) for u^2 + v^{k+1}, D(k) for v(u^2 + v^{k-2}), E(6), E(7), E(8), or
NotSimple.  A configurable step budget guards against nonterminating
reductions; exceeding it yields the separate verdict Unresolved.

Multiplicity 2 goes through the A-chain: complete the square on the
quadratic part, then absorb the u-linear tail one lowest term at a time
until the u-free tail dominates.  Multiplicity 3 splits on the root
pattern of the cubic form: three simple roots give D(4); a double root
leads to the D-chain around the normal form u^2 v + v^{k-1}; a triple
root leads to the E-decision governed by the orders of the u-linear and
u-free tails, with u^2-tail terms absorbed as needed.  Multiplicity 4 or
more is never simple.  Negligibility of remaining terms is decided by
the weights of the candidate normal form, so every verdict is exact.

The two local variables ride in the t and y slots of SparsePoly; audit
messages call them u and v.  Every coordinate change is an exact
rational substitution and is recorded in the audit log.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, InternalConsistencyError, ShapeError
from .poly import SparsePoly, T, Y

KIND_A = "A"
KIND_D = "D"
KIND_E = "E"
KIND_NOT_SIMPLE = "NotSimple"
KIND_UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class GermClassification:
    """Verdict of the germ classifier plus the audit trail that led there."""

    kind: str
    index: int | None
    coordinate_changes: tuple[str, ...] = ()
    detail: str = ""

    def __post_init__(self):
        if self.kind == KIND_A:
            if self.index is None or self.index < 1:
                raise ValueError("A-type index must be at least 1")
        elif self.kind == KIND_D:
            if self.index is None or self.index < 4:
                raise ValueError("D-type index must be at least 4")
        elif self.kind == KIND_E:
            if self.index not in (6, 7, 8):
                raise ValueError("E-type index must be 6, 7 or 8")
        elif self.kind in (KIND_NOT_SIMPLE, KIND_UNRESOLVED):
            if self.index is not None:
                raise ValueError("no index allowed for %s" % self.kind)
        else:
            raise ValueError("unknown classification kind %r" % self.kind)

    @property
    def label(self) -> str:
        return self.kind if self.index is None else "%s(%d)" % (self.kind, self.index)

    def __str__(self) -> str:
        return self.label


class _BudgetExceeded(Exception):
    pass


class _State:
    """Mutable germ plus audit log and remaining step budget."""

    def __init__(self, f: SparsePoly, budget: int):
        self.f = f
        self.budget = budget
        self.audit: list[str] = []

    def spend(self, message: str) -> None:
        if len(self.audit) >= self.budget:
            raise _BudgetExceeded
        self.audit.append(message)

    def shift_u(self, s: Fraction, power: int) -> None:
        """u -> u - s v^power."""
        self.spend("u -> u - (%s) v^%d" % (s, power))
        self.f = self.f.substitute("t", T - SparsePoly.monomial(s, y=power))

    def shift_v(self, s: Fraction, power: int) -> None:
        """v -> v - s u^power."""
        self.spend("v -> v - (%s) u^%d" % (s, power))
        self.f = self.f.substitute("y", Y - SparsePoly.monomial(s, t=power))

    def linear(self, a, b, c, d) -> None:
        """Substitute u = a u' + b v', v = c u' + d v' (primes dropped)."""
        if a * d - b * c == 0:
            raise InternalConsistencyError("attempted singular linear change")
        if (a, b, c, d) == (1, 0, 0, 1):
            return
        self.spend("u, v -> (%s) u + (%s) v, (%s) u + (%s) v" % (a, b, c, d))
        u_expr = SparsePoly.monomial(a, x=1) + SparsePoly.monomial(b, z=1)
        v_expr = SparsePoly.monomial(c, x=1) + SparsePoly.monomial(d, z=1)
        g = self.f.substitute("t", u_expr).substitute("y", v_expr)
        self.f = g.substitute("x", T).substitute("z", Y)

    def done(self, kind: str, index: int | None, detail: str) -> GermClassification:
        return GermClassification(kind, index, tuple(self.audit), detail)


# ---------------------------------------------------------------------------
# univariate helpers over the rationals (dense coefficient lists, low first)


def _trimmed(p) -> list[Fraction]:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p) -> list[Fraction]:
    return [i * p[i] for i in range(1, len(p))]


def _poly_mod(a, b) -> list[Fraction]:
    a = _trimmed(a)
    b = _trimmed(b)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd(a, b) -> list[Fraction]:
    """Monic gcd; the zero polynomial is the gcd of (0, 0)."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _deflate(p, root) -> list[Fraction]:
    """Exact division by (w - root); the remainder must vanish."""
    p = _trimmed(p)
    out: list[Fraction] = [Fraction(0)] * (len(p) - 1)
    carry = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        carry = p[i] + carry * root
        out[i - 1] = carry
    if p[0] + carry * root != 0:
        raise InternalConsistencyError("claimed root does not divide")
    return out


# ---------------------------------------------------------------------------
# germ bookkeeping


def _u_part(f: SparsePoly, k: int) -> SparsePoly:
    """Coefficient of u^k as a polynomial in v."""
    return f.coefficient("t", k)


def _order(p: SparsePoly) -> int | None:
    """v-order, or None for the zero polynomial."""
    return None if p.is_zero() else p.order("y")


def _lowest(p: SparsePoly) -> tuple[int, Fraction]:
    k = p.order("y")
    return k, p.coefficient("y", k).constant_term()


def _pure_u_terms(f: SparsePoly) -> list[tuple[int, Fraction]]:
    """Terms u^h with no v factor, h >= 1, sorted by h."""
    out = []
    for exp, coef in f.terms.items():
        if exp[2] == 0 and exp[0] >= 1:
            out.append((exp[0], coef))
    return sorted(out)


# ---------------------------------------------------------------------------
# multiplicity-2 reduction


def _a_chain(state: _State) -> GermClassification:
    """Quadratic part is now lam * u^2; absorb the u-linear tail."""
    while True:
        b_tail = _u_part(state.f, 1)
        c_tail = _u_part(state.f, 0)
        if b_tail.is_zero() and c_tail.is_zero():
            return state.done(
                KIND_NOT_SIMPLE, None, "germ has a repeated branch u = 0"
            )
        k_c = _order(c_tail)
        k_b = _order(b_tail)
        if k_c is not None and (k_b is None or 2 * k_b > k_c):
            return state.done(KIND_A, k_c - 1, "normal form u^2 + v^%d" % k_c)
        # B is nonzero here (B = 0 with C != 0 decides above, B = C = 0
        # rejects); absorbing its lowest term feeds C eventually.
        lam = _u_part(state.f, 2).constant_term()
        if lam == 0:
            raise InternalConsistencyError("lost the u^2 coefficient")
        j, beta = _lowest(b_tail)
        state.shift_u(beta / (2 * lam), j)


# ---------------------------------------------------------------------------
# multiplicity-3 reductions


def _d_chain(state: _State, kappa: Fraction) -> GermClassification:
    """Cubic part is now kappa * u^2 v; settle which D(k) this is.

    Against the normal form u^2 v + v^r, a term u v^j is negligible iff
    2j > r + 1 and a term u^h (no v) iff h(r-1) > 2r; everything else
    with u-exponent >= 2 is negligible automatically.
    """
    while True:
        b_tail = _u_part(state.f, 1)
        c_tail = _u_part(state.f, 0)
        if b_tail.is_zero() and c_tail.is_zero():
            return state.done(
                KIND_NOT_SIMPLE, None, "germ has a repeated branch u = 0"
            )
        r = _order(c_tail)
        k_b = _order(b_tail)
        if r is not None and (k_b is None or 2 * k_b > r + 1):
            blocking = [
                (h, coef)
                for h, coef in _pure_u_terms(state.f)
                if h * (r - 1) <= 2 * r
            ]
            if not blocking:
                return state.done(
                    KIND_D, r + 1, "normal form u^2 v + v^%d" % r
                )
        if k_b is not None and (r is None or 2 * k_b <= r + 1):
            j, beta = _lowest(b_tail)
            state.shift_u(beta / (2 * kappa), j - 1)
            continue
        pure = [
            (h, coef)
            for h, coef in _pure_u_terms(state.f)
            if r is None or h * (r - 1) <= 2 * r
        ]
        if not pure:
            raise InternalConsistencyError("no reduction step applies")
        h, gamma = pure[0]
        state.shift_v(gamma / kappa, h - 2)


def _e_chain(state: _State, lam: Fraction) -> GermClassification:
    """Cubic part is now lam * u^3; decide E(6)/E(7)/E(8) or reject.

    The u-free order r_C and u-linear order r_B determine the type once
    the u^2-tail is out of the way: r_C = 4 gives E(6); r_B = 3 with
    r_C >= 5 gives E(7); r_C = 5 with r_B >= 4 gives E(8); anything
    deeper is not simple.
    """
    while True:
        r_c = _order(_u_part(state.f, 0))
        r_b = _order(_u_part(state.f, 1))
        if r_c == 4:
            return state.done(KIND_E, 6, "normal form u^3 + v^4")
        if r_b == 3 and (r_c is None or r_c >= 5):
            return state.done(KIND_E, 7, "normal form u^3 + u v^3")
        if r_c == 5 and (r_b is None or r_b >= 4):
            return state.done(KIND_E, 8, "normal form u^3 + v^5")
        quad_tail = _u_part(state.f, 2)
        if quad_tail.is_zero():
            return state.done(
                KIND_NOT_SIMPLE, None, "tails vanish past the E(8) range"
            )
        j, coef = _lowest(quad_tail)
        state.shift_u(coef / (3 * lam), j)


def _classify_mult_two(state: _State) -> GermClassification:
    f = state.f
    a = f.coefficient("t", 2).constant_term()
    b = f.coefficient("t", 1).coefficient("y", 1).constant_term()
    c = f.coefficient("y", 2).coefficient("t", 0).constant_term()
    if b * b - 4 * a * c != 0:
        return state.done(KIND_A, 1, "nondegenerate quadratic part")
    if a == 0:
        state.linear(0, 1, 1, 0)
        a, c = c, a
    if b != 0:
        state.shift_u(b / (2 * a), 1)
    return _a_chain(state)


def _classify_mult_three(state: _State) -> GermClassification:
    f = state.f
    cubic = [
        f.coefficient("t", i).coefficient("y", 3 - i).constant_term()
        for i in range(4)
    ]
    top = max(i for i in range(4) if cubic[i] != 0)
    q = _trimmed(cubic[: top + 1])

    # Root pattern of the cubic form: the line v = 0 carries multiplicity
    # 3 - top, the rest follows the univariate polynomial q.
    if top == 3:
        g1 = _poly_gcd(q, _derivative(q))
        squares = len(g1) - 1
    elif top == 2:
        squares = 0 if q[1] * q[1] - 4 * q[2] * q[0] != 0 else 1
    else:
        squares = None  # v-multiplicity 3 - top >= 2 dominates

    if (top == 3 and squares == 0) or (top == 2 and squares == 0):
        return state.done(KIND_D, 4, "three distinct tangent lines")

    if top == 1 or (top == 2 and squares == 1) or (top == 3 and squares == 1):
        # Double line l1, simple line l2; move l1 to u = 0 and l2 to v = 0.
        if top == 1:
            l1, l2 = (Fraction(0), Fraction(1)), (q[1], q[0])
            kappa = Fraction(1)
        elif top == 2:
            root = -q[1] / (2 * q[2])
            l1, l2 = (Fraction(1), -root), (Fraction(0), Fraction(1))
            kappa = q[2]
        else:
            root = -g1[0]
            rest = _deflate(_deflate(q, root), root)
            simple = -rest[0] / rest[1]
            l1, l2 = (Fraction(1), -root), (Fraction(1), -simple)
            kappa = q[3]
        det = l1[0] * l2[1] - l1[1] * l2[0]
        state.linear(l2[1] / det, -l1[1] / det, -l2[0] / det, l1[0] / det)
        return _d_chain(state, kappa)

    # Triple line: move it to u = 0 so the cubic part becomes lam * u^3.
    if top == 0:
        state.linear(0, 1, 1, 0)
        lam = q[0]
    else:
        root = -g1[1] / 2
        state.linear(Fraction(1), root, Fraction(0), Fraction(1))
        lam = q[3]
    return _e_chain(state, lam)


def default_step_budget(f: SparsePoly) -> int:
    """Step allowance scaling with degree; ample for double-cover germs."""
    return max(8, 4 * (f.total_degree() - 2))


def classify_ade_germ(
    f: SparsePoly, max_steps: int | None = None
) -> GermClassification:
    """Classify a plane-curve germ in the local variables (u, v) = (t, y).

    The germ must vanish to order at least 2 at the origin.  Returns a
    GermClassification whose kind is A, D, E, NotSimple, or Unresolved
    when the reduction exceeds ``max_steps`` coordinate changes.  A
    negative ``max_steps`` raises ConfigurationError.
    """
    if max_steps is not None and max_steps < 0:
        raise ConfigurationError("max_steps must be nonnegative, got %d" % max_steps)
    if f.uses("x") or f.uses("z"):
        raise ShapeError("germ must involve only the two local variables")
    if f.is_zero():
        return GermClassification(KIND_NOT_SIMPLE, None, (), "zero germ")
    mult = min(sum(exp) for exp in f.terms)
    if mult < 2:
        raise ShapeError("germ must vanish to order at least 2 at the origin")
    if mult >= 4:
        return GermClassification(
            KIND_NOT_SIMPLE, None, (), "multiplicity %d exceeds 3" % mult
        )
    budget = default_step_budget(f) if max_steps is None else max_steps
    state = _State(f, budget)
    try:
        if mult == 2:
            return _classify_mult_two(state)
        return _classify_mult_three(state)
    except _BudgetExceeded:
        return GermClassification(
            KIND_UNRESOLVED,
            None,
            tuple(state.audit),
            "no verdict within %d coordinate changes" % budget,
        )

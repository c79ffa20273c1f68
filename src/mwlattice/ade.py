"""Exact recognition of simple plane-curve singularities.

``classify_ade_germ`` decides whether a germ f(u, v) vanishing to order
at least 2 at the origin is a simple singularity and names its type:
A(k) for u^2 + v^{k+1}, D(k) for v(u^2 + v^{k-2}), E(6), E(7), E(8), or
NotSimple.  A configurable step budget guards against nonterminating
reductions; exceeding it yields the separate verdict Unresolved.

Multiplicity 2 goes through the A-chain: complete the square on the
quadratic part, then absorb the u-linear tail one lowest term at a time
until the u-free tail dominates.  Multiplicity 3 reads the tangent lines
off the Hessian of the cubic part, a binary quadratic with -3 times the
cubic's discriminant: if that is nonzero the three lines are distinct,
D(4); a vanishing Hessian marks a triple line, which leads to the
E-decision, read off the orders of the u-linear and u-free tails without
any further coordinate change; otherwise the Hessian's double root is the
double line, which leads to the D-chain around the normal form
u^2 v + v^{k-1}.  Multiplicity 4 or more is never simple.  Negligibility
of remaining terms is decided by the weights of the candidate normal
form, so every verdict is exact.

The two local variables ride in the t and y slots of SparsePoly; audit
messages call them u and v.  Every coordinate change is an exact
rational substitution and is recorded in the audit log; the swap
u <-> v exchanges exponents, so its cost does not grow with the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, InternalConsistencyError, ShapeError
from .matrices import _integer
from .poly import SparsePoly, T, Y, _swap_t_y

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
        if (a, b, c, d) == (0, 1, 1, 0):
            # u <-> v only moves exponents; a substitution would build
            # every power of the replacement up to the germ's degree
            self.f = _swap_t_y(self.f)
            return
        u_expr = SparsePoly.monomial(a, x=1) + SparsePoly.monomial(b, z=1)
        v_expr = SparsePoly.monomial(c, x=1) + SparsePoly.monomial(d, z=1)
        g = self.f.substitute("t", u_expr).substitute("y", v_expr)
        self.f = g.substitute("x", T).substitute("z", Y)

    def done(self, kind: str, index: int | None, detail: str) -> GermClassification:
        return GermClassification(kind, index, tuple(self.audit), detail)


# ---------------------------------------------------------------------------
# germ bookkeeping


def _tail_order(f: SparsePoly, k: int) -> int | None:
    """Least j of the terms u^k v^j of f, or None if there is none."""
    return min((exp[2] for exp in f.exponents() if exp[0] == k), default=None)


def _pure_u_powers(f: SparsePoly) -> list[int]:
    """The h >= 1 of the terms u^h with no v factor, sorted."""
    return sorted(exp[0] for exp in f.exponents() if exp[2] == 0 and exp[0] >= 1)


# ---------------------------------------------------------------------------
# multiplicity-2 reduction


def _a_chain(state: _State) -> GermClassification:
    """Quadratic part is now lam (u + s v)^2 with lam != 0; absorb the
    u-linear tail, starting with s v when s != 0."""
    while True:
        f = state.f
        k_b = _tail_order(f, 1)
        k_c = _tail_order(f, 0)
        if k_b is None and k_c is None:
            return state.done(
                KIND_NOT_SIMPLE, None, "germ has a repeated branch u = 0"
            )
        if k_c is not None and (k_b is None or 2 * k_b > k_c):
            return state.done(KIND_A, k_c - 1, "normal form u^2 + v^%d" % k_c)
        # B is nonzero here (B = 0 with C != 0 decides above, B = C = 0
        # rejects); absorbing its lowest term feeds C eventually.
        lam = f.term(t=2)
        if lam == 0:
            raise InternalConsistencyError("lost the u^2 coefficient")
        state.shift_u(f.term(t=1, y=k_b) / (2 * lam), k_b)


# ---------------------------------------------------------------------------
# multiplicity-3 reductions


def _d_chain(state: _State, kappa: Fraction) -> GermClassification:
    """Cubic part is now kappa * u^2 v; settle which D(k) this is.

    Against the normal form u^2 v + v^r, a term u v^j is negligible iff
    2j > r + 1 and a term u^h (no v) iff h(r-1) > 2r; everything else
    with u-exponent >= 2 is negligible automatically.
    """
    while True:
        f = state.f
        k_b = _tail_order(f, 1)
        r = _tail_order(f, 0)
        if k_b is None and r is None:
            return state.done(
                KIND_NOT_SIMPLE, None, "germ has a repeated branch u = 0"
            )
        if k_b is not None and (r is None or 2 * k_b <= r + 1):
            state.shift_u(f.term(t=1, y=k_b) / (2 * kappa), k_b - 1)
            continue
        # Now r is set and every u v^j term is negligible; any pure-u term
        # that is not negligible blocks the normal form.
        blocking = [h for h in _pure_u_powers(f) if h * (r - 1) <= 2 * r]
        if not blocking:
            return state.done(KIND_D, r + 1, "normal form u^2 v + v^%d" % r)
        h = blocking[0]
        state.shift_v(f.term(t=h) / kappa, h - 2)


def _e_chain(state: _State) -> GermClassification:
    """Cubic part is now lam * u^3; decide E(6)/E(7)/E(8) or reject.

    The u-free order r_C >= 4 and the u-linear order r_B >= 3 decide:
    r_C = 4 gives E(6); r_B = 3 with r_C >= 5 gives E(7); r_C = 5 with
    r_B >= 4 gives E(8).  Otherwise r_C >= 6 and r_B >= 4, and the u^2-tail
    starts at u^2 v^2, so every term has weight at least 6 for the weights
    (2, 1) of (u, v): the germ is J10 or worse, not simple.  No coordinate
    change u -> u - s v^j (j >= 2) lowers those weights, so none is made.
    """
    r_c = _tail_order(state.f, 0)
    r_b = _tail_order(state.f, 1)
    if r_c == 4:
        return state.done(KIND_E, 6, "normal form u^3 + v^4")
    if r_b == 3 and (r_c is None or r_c >= 5):
        return state.done(KIND_E, 7, "normal form u^3 + u v^3")
    if r_c == 5 and (r_b is None or r_b >= 4):
        return state.done(KIND_E, 8, "normal form u^3 + v^5")
    return state.done(KIND_NOT_SIMPLE, None, "tails vanish past the E(8) range")


def _classify_mult_two(state: _State) -> GermClassification:
    f = state.f
    a, b, c = f.term(t=2), f.term(t=1, y=1), f.term(y=2)
    if b * b - 4 * a * c != 0:
        return state.done(KIND_A, 1, "nondegenerate quadratic part")
    if a == 0:
        state.linear(0, 1, 1, 0)
    return _a_chain(state)


def _classify_mult_three(state: _State) -> GermClassification:
    f = state.f
    a0, a1, a2, a3 = (f.term(t=i, y=3 - i) for i in range(4))
    # The cubic part a3 u^3 + a2 u^2 v + a1 u v^2 + a0 v^3 has the Hessian
    # h2 u^2 + h1 u v + h0 v^2 (up to a constant), and h1^2 - 4 h2 h0 is -3
    # times its discriminant.  The Hessian of a cube vanishes; that of a
    # cubic with a double line l1 is a nonzero multiple of l1^2.
    h2 = a2 * a2 - 3 * a3 * a1
    h1 = a2 * a1 - 9 * a3 * a0
    h0 = a1 * a1 - 3 * a2 * a0
    if h1 * h1 != 4 * h2 * h0:
        return state.done(KIND_D, 4, "three distinct tangent lines")

    if h2 == h1 == h0 == 0:
        # Triple line: move it to u = 0 so the cubic part becomes lam * u^3.
        if a3 == 0:
            state.linear(0, 1, 1, 0)
        else:
            state.linear(1, -a2 / (3 * a3), 0, 1)
        return _e_chain(state)

    # Double line l1, simple line l2, each as (coefficient of u, of v);
    # the cubic part is kappa * l1^2 * l2.  Move l1 to u = 0, l2 to v = 0.
    if h2 == 0:
        l1, l2, kappa = (0, 1), (a1, a0), 1
    else:
        r = -h1 / (2 * h2)
        l1 = (1, -r)
        if a3 == 0:
            l2, kappa = (0, 1), a2
        else:
            l2, kappa = (1, a2 / a3 + 2 * r), a3
    det = l1[0] * l2[1] - l1[1] * l2[0]
    state.linear(l2[1] / det, -l1[1] / det, -l2[0] / det, l1[0] / det)
    return _d_chain(state, kappa)


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
    negative ``max_steps`` raises ConfigurationError, and one that is not
    an integer TypeError.
    """
    if max_steps is not None:
        max_steps = _integer(max_steps)
        if max_steps < 0:
            raise ConfigurationError("max_steps must be nonnegative, got %d" % max_steps)
    if f.uses("x") or f.uses("z"):
        raise ShapeError("germ must involve only the two local variables")
    if f.is_zero():
        return GermClassification(KIND_NOT_SIMPLE, None, (), "zero germ")
    mult = min(sum(exp) for exp in f.exponents())
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

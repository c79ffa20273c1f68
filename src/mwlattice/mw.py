"""Mordell-Weil group and lattice of a scenario.

The trivial lattice T of a scenario is generated by the zero section, the
fibre class and all declared fibre components.  The Mordell-Weil group is
NS(X)/T, read off the Smith normal form of the generator matrix; its
torsion equals sat(T)/T.  The Mordell-Weil lattice is the dual of the
orthogonal complement of T inside NS(X) with the sign-flipped form, which
is positive definite whenever the scenario is consistent.

``mwl`` reduces the generator matrix once, with its row transform U: the
invariant factors give the group, and the leading rows of U times the
generators a basis of T.  ``mw_group`` needs only the factors and takes
the cheaper route of ``lattice.cokernel_invariants``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import matrices as mx
from .errors import FormError, InvalidModelError
from .fibers import (
    KIND_TRIVIALIZING,
    FiberShape,
    classify_shape,
    dual_graph,
    fiber_multiplicities,
)
from .lattice import (
    AbelianGroupInvariants,
    IntegerLattice,
    _group_from_factors,
    cokernel_invariants,
    dual_gram,
    orthogonal_complement,
    short_vectors_with_norms,
)
from .scenarios import Scenario


def trivial_lattice_generators(scenario: Scenario) -> mx.IntMatrix:
    """Generator rows: zero section, fibre class, every declared component."""
    rows = [scenario.zero_section.coeffs, scenario.fiber.coeffs]
    for fib in scenario.fibers:
        rows.extend(c.coeffs for c in fib.components)
    return tuple(rows)


def mw_group(scenario: Scenario) -> AbelianGroupInvariants:
    """Invariants of NS(X)/T; the free part is the Mordell-Weil rank."""
    gens = trivial_lattice_generators(scenario)
    return cokernel_invariants(gens, scenario.model.rank)


def mw_rank_by_formula(scenario: Scenario) -> int:
    """Rank rho - 2 - sum_t (v_t - 1) from the component counts v_t, off the Smith route."""
    return scenario.model.rho - 2 - sum(len(fib) - 1 for fib in scenario.fibers)


@dataclass(frozen=True)
class MWLReport:
    """Everything the lattice side of a scenario computation produces.

    ``identified_as`` is the D_n^+ label or None, and
    ``identification_reason`` says why (see :class:`LatticeIdentification`).
    """

    scenario: str
    group: AbelianGroupInvariants
    trivial_rank: int
    trivial_discriminant: Fraction
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]
    discriminant: Fraction
    root_count: int
    identified_as: str | None
    identification_reason: str


def mwl(scenario: Scenario) -> MWLReport:
    """Mordell-Weil lattice report for a scenario.

    ``gram`` is the Gram matrix of the dual basis, i.e. of the
    Mordell-Weil lattice itself with its height pairing.  One short-vector
    search up to norm 2 gives both the root count and the D_n^+ check; it
    raises FormError unless the lattice is positive definite.  The group
    and T's basis come from one Smith reduction of T's generators (see the
    module docstring).
    """
    gens = trivial_lattice_generators(scenario)
    u, factors = mx._smith_reduce(gens, track=True)
    group = _group_from_factors(scenario.model.rank, factors)
    t_neg = IntegerLattice(
        mx.matmul(u[:len(factors)], gens), scenario.model.neg_intersection_matrix()
    )
    t_gram = t_neg.gram()
    t_disc = abs(mx.det(t_gram)) if t_gram else Fraction(1)
    complement = orthogonal_complement(t_neg)
    if complement.rank:
        dual, c_disc = dual_gram(complement.gram())
        discriminant = Fraction(1) / c_disc
        found = short_vectors_with_norms(dual, 2)
        root_count = sum(1 for _, nv in found if nv == 2)
        identification = _identify_dn_plus(dual, found, discriminant)
    else:
        dual, discriminant = (), Fraction(1)
        root_count = 0
        identification = LatticeIdentification(None, "rank is 0")
    if group.free_rank != complement.rank:
        raise FormError(
            "complement rank %d does not match Mordell-Weil rank %d"
            % (complement.rank, group.free_rank)
        )
    return MWLReport(
        scenario=scenario.name,
        group=group,
        trivial_rank=t_neg.rank,
        trivial_discriminant=Fraction(t_disc),
        rank=complement.rank,
        gram=dual,
        discriminant=Fraction(discriminant),
        root_count=root_count,
        identified_as=identification.label,
        identification_reason=identification.reason,
    )


@dataclass(frozen=True)
class LatticeIdentification:
    """Outcome of matching a Gram matrix against a known lattice family.

    ``label`` is None when no match was found; ``reason`` then names the
    first invariant that ruled the family out.
    """

    label: str | None
    reason: str

    @property
    def matched(self) -> bool:
        return self.label is not None


def identify_dn_plus(gram) -> LatticeIdentification:
    """Recognize the unimodular lattices D_n^+ (and E_8 for n = 8).

    Requires a square, integral, positive definite unimodular Gram matrix
    whose norm-2 vectors span a sublattice of index 2 with 2n(n-1) roots;
    for n = 8 the 240 roots span everything and the lattice is E_8.
    """
    return _identify_dn_plus(gram, None, None)


def _identify_dn_plus(gram, found, det) -> LatticeIdentification:
    """:func:`identify_dn_plus`, given what the caller already knows.

    ``found`` may carry ``short_vectors_with_norms(gram, 2)`` and ``det``
    |det gram|; either is computed here when None.
    """

    def miss(reason: str) -> LatticeIdentification:
        return LatticeIdentification(None, reason)

    gram = tuple(map(tuple, gram))
    n = len(gram)
    if any(len(row) != n for row in gram):
        return miss("Gram matrix is not square")
    if n == 0:
        return miss("rank is 0")
    try:
        igram = mx.int_matrix(gram)
    except ValueError:
        return miss("Gram matrix is not integral")
    d = abs(mx.det(igram)) if det is None else det
    if d != 1:
        return miss("determinant is %s, expected 1" % d)
    if found is None:
        try:
            found = short_vectors_with_norms(igram, 2)
        except FormError:
            return miss("Gram matrix is not positive definite")
    # Z^n carries the same root data as D_n^+ but contains unit vectors;
    # the two coincide only at n = 4, where D_4^+ is Z^4.
    if n != 4 and any(nv == 1 for _, nv in found):
        return miss("lattice contains norm-1 vectors")
    roots = [v for v, nv in found if nv == 2]
    count = len(roots)
    if count == 0:
        return miss("lattice has no norm-2 vectors")
    # ``found`` is sorted and closed under negation, and negation reverses
    # the order, so the upper half holds one root of each +- pair: the
    # same span at half the rows.
    factors = mx.invariant_factors(roots[count // 2:])
    full_rank = len(factors) == n
    if not full_rank:
        return miss("norm-2 vectors span rank %d < %d" % (len(factors), n))
    if n == 8 and count == 240 and all(f == 1 for f in factors):
        return LatticeIdentification("D_8^+ = E_8", "240 roots spanning everything")
    if count != 2 * n * (n - 1):
        return miss("root count %d, expected %d" % (count, 2 * n * (n - 1)))
    torsion = [f for f in factors if f > 1]
    if torsion != [2]:
        return miss("root sublattice index invariants %s, expected [2]" % (torsion,))
    return LatticeIdentification("D_%d^+" % n, "%d roots of index-2 span" % count)


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement between the group-side and fibre-side triviality tests.

    ``agree`` compares MW triviality with the full-tree shape condition.
    """

    scenario: str
    group: AbelianGroupInvariants
    shapes: tuple[FiberShape, ...]
    mw_trivial: bool
    has_trivializing_fiber: bool

    @property
    def agree(self) -> bool:
        return self.mw_trivial == self.has_trivializing_fiber

    def certificate(self) -> dict | None:
        """Evidence for a disagreement, or None when the two sides agree."""
        if self.agree:
            return None
        return {
            "scenario": self.scenario,
            "group": str(self.group),
            "shapes": [str(s) for s in self.shapes],
            "mw_trivial": self.mw_trivial,
            "has_trivializing_fiber": self.has_trivializing_fiber,
        }


def equivalence_check(scenario: Scenario) -> EquivalenceReport:
    """Compare MW triviality (Smith form route) with fibre-shape recognition."""
    model = scenario.model
    if not model.is_maximal:
        raise InvalidModelError(
            "equivalence is only meaningful on maximal models (n = 4g+4)"
        )
    group = mw_group(scenario)
    shapes = []
    for fib in scenario.fibers:
        graph = dual_graph(fib.components)
        mults = fiber_multiplicities(fib.components, scenario.fiber)
        shapes.append(classify_shape(graph, mults))
    has_triv = any(
        s.kind == KIND_TRIVIALIZING and s.genus == model.g for s in shapes
    )
    return EquivalenceReport(
        scenario=scenario.name,
        group=group,
        shapes=tuple(shapes),
        mw_trivial=group.is_trivial,
        has_trivializing_fiber=has_triv,
    )

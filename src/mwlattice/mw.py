"""Mordell-Weil group and lattice of a scenario.

The trivial lattice T of a scenario is generated by the zero section, the
fibre class and all declared fibre components.  The Mordell-Weil group is
NS(X)/T, read off the Smith normal form of the generator matrix; its
torsion equals sat(T)/T.  The Mordell-Weil lattice is the dual of the
orthogonal complement of T inside NS(X) with the sign-flipped form, which
is positive definite whenever the scenario is consistent.

``mwl`` reduces the generator matrix once, with its row transform U: the
invariant factors give the group, and the leading rows of U times the
generators a basis B of T.  No public function returns U, so this is the
one Smith reduction that ``mw`` runs itself; ``mw_group`` is
``cokernel_invariants`` of the generators.  One product F B^T, F the
sign-flipped form, gives T's Gram matrix B (F B^T) and the complement C,
the ``left_kernel_basis`` of F B^T, whose Gram matrix is C F C^T.  These
integer rows pass between stages unchecked; they are independent by
construction, so a rank is a row count.  An integer G has an integral
inverse iff det G = +-1 (det G det G^-1 = 1; G^-1 = +-adj G), so the D_n^+
check reads integrality off the discriminant.

D_n^+ is identified by the index of its root span R in the lattice L,
which is unimodular, so L = Z^n in the coordinates of the search.  The
search (``lattice._search``) gives each vector's norm as q / unit, so the
roots are its rows with q = 2 unit, taken once as an array, and a norm-1
vector has q = unit; no tuple or Fraction is built.  The upper-half roots
enter one echelon table, {leading column: sparse row} with positive pivots,
until its n pivots multiply to at most 2; their span R' then has that
index, and R' <= R <= L.  Any echelon basis gives the index as its pivot
product and the same phi below, so no row is reduced above the pivots,
which would only make the Hermite form canonical (Cohen, GTM 138, section
2.4).  Index 1 means R = L.  Index 2 means R' = ker phi for the one nonzero
phi: L -> Z/2, read off the triangular rows mod 2, and one parity pass
over every root, one array step, decides: R = R' when every root is even
under phi, else R = L.  If the roots run out first, the table rows span R
and their Smith reduction gives the factors.  Most roots never enter the
table: on the maximal scenarios of g = 1..5 the interleaved order stops
within 3n of them, where the search's sorted order reaches full rank only
near the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matrices as mx
from .errors import ConfigurationError, FormError, InvalidModelError
from .fibers import (
    KIND_TRIVIALIZING,
    FiberShape,
    classify_shape,
    dual_graph,
    fiber_multiplicities,
)
from .lattice import (
    AbelianGroupInvariants,
    _group_from_factors,
    _search,
    cokernel_invariants,
    dual_gram,
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
    return cokernel_invariants(trivial_lattice_generators(scenario), scenario.model.rank)


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
    and T's basis come from one Smith reduction, the complement and both
    Gram matrices from one product F B^T (see the module docstring).
    """
    gens = trivial_lattice_generators(scenario)
    u, factors = mx._smith_reduce(gens, track=True)
    group = _group_from_factors(scenario.model.rank, factors)
    form = scenario.model.neg_intersection_matrix()
    t_basis = mx.matmul(u[:len(factors)], gens)
    fbt = mx.matmul(form, mx.transpose(t_basis))
    t_gram = mx.matmul(t_basis, fbt)
    t_disc = abs(mx.det(t_gram))
    complement = mx.left_kernel_basis(fbt)
    if complement:
        dual, c_disc = dual_gram(mx.matmul(mx.matmul(complement, form), mx.transpose(complement)))
        discriminant = Fraction(1) / c_disc
        xs, q, unit = _search(dual, 2)
        roots = xs[q == 2 * unit]
        root_count = len(roots)
        identification = (_identify_unimodular(len(dual), roots, (q == unit).any()) if c_disc == 1
                          else _miss("Gram matrix is not integral"))
    else:
        dual, discriminant = (), Fraction(1)
        root_count = 0
        identification = _miss("rank is 0")
    if group.free_rank != len(complement):
        raise FormError(
            "complement rank %d does not match Mordell-Weil rank %d"
            % (len(complement), group.free_rank)
        )
    return MWLReport(
        scenario=scenario.name,
        group=group,
        trivial_rank=len(t_basis),
        trivial_discriminant=t_disc,
        rank=len(complement),
        gram=dual,
        discriminant=discriminant,
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


def _miss(reason: str) -> LatticeIdentification:
    return LatticeIdentification(None, reason)


def identify_dn_plus(gram) -> LatticeIdentification:
    """Recognize the unimodular lattices D_n^+ (and E_8 for n = 8).

    Requires a square, integral, symmetric, positive definite unimodular
    Gram matrix whose norm-2 vectors span a sublattice of index 2 with
    2n(n-1) roots; for n = 8 the 240 roots span everything and the lattice
    is E_8.
    """
    gram = tuple(map(tuple, gram))
    n = len(gram)
    if any(len(row) != n for row in gram):
        return _miss("Gram matrix is not square")
    if n == 0:
        return _miss("rank is 0")
    try:
        igram = mx.int_matrix(gram)
    except ValueError:
        return _miss("Gram matrix is not integral")
    if any(igram[i][j] != igram[j][i] for i in range(n) for j in range(i)):
        return _miss("Gram matrix is not symmetric")
    d = abs(mx.det(igram))
    if d != 1:
        return _miss("determinant is %s, expected 1" % d)
    try:
        xs, q, unit = _search(igram, 2)
    except FormError:
        return _miss("Gram matrix is not positive definite")
    except ConfigurationError as exc:
        return _miss(str(exc))
    return _identify_unimodular(n, xs[q == 2 * unit], (q == unit).any())


def _identify_unimodular(n: int, roots, has_unit_vectors) -> LatticeIdentification:
    """:func:`identify_dn_plus` of a positive definite unimodular lattice of
    rank n > 0, from its ``lattice._search(gram, 2)``: the sorted rows of
    norm 2 and whether any vector has norm 1."""
    # Z^n carries the same root data as D_n^+ but contains unit vectors;
    # the two coincide only at n = 4, where D_4^+ is Z^4.
    if n != 4 and has_unit_vectors:
        return _miss("lattice contains norm-1 vectors")
    count = len(roots)
    if count == 0:
        return _miss("lattice has no norm-2 vectors")
    # The vectors are sorted and closed under negation, and negation
    # reverses the order, so the upper half holds one root of each +- pair:
    # the same span at half the rows.
    factors = _root_span_factors(n, roots[count // 2:])
    if len(factors) != n:
        return _miss("norm-2 vectors span rank %d < %d" % (len(factors), n))
    if n == 8 and count == 240 and all(f == 1 for f in factors):
        return LatticeIdentification("D_8^+ = E_8", "240 roots spanning everything")
    if count != 2 * n * (n - 1):
        return _miss("root count %d, expected %d" % (count, 2 * n * (n - 1)))
    torsion = [f for f in factors if f > 1]
    if torsion != [2]:
        return _miss("root sublattice index invariants %s, expected [2]" % (torsion,))
    return LatticeIdentification("D_%d^+" % n, "%d roots of index-2 span" % count)


def _root_span_factors(n: int, roots) -> tuple[int, ...]:
    """Invariant factors of the span R of ``roots`` inside Z^n, the
    coordinates of a unimodular lattice.

    ``roots`` is an array of rows, int64 or object.  The roots enter one
    echelon table in interleaved order (stride s = ceil(len / n): rows 0,
    s, 2s, ..., then 1, 1 + s, ...), which reaches full rank far sooner
    than the search's sorted order.  The table
    stops as soon as its n pivots multiply to at most 2, the index of the
    span R' of the roots so far; see the module docstring for why the
    factors are then exact.  If the roots run out first, the table rows
    span R and their Smith reduction gives the factors.  Only the rows
    that enter the table become Python ints, one interleaved slice at a
    time.
    """
    table: dict[int, dict] = {}
    stride = -(-len(roots) // n)
    for start in range(stride):
        for root in roots[start::stride].tolist():
            _echelon_insert(table, root)
            if len(table) == n:
                index = 1
                for c, row in table.items():
                    index *= row[c]
                if index == 1:
                    return (1,) * n
                if index == 2:
                    return _index_two_factors(n, table, roots)
    rows = [[row.get(j, 0) for j in range(n)] for row in table.values()]
    return mx.invariant_factors(rows)


def _add_sparse(dst: dict, src: dict, factor: int) -> None:
    # dst += factor * src, for rows stored as {column: nonzero value}
    for j, x in src.items():
        y = dst.get(j, 0) + factor * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def _echelon_insert(table: dict[int, dict], values) -> None:
    """Bring one int row into ``table``, an echelon form kept as
    {leading column: sparse row} with positive pivots.

    Every step is a unimodular row operation, so afterwards the table rows
    span the row lattice of the rows inserted so far.
    """
    row = {j: x for j, x in enumerate(values) if x}
    while row:
        col = min(row)
        pivot = table.get(col)
        if pivot is None:
            if row[col] < 0:
                row = {j: -x for j, x in row.items()}
            table[col] = row
            return
        q = row[col] // pivot[col]
        if q:
            _add_sparse(row, pivot, -q)
        # Euclid on the pair, both positive in ``col``: ``pivot`` ends
        # with their gcd there and ``row`` with a zero.
        while col in row:
            _add_sparse(pivot, row, -(pivot[col] // row[col]))
            pivot, row = row, pivot
        table[col] = pivot


def _index_two_factors(n: int, table: dict[int, dict], roots) -> tuple[int, ...]:
    """Factors of R from a full-rank echelon table whose span R' has index 2.

    R' is the kernel of the one nonzero phi: Z^n -> Z/2.  On triangular rows
    with one pivot 2 at column c2 and pivot 1 elsewhere, back-substitution
    mod 2 gives phi_j = 0 past c2, phi_c2 = 1 and, for c < c2,
    phi_c = sum_{j > c} row_c[j] phi_j.  R' <= R <= Z^n, so R = R' when every
    root is even under phi, and R = Z^n otherwise.  The parity pass over
    the root array (int64 or object) takes each entry's parity before it
    sums, so no int64 sum can wrap.
    """
    c2 = next(c for c, row in table.items() if row[c] == 2)
    phi = [0] * n
    phi[c2] = 1
    for c in range(c2 - 1, -1, -1):  # phi[c] is still 0 here
        phi[c] = sum(x for j, x in table[c].items() if phi[j]) & 1
    if ((roots[:, np.array(phi, dtype=bool)] & 1).sum(axis=1) & 1).any():
        return (1,) * n
    return (1,) * (n - 1) + (2,)


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

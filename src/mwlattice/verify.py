"""End-to-end verification battery.

Every headline claim the package makes is re-checked here from scratch:
frozen matrices and counts on the distinguished scenarios, symbolic
identities on randomized coefficient tuples, and agreement between each
primary algorithm and its independent oracle.  The battery is exposed on
the command line as ``verify-all``; the test suite runs the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import oracles
from .ade import classify_ade_germ
from .catalog import build_catalog
from .fibers import fiber_multiplicities
from .lattice import short_vectors
from .matrices import det, invariant_factors
from .mw import equivalence_check, mw_group, mw_rank_by_formula, mwl
from .pencil import (
    branch_decomposition,
    contact_order_at_origin,
    discriminant_in_x,
    double_cover_branch_germ,
    pencil_equation,
    pencil_to_double_cover,
    random_pencil,
)
from .scenarios import (
    elementary_transformation,
    scenario_all_irreducible,
    scenario_trivial_mw,
)
from .surface import class_from_coeffs, intersect

ORACLE_RANK_LIMIT = 12
# Randomized sample sizes of the seeded criteria.
_PENCIL_SAMPLES = 100
_GERM_SAMPLES = 5
_ISOMETRY_TRIALS = 100
_ORACLE_INSTANCES = 50


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        body = " - %s" % self.detail if self.detail else ""
        return "%s %s%s" % (flag, self.name, body)


def _result(name, failures, detail_ok=""):
    if failures:
        return CriterionResult(name, False, "; ".join(failures))
    return CriterionResult(name, True, detail_ok)


def check_fiber_gram(genera) -> CriterionResult:
    failures = []
    for g in genera:
        comps = scenario_trivial_mw(g).fibers[0].components
        gram = tuple(
            tuple(intersect(a, b) for b in comps) for a in comps
        )
        if gram != oracles.reference_reducible_fiber_gram(g):
            failures.append("g=%d Gram deviates from the reference pattern" % g)
    return _result(
        "fiber-gram", failures, "component Gram matrices match for g in %s" % (tuple(genera),)
    )


def check_trivial_mw(genera) -> CriterionResult:
    failures = []
    for g in genera:
        sc = scenario_trivial_mw(g)
        group = mw_group(sc)
        rank = mw_rank_by_formula(sc)
        if not group.is_trivial:
            failures.append("g=%d group %s is not trivial" % (g, group))
        if rank != 0:
            failures.append("g=%d rank formula gives %d" % (g, rank))
    return _result("trivial-mw", failures, "group and rank formula both trivial")


def check_maximal_mwl(genera) -> CriterionResult:
    failures = []
    for g in genera:
        default = scenario_all_irreducible(g)
        rep = mwl(default)
        n = 4 * g + 4
        if rep.rank != n:
            failures.append("g=%d rank %d != %d" % (g, rep.rank, n))
        if rep.discriminant != 1:
            failures.append("g=%d discriminant %s != 1" % (g, rep.discriminant))
        # D_n^+ has the 2n(n-1) roots of D_n; at n = 8 it is E_8 with 240.
        want = 240 if n == 8 else 2 * n * (n - 1)
        if rep.root_count != want:
            failures.append("g=%d root count %d != %d" % (g, rep.root_count, want))
        label = "D_8^+ = E_8" if n == 8 else "D_%d^+" % n
        # Within reach of the box oracle, every model d = 0..g+1 is checked.
        boxed = rep.rank <= ORACLE_RANK_LIMIT
        for d in range(g + 2) if boxed else (default.model.d,):
            if d == default.model.d:
                model_rep = rep
            else:
                model_rep = mwl(scenario_all_irreducible(g, d))
            if model_rep.identified_as != label:
                failures.append(
                    "g=%d d=%d identified as %r" % (g, d, model_rep.identified_as)
                )
            if boxed:
                gram = model_rep.gram
                box = oracles.brute_force_short_vectors(gram, 2)
                if box != short_vectors(gram, 2):
                    failures.append("g=%d d=%d enumeration oracle disagrees" % (g, d))
    return _result(
        "maximal-mwl",
        failures,
        "ranks, discriminants and root counts as expected",
    )


def check_multiplicity_pattern(genera) -> CriterionResult:
    failures = []
    for g in genera:
        sc = scenario_trivial_mw(g)
        comps = sc.fibers[0].components
        mults = fiber_multiplicities(comps, sc.fiber)
        if mults != oracles.reference_component_multiplicities(g):
            failures.append("g=%d multiplicities %s" % (g, (mults,)))
        total = None
        for m, c in zip(mults, comps):
            total = m * c if total is None else total + m * c
        if total != sc.fiber:
            failures.append("g=%d weighted component sum is not the fibre" % g)
    if 1 in genera:
        sc = scenario_trivial_mw(1)
        mults = fiber_multiplicities(sc.fibers[0].components, sc.fiber)
        if mults != (1, 2, 3, 4, 5, 6, 4, 3, 2):
            failures.append("g=1 pattern %s" % (mults,))
    return _result(
        "multiplicity-pattern", failures, "patterns match, weighted sums give F"
    )


def check_component_relation(genera) -> CriterionResult:
    """First component expressed through the fibre and the later components."""
    failures = []
    for g in genera:
        sc = scenario_trivial_mw(g)
        comps = sc.fibers[0].components
        acc = sc.fiber
        for k in range(1, 4 * g + 2):
            acc = acc - (k + 1) * comps[k]
        acc = acc - (2 * g + 2) * comps[4 * g + 2]
        acc = acc - (2 * g + 1) * comps[4 * g + 3]
        acc = acc - 2 * comps[4 * g + 4]
        if acc != comps[0]:
            failures.append("g=%d component relation fails" % g)
    return _result("component-relation", failures, "relation holds exactly")


def check_equivalence_catalog() -> CriterionResult:
    failures = []
    count = 0
    for entry in build_catalog():
        count += 1
        rep = equivalence_check(entry.scenario)
        if not rep.agree:
            failures.append("%s certificate %s" % (entry.name, rep.certificate()))
        if rep.group != entry.expected_group:
            failures.append(
                "%s group %s != %s" % (entry.name, rep.group, entry.expected_group)
            )
        kinds = tuple(s.kind for s in rep.shapes)
        if kinds != entry.expected_shapes:
            failures.append("%s shapes %s" % (entry.name, (kinds,)))
    return _result(
        "equivalence-catalog",
        failures,
        "%d scenarios, group side and shape side agree" % count,
    )


def check_discriminant_identity(genera, seed) -> CriterionResult:
    failures = []
    rng = Random(seed)
    for g in genera:
        for trial in range(_PENCIL_SAMPLES):
            pc = random_pencil(g, rng)
            direct = discriminant_in_x(pencil_equation(pc))
            if direct != oracles.factored_pencil_discriminant(pc):
                failures.append("g=%d trial %d mismatch" % (g, trial))
                break
    return _result(
        "discriminant-identity",
        failures,
        "%d random tuples per genus match the factored form" % _PENCIL_SAMPLES,
    )


def check_contact_order(genera, seed) -> CriterionResult:
    failures = []
    rng = Random(seed)
    for g in genera:
        for trial in range(_PENCIL_SAMPLES):
            pc = random_pencil(g, rng)
            bd = branch_decomposition(discriminant_in_x(pencil_equation(pc)))
            if bd.genus != g:
                failures.append("g=%d trial %d inferred genus %d" % (g, trial, bd.genus))
                break
            order = contact_order_at_origin(bd.branch)
            if order != 2 * g + 1:
                failures.append("g=%d trial %d contact %d" % (g, trial, order))
                break
    return _result(
        "contact-order", failures, "contact order is 2g+1 on all samples"
    )


def check_ade_germ(genera, seed) -> CriterionResult:
    failures = []
    rng = Random(seed)
    for g in genera:
        want = "D(%d)" % (4 * g + 4)
        for trial in range(_GERM_SAMPLES):
            pc = random_pencil(g, rng)
            germ = double_cover_branch_germ(pencil_to_double_cover(pc))
            got = classify_ade_germ(germ).label
            if got != want:
                failures.append("g=%d trial %d got %s" % (g, trial, got))
                break
    return _result("ade-germ", failures, "double-cover germ classifies as D(4g+4)")


def check_isometry(genera, seed) -> CriterionResult:
    failures = []
    rng = Random(seed)
    for g in genera:
        sc = scenario_trivial_mw(g)
        iso = elementary_transformation(sc)
        if abs(det(iso.matrix)) != 1:
            failures.append("g=%d determinant %s" % (g, det(iso.matrix)))
        width = 2 + sc.model.n
        for trial in range(_ISOMETRY_TRIALS):
            a = class_from_coeffs(
                sc.model, tuple(rng.randint(-9, 9) for _ in range(width))
            )
            b = class_from_coeffs(
                sc.model, tuple(rng.randint(-9, 9) for _ in range(width))
            )
            if intersect(a, b) != intersect(iso.apply(a), iso.apply(b)):
                failures.append("g=%d trial %d product not preserved" % (g, trial))
                break
    return _result(
        "isometry", failures, "%d random products preserved per genus" % _ISOMETRY_TRIALS
    )


def check_oracle_equivalence(seed) -> CriterionResult:
    failures = []
    rng = Random(seed)
    for trial in range(_ORACLE_INSTANCES):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
        )
        if invariant_factors(m) != oracles.invariant_factors_by_minors(m):
            failures.append("smith trial %d mismatch" % trial)
            break
    for trial in range(_ORACLE_INSTANCES):
        n = rng.randint(1, 4)
        while True:
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if abs(det(tuple(tuple(r) for r in b))) > 0:
                break
        gram = tuple(
            tuple(sum(b[i][k] * b[j][k] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        bound = rng.randint(1, 8)
        direct = short_vectors(gram, bound)
        box = oracles.brute_force_short_vectors(gram, bound)
        if direct != box:
            failures.append("enumeration trial %d mismatch" % trial)
            break
    return _result(
        "oracle-equivalence",
        failures,
        "%d Smith and %d enumeration instances agree"
        % (_ORACLE_INSTANCES, _ORACLE_INSTANCES),
    )


def run_all(genera=(1, 2, 3), seed=0) -> tuple[CriterionResult, ...]:
    genera = tuple(genera)
    return (
        check_fiber_gram(genera),
        check_trivial_mw(genera),
        check_maximal_mwl(genera),
        check_multiplicity_pattern(genera),
        check_component_relation(genera),
        check_equivalence_catalog(),
        check_discriminant_identity(genera, seed),
        check_contact_order(genera, seed + 1),
        check_ade_germ(genera, seed + 2),
        check_isometry(genera, seed + 3),
        check_oracle_equivalence(seed + 4),
    )

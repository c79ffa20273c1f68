"""Seeded inputs, jobs and exact output checks of the three workloads.

A workload is a fixed list of jobs, one *pass*, generated from the seed.
``run`` executes one job through the library's public API and is the only
code that is timed; ``check`` verifies its output exactly and ``summary``
gives the canonical text whose hash is the job's output digest.  Jobs call
the library through module attributes (``mw.mwl``, not a copied name), so
the tracer's wrappers see every call.

Each pass draws its random parts from the seed but keeps the same mix of
job shapes whatever the seed, so a run's cost does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from mwlattice import ade, lattice, mw, oracles, pencil, scenarios, surface
from mwlattice.poly import SparsePoly, T, Y

MAX_ORACLE_RANK = 8


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    genus: int
    data: object
    expected: object = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# mwl-ladder: the paper's maximal lattices D_8^+ = E_8 ... D_24^+.

# (genus, how many distinct degrees d the seed picks from 0 .. g+1): every d
# of g = 1 twice, every d of g = 2, four of five at g = 3, one at g = 4, 5.
# The g = 4 and 5 jobs take about 60% of a pass.  A run makes two passes,
# 32 jobs, and job times jump about 2x from genus to genus: the median falls
# in the middle of the g = 2 jobs and the tail percentile (p68) among the
# g = 3 jobs.  A median at the edge of a cluster is the slowest or fastest
# of its jobs and moves by a quarter when the machine slows one job down.
LADDER_MIX = ((1, 3), (1, 3), (2, 4), (3, 4), (4, 1), (5, 1))
LADDER_TINY = ((1, 1), (2, 1))


def ladder_inputs(rng: random.Random, tiny: bool) -> list[Job]:
    jobs = []
    for g, count in LADDER_TINY if tiny else LADDER_MIX:
        for d in sorted(rng.sample(range(g + 2), count)):
            sc = scenarios.scenario_all_irreducible(g, d)
            jobs.append(Job("%02d-g%d-d%d" % (len(jobs), g, d), "mwl", g, sc))
    rng.shuffle(jobs)
    return jobs


def ladder_run(job: Job):
    return mw.mwl(job.data)


def ladder_check(job: Job, report) -> str | None:
    n = 4 * job.genus + 4
    if report.group.free_rank != n or report.group.torsion:
        return "group %s, expected Z^%d" % (report.group, n)
    if report.rank != n or report.discriminant != 1:
        return "rank %d discriminant %s, expected %d and 1" % (
            report.rank, report.discriminant, n)
    roots = 240 if n == 8 else 2 * n * (n - 1)
    if report.root_count != roots:
        return "root count %d, expected %d" % (report.root_count, roots)
    label = "D_8^+ = E_8" if n == 8 else "D_%d^+" % n
    if report.identified_as != label:
        return "identified as %r, expected %r" % (report.identified_as, label)
    return None


def ladder_summary(report) -> str:
    return repr((str(report.group), report.rank, report.trivial_rank,
                 str(report.trivial_discriminant), str(report.discriminant),
                 report.root_count, report.identified_as,
                 [[str(x) for x in row] for row in report.gram]))


# ---------------------------------------------------------------------------
# survey-crosscheck: random reducible-fibre scenarios at g = 1..3.

# One round: (genus, cycle lengths of the reducible fibres, degree d, or
# None for a d that steps through 0 .. g+1 from round to round).  The seed
# picks the exceptional curves of each cycle, the order of the cycles and
# the job order.  Lengths and degrees are fixed because a job's cost depends
# on them (a g = 3 job costs up to 2x more at d = 3 than at d = 0): with
# seeded lengths the tail percentile moved by a third from one seed to the
# next, with seeded degrees its spread over ten seeds was 18%, not 7%.  The
# zero-fibre jobs are E_8 at every d, whose size-reduced oracle boxes differ
# (7e5 and 1.8e6 points); zero fibres at g = 2, 3 is mwl-ladder's job.
SURVEY_MIX = (
    (1, (), 0), (1, (), 1), (1, (), 2),
    (1, (2,), None), (1, (3,), None), (1, (4,), None), (1, (5,), None),
    (1, (2, 2), None), (1, (2, 3), None), (1, (3, 3), None),
    (2, (2,), None), (2, (4,), None), (2, (5,), None),
    (2, (3, 3), None), (2, (2, 5), None), (2, (3, 5), None),
    (3, (3,), None), (3, (7,), None), (3, (9,), None),
    (3, (4, 5), None), (3, (5, 5), None),
)
# The cost of a reducible-fibre job depends on the basis the Smith form
# yields for the seeded curves (up to 2x for the same cycle lengths), so a
# pass draws every shape four times; the percentiles then rest on many draws.
SURVEY_ROUNDS = 4
SURVEY_TINY = ((1, (), 0), (1, (3,), None), (1, (2, 3), None), (2, (3, 3), None))


def _cycle(model, indices) -> scenarios.ReducibleFiber:
    """Closed chain E_a - E_b, ..., F - E_first + E_last over the given curves."""
    e = lambda i: surface.exceptional(model, i)  # noqa: E731
    comps = [e(a) - e(b) for a, b in zip(indices, indices[1:])]
    comps.append(surface.fiber_class(model) - e(indices[0]) + e(indices[-1]))
    return scenarios.ReducibleFiber(tuple(comps))


def random_scenario(rng: random.Random, g: int, lengths, d):
    """Cycles of the given lengths over disjoint random exceptional curves."""
    model = surface.SurfaceModel.maximal(g, d)
    lengths = list(lengths)
    rng.shuffle(lengths)
    pool = list(range(1, model.n))  # E_n is the zero section
    rng.shuffle(pool)
    fibs = []
    for length in lengths:
        fibs.append(_cycle(model, pool[:length]))
        pool = pool[length:]
    name = "g%d-d%d-c%s" % (g, model.d, "+".join(map(str, lengths)) or "0")
    return scenarios.Scenario(
        name=name,
        model=model,
        fiber=surface.fiber_class(model),
        sections=(surface.exceptional(model, model.n),),
        fibers=tuple(fibs),
    )


def survey_inputs(rng: random.Random, tiny: bool) -> list[Job]:
    jobs = []
    for r in range(1 if tiny else SURVEY_ROUNDS):
        for i, (g, lengths, d) in enumerate(SURVEY_TINY if tiny else SURVEY_MIX):
            sc = random_scenario(rng, g, lengths, (r + i) % (g + 2) if d is None else d)
            rank = sc.model.n - sum(length - 1 for length in lengths)
            jobs.append(Job("%02d-%s" % (len(jobs), sc.name), "scenario", g, sc, rank))
    rng.shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class SurveyResult:
    valid: bool
    group: object
    agree: bool
    report: object
    fincke_pohst: tuple | None
    oracle: tuple | None


def survey_run(job: Job) -> SurveyResult:
    sc = job.data
    valid = scenarios.validate_scenario(sc).ok
    group = mw.mw_group(sc)
    agree = mw.equivalence_check(sc).agree
    report = mw.mwl(sc)
    fp = box = None
    if report.rank <= MAX_ORACLE_RANK:
        fp = lattice.short_vectors(report.gram, 2)
        box = oracles.brute_force_short_vectors(report.gram, 2)
    return SurveyResult(valid, group, agree, report, fp, box)


def survey_check(job: Job, res: SurveyResult) -> str | None:
    sc, rep = job.data, res.report
    if not res.valid:
        return "validate_scenario failed"
    formula = mw.mw_rank_by_formula(sc)
    if not res.group.free_rank == formula == rep.rank == job.expected:
        return "ranks differ: group %d, formula %d, lattice %d, built %d" % (
            res.group.free_rank, formula, rep.rank, job.expected)
    torsion = 1
    for t in res.group.torsion:
        torsion *= t
    # NS(X) is unimodular, so disc(MWL) * disc(T) = |MW torsion|^2.
    if rep.discriminant * rep.trivial_discriminant != torsion * torsion:
        return "disc %s * trivial disc %s != |torsion|^2 = %d" % (
            rep.discriminant, rep.trivial_discriminant, torsion * torsion)
    if not res.agree:
        return "equivalence_check disagrees"
    if res.fincke_pohst != res.oracle:
        return "oracle vectors differ from Fincke-Pohst vectors"
    if rep.rank <= MAX_ORACLE_RANK and res.fincke_pohst is None:
        return "oracle cross-check skipped"
    return None


def survey_summary(res: SurveyResult) -> str:
    rep = res.report
    return repr((res.valid, str(res.group), res.agree, str(rep.discriminant),
                 str(rep.trivial_discriminant), rep.root_count, rep.identified_as,
                 [[str(x) for x in row] for row in rep.gram],
                 res.fincke_pohst, res.oracle))


# ---------------------------------------------------------------------------
# pencil-germs: random pencils through the full symbolic chain, plus known
# ADE germs disguised by a random exact coordinate change.

# Pencil jobs (2-7 ms) are 300 of the 351 jobs of a pass, so the median job
# is a pencil job; the disguised germs (up to 0.6 s) make the tail and most
# of the pass time.
PENCILS_PER_GENUS = 60
GERM_TYPES = tuple(("A", k) for k in range(1, 9)) + tuple(
    ("D", k) for k in range(4, 10)) + (("E", 6), ("E", 7), ("E", 8))
# Nonzero pattern of the linear part (a, b; c, d) of each disguise of a type.
# Classifying costs up to 5x more after a full linear map than after a
# triangular one, and next to nothing after a diagonal one, so every pass
# has the same patterns; the seed draws the entries, the quadratic terms
# and the unit.
LINEAR_SHAPES = ((1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1))


def normal_form(kind: str, k: int) -> SparsePoly:
    u, v = T, Y
    if kind == "A":
        return u * u + v ** (k + 1)
    if kind == "D":
        return u * u * v + v ** (k - 1)
    return {6: u ** 3 + v ** 4, 7: u ** 3 + u * v ** 3, 8: u ** 3 + v ** 5}[k]


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))


def disguise(f: SparsePoly, rng: random.Random, shape) -> SparsePoly:
    """f(a u + b v + e v^2, c u + d v + h u^2) times a unit, ad - bc != 0.

    ``shape`` marks which of a, b, c, d are nonzero.  The x and z slots hold
    the new variables while both substitutions are made, so the change is
    simultaneous; the result is an exact germ with the same singularity
    type as f.
    """
    while True:
        a, b, c, d = (rng.choice((-2, -1, 1, 2)) if nonzero else 0 for nonzero in shape)
        if a * d - b * c:
            break
    e, h, unit = _small_rational(rng), _small_rational(rng), _small_rational(rng)
    u_new = SparsePoly.monomial(a, x=1) + SparsePoly.monomial(b, z=1) + SparsePoly.monomial(e, z=2)
    v_new = SparsePoly.monomial(c, x=1) + SparsePoly.monomial(d, z=1) + SparsePoly.monomial(h, x=2)
    moved = f.substitute("t", u_new).substitute("y", v_new)
    return unit * moved.substitute("x", T).substitute("z", Y)


def pencil_inputs(rng: random.Random, tiny: bool) -> list[Job]:
    jobs = []
    genera = (1, 2) if tiny else (1, 2, 3, 4, 5)
    per_genus = 2 if tiny else PENCILS_PER_GENUS
    for g in genera:
        for i in range(per_genus):
            jobs.append(Job("pencil-g%d-%02d" % (g, i), "pencil", g, pencil.random_pencil(g, rng)))
    types = GERM_TYPES[::6] if tiny else GERM_TYPES
    for kind, k in types:
        label = "%s(%d)" % (kind, k)
        for i, shape in enumerate(LINEAR_SHAPES[-1:] if tiny else LINEAR_SHAPES):
            germ = disguise(normal_form(kind, k), rng, shape)
            jobs.append(Job("germ-%s-%d" % (label, i), "germ", 0, germ, label))
    rng.shuffle(jobs)
    return jobs


def pencil_run(job: Job):
    if job.kind == "germ":
        return (None, None, ade.classify_ade_germ(job.data))
    pc = job.data
    disc = pencil.discriminant_in_x(pencil.pencil_equation(pc))
    branch = pencil.branch_decomposition(disc).branch
    contact = pencil.contact_order_at_origin(branch)
    germ = pencil.double_cover_branch_germ(pencil.pencil_to_double_cover(pc))
    return (disc, contact, ade.classify_ade_germ(germ))


def pencil_check(job: Job, res) -> str | None:
    disc, contact, verdict = res
    if job.kind == "germ":
        if verdict.label != job.expected:
            return "classified as %s, expected %s" % (verdict.label, job.expected)
        return None
    g = job.genus
    if contact != 2 * g + 1:
        return "contact order %d, expected %d" % (contact, 2 * g + 1)
    if verdict.label != "D(%d)" % (4 * g + 4):
        return "germ %s, expected D(%d)" % (verdict.label, 4 * g + 4)
    if disc != oracles.factored_pencil_discriminant(job.data):
        return "discriminant differs from the factored form"
    return None


def _poly_text(p) -> str:
    return "" if p is None else repr(sorted((e, str(c)) for e, c in p.terms.items()))


def pencil_summary(res) -> str:
    disc, contact, verdict = res
    return repr((_poly_text(disc), contact, verdict.label,
                 verdict.coordinate_changes, verdict.detail))


# ---------------------------------------------------------------------------


def _input_text(job: Job) -> str:
    if job.kind in ("mwl", "scenario"):
        return json.dumps(scenarios.scenario_to_json(job.data), sort_keys=True)
    if job.kind == "pencil":
        return repr([(i, j, str(v)) for i, j, v in job.data.entries])
    return _poly_text(job.data)


def inputs_digest(jobs) -> str:
    return digest("\n".join("%s %s" % (job.name, _input_text(job)) for job in jobs))


@dataclass(frozen=True)
class Workload:
    inputs: object
    run: object
    check: object
    summary: object
    # Whole passes an untraced run makes at least, so that the tail
    # percentile has ten or more jobs beyond it.
    min_passes: int


WORKLOADS = {
    "mwl-ladder": Workload(ladder_inputs, ladder_run, ladder_check, ladder_summary, 2),
    "survey-crosscheck": Workload(survey_inputs, survey_run, survey_check, survey_summary, 1),
    "pencil-germs": Workload(pencil_inputs, pencil_run, pencil_check, pencil_summary, 1),
}

"""Fibration scenarios: a surface model plus declared sections and fibers.

A scenario is the combinatorial input to every Mordell-Weil computation:
the model, the fibre class, at least one section, and the components of
each declared reducible fibre.  Constructors build the two distinguished
configurations (the fully irreducible one and the one whose single
reducible fibre forces a trivial Mordell-Weil group); arbitrary scenarios
load from JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import matrices as mx
from .errors import ConfigurationError, InputFormatError, InvalidModelError, MWLatticeError
from .fibers import _component_label, dual_graph, fiber_multiplicities
from .surface import (
    DivisorClass,
    SurfaceModel,
    adjunction_genus,
    canonical_class,
    delta,
    exceptional,
    fiber_class,
    gamma,
    intersect,
)


@dataclass(frozen=True)
class ReducibleFiber:
    """Components of one reducible member of the pencil."""

    components: tuple[DivisorClass, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ConfigurationError("a reducible fibre needs components")

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Scenario:
    """A fibration on a fixed model with declared sections and fibres."""

    name: str
    model: SurfaceModel
    fiber: DivisorClass
    sections: tuple[DivisorClass, ...]
    fibers: tuple[ReducibleFiber, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))
        object.__setattr__(self, "fibers", tuple(self.fibers))
        if not self.sections:
            raise ConfigurationError("a scenario needs at least one section")
        for cls in (self.fiber, *self.sections):
            if cls.model != self.model:
                raise ConfigurationError("class on a different model in scenario")
        for fib in self.fibers:
            for comp in fib.components:
                if comp.model != self.model:
                    raise ConfigurationError("fibre component on a different model")

    @property
    def zero_section(self) -> DivisorClass:
        return self.sections[0]

    @property
    def genus(self) -> int:
        return self.model.g


def scenario_all_irreducible(g: int, d: int | None = None) -> Scenario:
    """Maximal model of genus g with every member of the pencil irreducible."""
    model = SurfaceModel.maximal(g, d)
    return Scenario(
        name="all-irreducible-g%d" % g,
        model=model,
        fiber=fiber_class(model),
        sections=(exceptional(model, model.n),),
        fibers=(),
    )


def scenario_trivial_mw(g: int) -> Scenario:
    """Genus-g configuration whose one reducible fibre kills the Mordell-Weil group.

    On the model with d = g, the fibre breaks into 4g+5 components: a long
    chain of differences of exceptional curves, the strict transform of a
    ruling member through two points, and the strict transform of the
    negative section through one point.  The last exceptional curve is the
    zero section.
    """
    model = SurfaceModel.maximal(g, g)
    n = model.n
    comps = []
    for k in range(4 * g + 3):
        comps.append(exceptional(model, n - 1 - k) - exceptional(model, n - k))
    comps.append(gamma(model) - exceptional(model, 1) - exceptional(model, 2))
    comps.append(delta(model) - exceptional(model, 1))
    return Scenario(
        name="trivial-mw-g%d" % g,
        model=model,
        fiber=fiber_class(model),
        sections=(exceptional(model, n),),
        fibers=(ReducibleFiber(tuple(comps)),),
    )


# ---------------------------------------------------------------------------
# Elementary transformation


@dataclass(frozen=True)
class BasisIsometry:
    """Base change between two models preserving intersection numbers.

    ``matrix`` acts on coefficient tuples as a column transform:
    new = matrix @ old.  Construction verifies M^T G_target M == G_source.
    """

    source: SurfaceModel
    target: SurfaceModel
    matrix: mx.IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", mx.int_matrix(mx.mat(self.matrix)))
        size = self.source.rank
        if self.target.rank != size or len(self.matrix) != size:
            raise ConfigurationError("isometry matrix has the wrong size")
        gs = self.source.intersection_matrix()
        gt = self.target.intersection_matrix()
        lhs = mx.matmul(mx.matmul(mx.transpose(self.matrix), gt), self.matrix)
        if lhs != mx.mat(gs):
            raise ConfigurationError("matrix does not intertwine the forms")

    def apply(self, cls: DivisorClass) -> DivisorClass:
        if cls.model != self.source:
            raise ConfigurationError("class does not live on the source model")
        return DivisorClass(self.target, mx.mat_vec(self.matrix, cls.coeffs))

    def inverse(self) -> "BasisIsometry":
        inv = mx.int_matrix(mx.inverse(self.matrix))
        return BasisIsometry(self.target, self.source, inv)

    def determinant(self) -> int:
        return int(mx.det(self.matrix))


def elementary_transformation(scenario: Scenario) -> BasisIsometry:
    """Isometry induced by blowing down E_1 onto the base of the ruling.

    Precondition: some declared fibre component equals Delta - E_1, i.e.
    the first blown-up point lies on the negative section.  The target
    model has d+1; coefficient tuples (a, b, m_1, rest) are sent to
    (a, a+b-m_1, a-m_1, rest).
    """
    model = scenario.model
    if model.n < 1:
        raise ConfigurationError("transformation needs a blown-up point")
    witness = delta(model) - exceptional(model, 1)
    if not any(
        comp == witness for fib in scenario.fibers for comp in fib.components
    ):
        raise ConfigurationError(
            "no declared component equals Delta - E_1; "
            "the centre of the transformation must lie on the negative section"
        )
    target = SurfaceModel(d=model.d + 1, n=model.n, g=model.g)
    size = model.rank
    rows = [[0] * size for _ in range(size)]
    rows[0][0] = 1
    rows[1][0], rows[1][1], rows[1][2] = 1, 1, -1
    rows[2][0], rows[2][2] = 1, -1
    for i in range(3, size):
        rows[i][i] = 1
    return BasisIsometry(model, target, mx.mat(rows))


def transform_scenario(iso: BasisIsometry, scenario: Scenario) -> Scenario:
    """Push a whole scenario through a basis isometry."""
    return Scenario(
        name=scenario.name + "-transformed",
        model=iso.target,
        fiber=iso.apply(scenario.fiber),
        sections=tuple(iso.apply(s) for s in scenario.sections),
        fibers=tuple(
            ReducibleFiber(tuple(iso.apply(c) for c in fib.components))
            for fib in scenario.fibers
        ),
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    scenario: str
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Structural sanity of a scenario: numerics every fibration must satisfy."""
    checks: list[ValidationCheck] = []
    model = scenario.model
    f = scenario.fiber
    g = model.g

    def add(name, passed, detail=""):
        checks.append(ValidationCheck(name, bool(passed), detail))

    add(
        "picard_number_maximal",
        model.n == 4 * g + 4,
        "rho = %d, expected %d" % (model.rho, 4 * g + 6),
    )
    add("fiber_self_intersection", intersect(f, f) == 0, "F.F = %d" % intersect(f, f))
    kf = intersect(canonical_class(model), f)
    add("fiber_canonical_degree", kf == 2 * g - 2, "K.F = %d" % kf)
    adj = canonical_class(model) + f
    add(
        "adjoint_class_square",
        intersect(adj, adj) == 0,
        "(K+F).(K+F) = %d" % intersect(adj, adj),
    )
    try:
        pa = adjunction_genus(f)
        add("fiber_genus", pa == g, "adjunction genus %d" % pa)
    except InvalidModelError as exc:
        add("fiber_genus", False, str(exc))
    for i, s in enumerate(scenario.sections):
        sf = intersect(s, f)
        ss = intersect(s, s)
        add("section_%d_meets_fiber_once" % i, sf == 1, "S.F = %d" % sf)
        add("section_%d_self_intersection" % i, ss == -1, "S.S = %d" % ss)
    for k, fib in enumerate(scenario.fibers):
        off = [intersect(c, f) for c in fib.components]
        add(
            "fiber_%d_components_orthogonal" % k,
            all(x == 0 for x in off),
            "components meet F in %s" % (off,),
        )
        # A curve has p_a >= 0.  Not p_a = 0: the cycle fibres at g >= 2 have
        # a component of arithmetic genus g - 1.
        for i, c in enumerate(fib.components):
            name = "fiber_%d_component_%d_genus" % (k, i)
            try:
                pa = adjunction_genus(c)
                add(name, pa >= 0, "p_a = %d" % pa)
            except InvalidModelError as exc:
                add(name, False, str(exc))
        try:
            mults = fiber_multiplicities(fib.components, f)
            add("fiber_%d_multiplicities" % k, True, "m = %s" % (mults,))
        except MWLatticeError as exc:
            add("fiber_%d_multiplicities" % k, False, str(exc))
        try:
            graph = dual_graph(fib.components)
            add(
                "fiber_%d_dual_graph" % k,
                graph.is_connected(),
                "" if graph.is_connected() else "dual graph is disconnected",
            )
        except MWLatticeError as exc:
            add("fiber_%d_dual_graph" % k, False, str(exc))
    # Distinct fibres are disjoint curves: no component of one meets (or
    # repeats) a component of another.
    for (k, fa), (l, fb) in combinations(enumerate(scenario.fibers), 2):
        meets = []
        for i, a in enumerate(fa.components):
            for j, b in enumerate(fb.components):
                w = intersect(a, b)
                if w:
                    meets.append("%s of fibre %d meets %s of fibre %d (%d)"
                                 % (_component_label(i), k, _component_label(j), l, w))
        add("fibers_%d_%d_disjoint" % (k, l), not meets, "; ".join(meets))
    return ValidationReport(scenario.name, tuple(checks))


# ---------------------------------------------------------------------------
# JSON form


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "genus": scenario.model.g,
        "degree": scenario.model.d,
        "n": scenario.model.n,
        "fiber": list(scenario.fiber.coeffs),
        "sections": [list(s.coeffs) for s in scenario.sections],
        "fibers": [
            {"components": [list(c.coeffs) for c in fib.components]}
            for fib in scenario.fibers
        ],
    }


def _is_int(obj) -> bool:
    """A JSON integer; true and false are bools, not integers."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _int_list(obj, what: str) -> list[int]:
    if not isinstance(obj, list) or not all(_is_int(x) for x in obj):
        raise InputFormatError("%s must be a list of integers" % what)
    return obj


def scenario_from_json(obj) -> Scenario:
    if not isinstance(obj, dict):
        raise InputFormatError("scenario document must be a JSON object")
    for key in ("genus", "degree", "n", "fiber", "sections", "fibers"):
        if key not in obj:
            raise InputFormatError("missing key %r" % key)
    for key in ("genus", "degree", "n"):
        if not _is_int(obj[key]):
            raise InputFormatError("%r must be an integer" % key)
    try:
        model = SurfaceModel(d=obj["degree"], n=obj["n"], g=obj["genus"])
    except InvalidModelError as exc:
        raise InputFormatError("bad model: %s" % exc) from exc
    size = model.rank

    def make_class(values, what):
        values = _int_list(values, what)
        if len(values) != size:
            raise InputFormatError(
                "%s has %d coefficients, expected %d" % (what, len(values), size)
            )
        return DivisorClass(model, tuple(values))

    fiber = make_class(obj["fiber"], "fiber")
    if not isinstance(obj["sections"], list) or not obj["sections"]:
        raise InputFormatError("'sections' must be a nonempty list")
    sections = tuple(
        make_class(vals, "sections[%d]" % i) for i, vals in enumerate(obj["sections"])
    )
    if not isinstance(obj["fibers"], list):
        raise InputFormatError("'fibers' must be a list")
    fibers = []
    for k, entry in enumerate(obj["fibers"]):
        if not isinstance(entry, dict) or "components" not in entry:
            raise InputFormatError("fibers[%d] must be an object with 'components'" % k)
        comps = entry["components"]
        if not isinstance(comps, list) or not comps:
            raise InputFormatError("fibers[%d].components must be a nonempty list" % k)
        classes = tuple(
            make_class(vals, "fibers[%d].components[%d]" % (k, i))
            for i, vals in enumerate(comps)
        )
        try:
            fibers.append(ReducibleFiber(classes))
        except ConfigurationError as exc:
            raise InputFormatError("fibers[%d]: %s" % (k, exc)) from exc
    name = obj.get("name", "scenario")
    if not isinstance(name, str):
        raise InputFormatError("'name' must be a string")
    return Scenario(name=name, model=model, fiber=fiber, sections=sections, fibers=tuple(fibers))

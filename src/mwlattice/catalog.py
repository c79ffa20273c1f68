"""Curated scenarios with frozen expected invariants.

The catalog drives the regression battery: the two constructor families
for each genus, plus hand-built reducible-fibre configurations (chains
closing into cycles, a star with a multiplicity-2 centre, two reducible
fibres side by side).  Expected Mordell-Weil groups were fixed from the
rank formula rho - 2 - sum(v - 1) together with saturation of the
generator lattices, and are re-derived independently by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .fibers import KIND_OTHER, KIND_TRIVIALIZING
from .lattice import AbelianGroupInvariants
from .scenarios import (
    ReducibleFiber,
    Scenario,
    scenario_all_irreducible,
    scenario_trivial_mw,
)
from .surface import (
    SurfaceModel,
    class_from_coeffs,
    exceptional,
    fiber_class,
)


@dataclass(frozen=True)
class CatalogEntry:
    """One scenario plus the invariants a run is expected to reproduce."""

    name: str
    scenario: Scenario
    expected_group: AbelianGroupInvariants
    expected_shapes: tuple[str, ...]


def _group(rank: int, *torsion: int) -> AbelianGroupInvariants:
    return AbelianGroupInvariants(rank, tuple(torsion))


def _cycle_components(model: SurfaceModel, length: int):
    """length components forming a closed chain summing to the fibre class.

    E_1 - E_2, ..., E_{length-1} - E_length, and F - E_1 + E_length.
    Consecutive classes meet once; for length 2 the two components meet
    twice, the degenerate cycle.
    """
    if not 2 <= length <= model.n:
        raise ConfigurationError("cycle length out of range")
    comps = [
        exceptional(model, i) - exceptional(model, i + 1)
        for i in range(1, length)
    ]
    comps.append(
        fiber_class(model) - exceptional(model, 1) + exceptional(model, length)
    )
    return tuple(comps)


def _cycle_scenario(g: int, length: int) -> Scenario:
    model = SurfaceModel.maximal(g)
    return Scenario(
        name="g%d-cycle%d" % (g, length),
        model=model,
        fiber=fiber_class(model),
        sections=(exceptional(model, model.n),),
        fibers=(ReducibleFiber(_cycle_components(model, length)),),
    )


def _star_scenario_g1() -> Scenario:
    """Genus-1 fibre shaped like a 4-legged star with centre multiplicity 2.

    Centre D + G - E1 - E3 - E5 meets the four legs E1-E2, E3-E4, E5-E6
    and G - E7 - E8 once each; twice the centre plus the legs is the
    fibre class.
    """
    model = SurfaceModel.maximal(1)
    centre = class_from_coeffs(model, (1, 1, 1, 0, 1, 0, 1, 0, 0, 0))
    legs = (
        exceptional(model, 1) - exceptional(model, 2),
        exceptional(model, 3) - exceptional(model, 4),
        exceptional(model, 5) - exceptional(model, 6),
        class_from_coeffs(model, (0, 1, 0, 0, 0, 0, 0, 0, 1, 1)),
    )
    return Scenario(
        name="g1-star",
        model=model,
        fiber=fiber_class(model),
        sections=(exceptional(model, model.n),),
        fibers=(ReducibleFiber((centre,) + legs),),
    )


def _two_fibers_scenario_g1() -> Scenario:
    """Two disjoint two-component fibres on the genus-1 model."""
    model = SurfaceModel.maximal(1)
    f = fiber_class(model)
    a1 = exceptional(model, 1) - exceptional(model, 2)
    b1 = exceptional(model, 3) - exceptional(model, 4)
    return Scenario(
        name="g1-two-fibers",
        model=model,
        fiber=f,
        sections=(exceptional(model, model.n),),
        fibers=(
            ReducibleFiber((a1, f - a1)),
            ReducibleFiber((b1, f - b1)),
        ),
    )


def build_catalog() -> tuple[CatalogEntry, ...]:
    entries = []
    for g in (1, 2, 3):
        entries.append(
            CatalogEntry(
                name="trivial-mw-g%d" % g,
                scenario=scenario_trivial_mw(g),
                expected_group=_group(0),
                expected_shapes=(KIND_TRIVIALIZING,),
            )
        )
    for g in (1, 2, 3):
        entries.append(
            CatalogEntry(
                name="all-irreducible-g%d" % g,
                scenario=scenario_all_irreducible(g),
                expected_group=_group(4 * g + 4),
                expected_shapes=(),
            )
        )
    for g, length, rank in (
        (1, 2, 7),
        (1, 3, 6),
        (2, 2, 11),
        (2, 5, 8),
        (3, 2, 15),
        (3, 4, 13),
    ):
        entries.append(
            CatalogEntry(
                name="g%d-cycle%d" % (g, length),
                scenario=_cycle_scenario(g, length),
                expected_group=_group(rank),
                expected_shapes=(KIND_OTHER,),
            )
        )
    entries.append(
        CatalogEntry(
            name="g1-star",
            scenario=_star_scenario_g1(),
            expected_group=_group(4),
            expected_shapes=(KIND_OTHER,),
        )
    )
    entries.append(
        CatalogEntry(
            name="g1-two-fibers",
            scenario=_two_fibers_scenario_g1(),
            expected_group=_group(6),
            expected_shapes=(KIND_OTHER, KIND_OTHER),
        )
    )
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ConfigurationError("catalog names must be unique")
    return tuple(entries)


def catalog_entry(name: str) -> CatalogEntry:
    for entry in build_catalog():
        if entry.name == name:
            return entry
    raise KeyError(name)

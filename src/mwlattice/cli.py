"""Command-line front end.

Subcommands:

  mw          Mordell-Weil group and lattice report for a scenario.
  fiber       classify the reducible fibres of a scenario.
  pencil      discriminant / germ classification / coefficient transfer.
  export      DOT output of fibre dual graphs.
  verify-all  run the whole verification battery.

Exit codes: 0 on success, 1 when a verification or validation check
fails, 2 on malformed input.  All randomized checks take explicit
seeds, so reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ade import classify_ade_germ
from .errors import InputFormatError, InternalConsistencyError, MWLatticeError, _quoted
from .fibers import classify_shape, to_dot
from .mw import mw_rank_by_formula, mwl
from .pencil import (
    branch_decomposition,
    contact_order_at_origin,
    discriminant_in_x,
    double_cover_equation,
    pencil_equation,
    pencil_to_double_cover,
    random_pencil,
)
from .scenarios import (
    _validate,
    scenario_all_irreducible,
    scenario_from_json,
    scenario_trivial_mw,
)
from .serialize import (
    _decimal,
    double_cover_to_json,
    frac_to_json,
    matrix_to_json,
    pencil_coefficients_from_json,
    poly_from_json,
    poly_to_json,
)
from .verify import run_all

# The largest genus of a --g, a verify-all range, a scenario file or a
# transfer coefficient file; at g = 32, mwl of D_132^+ takes 5.3 to 7.9 s
# on a 2-core x86-64 machine (Python 3.11).
_MAX_GENUS = 32


def _load_json(path: str):
    """The document in ``path``; an object that repeats a key is refused.

    An integer past Python's digit limit is refused with the limit named.
    """

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputFormatError("%s repeats the key %s" % (path, _quoted(key)))
            obj[key] = value
        return obj

    def integer(text):
        return _decimal(text, "%s is not readable JSON" % path)

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique, parse_int=integer)
    except OSError as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            "%s is not valid JSON: line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from None
    except InputFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # not UTF-8, deep nesting
        raise InputFormatError("%s is not readable JSON: %s" % (path, exc)) from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputFormatError("cannot write %s: %s" % (out_path, exc)) from None
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _bounded_genus(g: int) -> int:
    if g > _MAX_GENUS:
        raise InputFormatError("genus %d is above the largest supported genus %d" % (g, _MAX_GENUS))
    return g


def _from_input(what: str, build, *parts):
    """Run a constructor on user-supplied data, mapping domain errors to
    input errors.  Internal-consistency failures stay fatal."""
    try:
        return build(*parts)
    except InternalConsistencyError:
        raise
    except MWLatticeError as exc:
        raise InputFormatError("bad %s: %s" % (what, exc)) from None


def _read(what: str, reader, path: str):
    """The JSON document at ``path``, read by ``reader``.

    Python's limit on int/str conversions guards the reading.  Then it is
    lifted, so that every result of an accepted input is written exactly;
    ``main`` puts it back.
    """
    document = _from_input(what, reader, _load_json(path))
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        sys.set_int_max_str_digits(0)
    return document


def _resolve_scenario(args):
    if args.scenario:
        scenario = _read("scenario file", scenario_from_json, args.scenario)
        _bounded_genus(scenario.genus)
        return scenario
    if args.g is None:
        raise InputFormatError("--g is required with a built-in scenario")
    build = scenario_trivial_mw if args.trivial_scenario else scenario_all_irreducible
    return _from_input("genus", build, _bounded_genus(args.g))


def _valid_scenario(args):
    """The named scenario (None after printing its FAIL lines) and its fibre data."""
    scenario = _resolve_scenario(args)
    report, fibres = _validate(scenario)
    for check in report.failures():
        detail = ": %s" % check.detail if check.detail else ""
        print("FAIL %s%s" % (check.name, detail))
    return (scenario if report.ok else None), fibres


def _cmd_mw(args) -> int:
    scenario, _ = _valid_scenario(args)
    if scenario is None:
        return 1
    report = mwl(scenario)
    group = report.group
    if args.report == "json":
        doc = {
            "scenario": scenario.name,
            "genus": scenario.genus,
            "degree": scenario.model.d,
            "mw_group": {
                "free_rank": group.free_rank,
                "torsion": list(group.torsion),
            },
            "rank_by_formula": mw_rank_by_formula(scenario),
            "trivial_lattice_rank": report.trivial_rank,
            "trivial_lattice_discriminant": frac_to_json(
                report.trivial_discriminant
            ),
            "mwl_rank": report.rank,
            "mwl_gram": matrix_to_json(report.gram),
            "mwl_discriminant": frac_to_json(report.discriminant),
            "root_count": report.root_count,
            "identified": report.identified_as,
        }
        print(_dump(doc))
        return 0
    print("scenario: %s" % scenario.name)
    print("model: genus %d, degree %d, rho %d" % (
        scenario.genus, scenario.model.d, scenario.model.rho,
    ))
    print("MW group: %s" % ("trivial" if group.is_trivial else group))
    print("MW rank by formula: %d" % mw_rank_by_formula(scenario))
    print("trivial lattice: rank %d, discriminant %s" % (
        report.trivial_rank, report.trivial_discriminant,
    ))
    print("MWL: rank %d, discriminant %s, %d roots" % (
        report.rank, report.discriminant, report.root_count,
    ))
    print("identified: %s" % (report.identified_as or "-"))
    return 0


def _cmd_fiber(args) -> int:
    scenario, fibres = _valid_scenario(args)
    if scenario is None:
        return 1
    rows = [
        (index, len(mults), mults, classify_shape(graph, mults))
        for index, (graph, mults) in enumerate(fibres)
    ]
    if args.report == "json":
        doc = {
            "scenario": scenario.name,
            "fibers": [
                {
                    "index": index,
                    "components": count,
                    "multiplicities": list(mults),
                    "shape": str(shape),
                }
                for index, count, mults, shape in rows
            ],
        }
        print(_dump(doc))
        return 0
    print("scenario: %s" % scenario.name)
    if not rows:
        print("no reducible fibres declared")
    for index, count, mults, shape in rows:
        print("fiber %d: %d components, multiplicities %s, shape %s" % (
            index, count, list(mults), shape,
        ))
    return 0


def _resolve_pencil(args):
    if args.coeffs:
        return _read("coefficient file", pencil_coefficients_from_json, args.coeffs)
    if not args.random:
        raise InputFormatError("provide --coeffs FILE or --random --seed N")
    if args.g is None or args.seed is None:
        raise InputFormatError("--random needs --g and --seed")
    from random import Random

    return _from_input("genus", random_pencil, _bounded_genus(args.g), Random(args.seed))


def _cmd_pencil_disc(args) -> int:
    pc = _resolve_pencil(args)
    member = pencil_equation(pc)
    disc = discriminant_in_x(member)
    decomp = branch_decomposition(disc)
    contact = contact_order_at_origin(decomp.branch)
    if args.report == "json":
        doc = {
            "genus": pc.g,
            "pencil_member": poly_to_json(member),
            "discriminant": poly_to_json(disc),
            "unit": frac_to_json(decomp.unit),
            "t_exponent": decomp.t_exponent,
            "y_exponent": decomp.y_exponent,
            "branch": poly_to_json(decomp.branch),
            "contact_order": contact,
        }
        print(_dump(doc))
        return 0
    print("genus: %d" % pc.g)
    print("pencil member: %s" % member)
    print("discriminant: %s" % disc)
    print("decomposition: %s * t^%d * y^%d * (%s)" % (
        decomp.unit, decomp.t_exponent, decomp.y_exponent, decomp.branch,
    ))
    print("contact order at origin: %d" % contact)
    return 0


def _cmd_pencil_ade(args) -> int:
    germ = _read("germ file", poly_from_json, args.germ)
    # Rejections of the germ itself (wrong variables, too shallow) are
    # input problems here, not classifier verdicts.
    verdict = _from_input(
        "germ", classify_ade_germ, germ, args.max_steps
    )
    if args.report == "json":
        doc = {
            "kind": verdict.kind,
            "index": verdict.index,
            "label": verdict.label,
            "detail": verdict.detail,
            "coordinate_changes": list(verdict.coordinate_changes),
        }
        print(_dump(doc))
        return 0
    print("classification: %s" % verdict.label)
    if verdict.detail:
        print("detail: %s" % verdict.detail)
    for step in verdict.coordinate_changes:
        print("step: %s" % step)
    return 0


def _cmd_pencil_transfer(args) -> int:
    pc = _resolve_pencil(args)
    _bounded_genus(pc.g)
    dc = pencil_to_double_cover(pc)
    psi = double_cover_equation(dc)
    if args.report == "json":
        doc = double_cover_to_json(dc)
        doc["psi"] = poly_to_json(psi)
        print(_dump(doc))
        return 0
    print("genus: %d" % dc.g)
    print("b0 (y^%d): %s" % (2 * dc.g + 1, dc.b0))
    print("b10: %s" % dc.b10)
    print("b1: [%s]" % ", ".join(str(v) for v in dc.b1))
    print("psi: %s" % psi)
    return 0


def _cmd_export(args) -> int:
    scenario, fibres = _valid_scenario(args)
    if scenario is None:
        return 1
    if not scenario.fibers:
        raise InputFormatError("scenario declares no reducible fibres")
    indices = range(len(scenario.fibers))
    if args.fiber is not None:
        if not 0 <= args.fiber < len(scenario.fibers):
            raise InputFormatError("fiber index %d out of range" % args.fiber)
        indices = [args.fiber]
    chunks = [to_dot(*fibres[k], name="%s_fiber%d" % (scenario.name, k)) for k in indices]
    _emit("\n".join(chunks), args.out)
    return 0


def _parse_genera(text: str):
    try:
        lo, hi = map(int, text.split("..", 1) if ".." in text else (text, text))
    except ValueError:
        raise InputFormatError("bad genus range %r" % text) from None
    if lo > hi:
        raise InputFormatError("empty genus range %r" % text)
    if lo < 1:
        raise InputFormatError("genera must be positive")
    return tuple(range(lo, _bounded_genus(hi) + 1))


def _cmd_verify_all(args) -> int:
    genera = _parse_genera(args.g)
    results = run_all(genera, args.seed)
    if args.report == "json":
        doc = [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        print(_dump(doc))
    else:
        for result in results:
            print(result.line())
        passed = sum(1 for r in results if r.passed)
        print("%d/%d criteria passed" % (passed, len(results)))
    return 0 if all(r.passed for r in results) else 1


def _add_scenario_source(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", help="scenario JSON file")
    group.add_argument(
        "--trivial-scenario",
        action="store_true",
        help="built-in scenario whose Mordell-Weil group is trivial",
    )
    group.add_argument(
        "--all-irreducible",
        action="store_true",
        help="built-in scenario with no reducible fibres",
    )
    parser.add_argument("--g", type=int, help="genus for built-in scenarios")


def _add_report(parser) -> None:
    parser.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


def _add_pencil_source(parser) -> None:
    parser.add_argument("--coeffs", help="coefficient JSON file")
    parser.add_argument(
        "--random", action="store_true", help="sample random coefficients"
    )
    parser.add_argument("--g", type=int, help="genus for --random")
    parser.add_argument("--seed", type=int, help="seed for --random")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwlat",
        description="Mordell-Weil lattices of maximal rational fibrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mw = sub.add_parser("mw", help="Mordell-Weil group and lattice report")
    _add_scenario_source(p_mw)
    _add_report(p_mw)
    p_mw.set_defaults(func=_cmd_mw)

    p_fiber = sub.add_parser("fiber", help="classify reducible fibres")
    _add_scenario_source(p_fiber)
    _add_report(p_fiber)
    p_fiber.set_defaults(func=_cmd_fiber)

    p_pencil = sub.add_parser("pencil", help="symbolic pencil computations")
    pencil_sub = p_pencil.add_subparsers(dest="pencil_command", required=True)

    p_disc = pencil_sub.add_parser(
        "disc", help="discriminant, branch curve and contact order"
    )
    _add_pencil_source(p_disc)
    _add_report(p_disc)
    p_disc.set_defaults(func=_cmd_pencil_disc)

    p_ade = pencil_sub.add_parser("ade", help="classify a singular germ")
    p_ade.add_argument("--germ", required=True, help="polynomial JSON file")
    p_ade.add_argument(
        "--max-steps", type=int, default=None, help="coordinate change budget"
    )
    _add_report(p_ade)
    p_ade.set_defaults(func=_cmd_pencil_ade)

    p_transfer = pencil_sub.add_parser(
        "transfer", help="double-cover coefficients from pencil coefficients"
    )
    _add_pencil_source(p_transfer)
    _add_report(p_transfer)
    p_transfer.set_defaults(func=_cmd_pencil_transfer)

    p_export = sub.add_parser("export", help="export fibre dual graphs")
    _add_scenario_source(p_export)
    p_export.add_argument(
        "--dot", action="store_true", required=True, help="DOT format"
    )
    p_export.add_argument("--fiber", type=int, help="only this fibre index")
    p_export.add_argument("--out", help="output file (default stdout)")
    p_export.set_defaults(func=_cmd_export)

    p_verify = sub.add_parser("verify-all", help="run the verification battery")
    p_verify.add_argument("--g", default="1..3", help="genus or range like 1..3")
    p_verify.add_argument(
        "--seed", type=int, required=True, help="seed for randomized checks"
    )
    _add_report(p_verify)
    p_verify.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        return args.func(args)
    except InputFormatError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

"""mwlattice benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (the package need not be installed):

    python3 mwbench/run.py --workload mwl-ladder --seed 1 --seconds 40 --trace 0
    python3 mwbench/run.py --self-test

Workloads (see ``BENCHMARK.json`` and ``workloads.py``):

* ``mwl-ladder``        mwl(scenario_all_irreducible(g, d)) for g = 1..5;
* ``survey-crosscheck`` random reducible-fibre scenarios at g = 1..3,
                        cross-checked against the box-enumeration oracle;
* ``pencil-germs``      random pencils through discriminant, branch curve,
                        double cover and ADE germ, plus disguised ADE germs.

Load is one closed-loop caller: a single process runs the jobs one after
another, with BLAS threads pinned to one.  ``--trace 0`` prints the
end-to-end metrics of an untraced run; ``--trace 1`` runs untraced and then
traced passes, checks that both give the same per-job output digests, and
prints the per-layer metrics.  Set-up time is the median over several fresh
processes, each importing the library and generating the inputs.  Every job
output is checked exactly; a failed check is named on a ``FAIL`` line and
the command exits with status 1.  ``ok_frac`` is the share of attempted jobs
that passed their checks (the complement of the failed fraction, which
would read 0 on every good run).

All times are seconds at a fixed reference speed (see ``speed.py``): the
machine's speed is probed while the jobs run and each time is scaled by it,
which removes most of the drift of a shared machine.  The ``run`` line
gives the raw wall-clock figures beside them.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("mwl-ladder", "survey-crosscheck", "pencil-germs")
SETUP_PROCESSES = 3  # fresh processes timed for set-up, the main worker included
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER)] + args,
        cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
        text=True, timeout=max(timeout, 1.0), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker exited with status %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Run one workload; returns (final result object, worker output)."""
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []
    for _ in range(SETUP_PROCESSES - 1):
        setups.append(run_worker(common + ["--setup-only"], RUN_BUDGET_S)["setup"])
    remaining = RUN_BUDGET_S - (time.monotonic() - started)
    out = run_worker(
        common + ["--seconds", str(seconds), "--trace", "1" if trace else "0"], remaining)
    setups.append(out["setup"])
    failed = len(out["failures"])
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in out["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
            "wall_s": out["wall_s"],
            "job_p50_ms": out["job_p50_ms"],
            "job_tail_ms": out["job_tail_ms"],
            "ok_frac": 1.0 - min(failed, out["attempted"]) / out["attempted"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    return result, out


def report(result: dict, out: dict) -> None:
    info = {k: out[k] for k in ("seed", "inputs_digest", "jobs_per_pass", "passes", "env")}
    if "tail_percentile" in out:
        info["job_tail_ms"] = "p%d over %d jobs" % (out["tail_percentile"], out["jobs_timed"])
        info["raw"] = out["raw"]
    else:
        info["untraced_passes"] = out["untraced_passes"]
    print("run " + json.dumps(info, sort_keys=True))
    for failure in out["failures"]:
        print("FAIL " + failure)
    for name, metric in result["metrics"].items():
        print("%-48s %16.6g %s" % (name, metric["value"], metric["unit"]))


def self_test() -> int:
    """Tiny pass of every workload, untraced and traced, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from %s" % (WORKLOAD_NAMES,))
    for workload in WORKLOAD_NAMES:
        for trace in (False, True):
            result, out = run_benchmark(workload, 0, 1.0, trace, tiny=True)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            where = "%s trace=%d" % (workload, trace)
            if emitted != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
                    where, sorted(set(emitted.items()) ^ set(expected[trace].items()))))
            problems.extend("%s: %s" % (where, f) for f in out["failures"])
            print("%s: %d jobs, %d failed" % (where, result["attempted"], result["failed"]))
    for problem in problems:
        print("FAIL " + problem)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "mwlattice" / "__init__.py").is_file():
        print("error: %s not found; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, out = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), tiny=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    report(result, out)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

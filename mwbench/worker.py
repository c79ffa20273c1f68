"""One benchmark process: set-up, timed passes over the job list, tracing.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS threads
pinned to one.  With ``--setup-only`` it times importing the library and
generating the inputs, prints that and exits; ``run.py`` starts several such
fresh processes to measure set-up.  Otherwise it also runs whole passes of
the workload's job list, one job after another in this one thread, checks
every output exactly (outside the timed region) and prints one JSON object
with the results on its last stdout line.  Times are scaled to reference
speed as ``speed.py`` describes; the raw times are reported too.
"""

import sys
import time

from speed import SpeedProbe

PROBE = SpeedProbe()
PROBE.start()
_SETUP_START = time.perf_counter()
from workloads import WORKLOADS, digest, inputs_digest  # noqa: E402  (imports mwlattice)
_IMPORTED = time.perf_counter()
_IMPORT_PROBES = PROBE.spent

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import isqrt, prod  # noqa: E402
from time import perf_counter  # noqa: E402

from mwlattice import boxenum, matrices  # noqa: E402
from tracer import Tracer  # noqa: E402

BACKENDS = ("compiled", "numpy", "python")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Box scans larger than this are not replayed on the pure-Python backend,
# which visits about 1.3e5 points per second on a 2-core Xeon KVM guest.
PYTHON_BOX_CAP = 200_000
# Stop starting passes after this long, so a run always ends in time.
HARD_STOP_S = 120.0


class Interval:
    """A timed stretch: wall-clock ends and the probe time spent inside it."""

    def __init__(self):
        self.spent_start = PROBE.spent
        self.start = perf_counter()

    def close(self) -> "Interval":
        self.end = perf_counter()
        self.spent_end = PROBE.spent
        return self

    def raw(self) -> float:
        return self.end - self.start - (self.spent_end - self.spent_start)

    def normalized(self) -> float:
        return self.raw() * PROBE.speed(self.start, self.end)


class Runner:
    """Runs passes of one job list and keeps times, digests and failures."""

    def __init__(self, workload, jobs, digests=None):
        self.workload = workload
        self.jobs = jobs
        self.digests: list[str | None] = digests if digests is not None else [None] * len(jobs)
        self.intervals: list[list[Interval]] = []  # per pass, per job
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, label: str) -> float:
        wl = self.workload
        intervals = []
        for k, job in enumerate(self.jobs):
            timed = Interval()
            try:
                result = wl.run(job)
                error = None
            except Exception as exc:  # a failing job is counted, not fatal
                result, error = None, "raised %s: %s" % (type(exc).__name__, exc)
            intervals.append(timed.close())
            self.attempted += 1
            if error is None:
                try:
                    error = wl.check(job, result)
                    text = digest(wl.summary(result))
                except Exception as exc:
                    error = "check raised %s: %s" % (type(exc).__name__, exc)
            if error is None:
                if self.digests[k] is None:
                    self.digests[k] = text
                elif self.digests[k] != text:
                    error = "output digest %s differs from the first run's %s" % (
                        text, self.digests[k])
            if error is not None:
                self.failures.append("%s pass %d job %s: %s" % (
                    label, len(self.intervals) + 1, job.name, error))
        self.intervals.append(intervals)
        return sum(iv.raw() for iv in intervals)

    def run_for(self, label: str, seconds: float, min_passes: int, deadline: float):
        start = perf_counter()
        raw = []
        while True:
            raw.append(self.one_pass(label))
            now = perf_counter()
            if now > deadline:
                return
            if len(raw) >= min_passes and now - start + statistics.median(raw) > seconds:
                return

    def job_times(self, normalized: bool = True) -> list[float]:
        return [iv.normalized() if normalized else iv.raw()
                for intervals in self.intervals for iv in intervals]

    def wall(self, normalized: bool = True) -> float:
        """Median over passes of the time to complete the job list."""
        return statistics.median(
            sum(iv.normalized() if normalized else iv.raw() for iv in intervals)
            for intervals in self.intervals)


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile, at least 50, with ten of n_min jobs beyond it."""
    return min(99, max(50, 100 - -(-1000 // n_min)))


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def box_points(gram, bound) -> int:
    """Points of the box the enumeration scans: prod (2 r_i + 1)."""
    inv = matrices.inverse(gram)
    radii = []
    for i in range(len(gram)):
        q = Fraction(bound) * inv[i][i]
        radii.append(isqrt(q.numerator * q.denominator) // q.denominator)
    return prod(2 * r + 1 for r in radii)


def available_backends() -> list[str]:
    names = []
    for name in BACKENDS:
        try:
            boxenum.set_backend(name)
        except ValueError:
            continue
        names.append(name)
    boxenum.set_backend(None)
    return names


def replay_backends(scans, failures) -> dict[str, float]:
    """Time every distinct box scan on every available backend; check they agree."""
    distinct = {}
    for gram, bound, _ in scans:
        distinct.setdefault((repr(gram), str(bound)), (gram, bound))
    backends = available_backends()
    points = dict.fromkeys(backends, 0)
    seconds = dict.fromkeys(backends, 0.0)
    try:
        for gram, bound in distinct.values():
            size = box_points(gram, bound)
            reference = None
            for backend in backends:
                if backend == "python" and size > PYTHON_BOX_CAP:
                    continue
                boxenum.set_backend(backend)
                timed = Interval()
                found = boxenum.box_short_vectors(gram, bound)
                seconds[backend] += timed.close().normalized()
                points[backend] += size
                if reference is None:
                    reference = (backend, found)
                elif found != reference[1]:
                    failures.append("backend %s disagrees with %s on a rank-%d box" % (
                        backend, reference[0], len(gram)))
    finally:
        boxenum.set_backend(None)
    return {b: points[b] / seconds[b] if seconds.get(b) else 0.0 for b in BACKENDS}


def environment() -> dict:
    try:
        import mwlattice._boxenum  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "enumeration_backend": boxenum.enumeration_backend(),
        "boxenum_extension_imports": compiled,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def traced_run(wl, jobs, plain, seconds, deadline, setup) -> dict:
    """Traced passes after the untraced ones: per-layer metrics and parity."""
    counters = {"vectors": 0, "coordinate_changes": 0, "unresolved": 0}
    scans = []

    def count_vectors(_args, result):
        counters["vectors"] += len(result)

    def keep_scan(call_args, result):
        scans.append((call_args[0], call_args[1], len(result)))

    def count_ade(_args, result):
        counters["coordinate_changes"] += len(result.coordinate_changes)
        counters["unresolved"] += result.kind == "Unresolved"

    tracer = Tracer({
        "lattice.short_vectors": count_vectors,
        "boxenum.box_short_vectors": keep_scan,
        "ade.classify_ade_germ": count_ade,
    })
    # The traced passes share the untraced passes' digests: an output that
    # the wrappers change shows up as a digest mismatch.
    traced = Runner(wl, jobs, plain.digests)
    traced_from = perf_counter()
    tracer.install()
    try:
        traced.run_for("traced", seconds, 1, deadline)
    finally:
        tracer.uninstall()
    # Span times are scaled by the mean speed over the traced passes.
    scale = PROBE.speed(traced_from, perf_counter())
    passes = len(traced.intervals)
    spans = {name: (calls, busy * scale, self_s * scale)
             for name, (calls, busy, self_s) in tracer.spans(passes).items()}
    spans["setup.import"] = (1, setup["import_s"], setup["import_s"])
    spans["setup.inputs"] = (1, setup["inputs_s"], setup["inputs_s"])
    layers = {}
    for name, (calls, busy, self_s) in spans.items():
        layers[name + ".calls"] = (calls, "count")
        layers[name + ".busy_s"] = (busy, "s")
        layers[name + ".self_s"] = (self_s, "s")
    points = sum(box_points(gram, bound) for gram, bound, _ in scans)
    found = sum(n for _, _, n in scans)
    box_busy = tracer.stats["boxenum.box_short_vectors"][1] * scale
    layers["lattice.short_vectors.vectors"] = (counters["vectors"] / passes, "count")
    layers["boxenum.box_points"] = (points / passes, "count")
    layers["boxenum.hit_ratio"] = (found / points if points else 0.0, "ratio")
    layers["boxenum.points_per_s"] = (points / box_busy if box_busy else 0.0, "1/s")
    failures = plain.failures + traced.failures
    for backend, rate in replay_backends(scans[: len(scans) // passes], failures).items():
        layers["boxenum.%s.points_per_s" % backend] = (rate, "1/s")
    layers["ade.coordinate_changes"] = (counters["coordinate_changes"] / passes, "count")
    layers["ade.unresolved"] = (counters["unresolved"] / passes, "count")
    layers["trace.untraced_wall_s"] = (plain.wall(), "s")
    layers["trace.traced_wall_s"] = (traced.wall(), "s")
    layers["trace.overhead_s"] = (traced.wall() - plain.wall(), "s")
    return {
        "attempted": plain.attempted + traced.attempted,
        "failures": failures,
        "passes": passes,
        "untraced_passes": len(plain.intervals),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = Interval()
    jobs = wl.inputs(random.Random(args.seed), args.tiny)
    inputs.close()
    raw_import = _IMPORTED - _SETUP_START - _IMPORT_PROBES
    setup = {
        "import_s": raw_import * PROBE.speed(_SETUP_START, _IMPORTED),
        "inputs_s": inputs.normalized(),
        "raw": {"import_s": raw_import, "inputs_s": inputs.raw()},
    }
    if args.setup_only:
        PROBE.stop()
        print(json.dumps({"setup": setup}))
        return 0

    deadline = perf_counter() + HARD_STOP_S
    out = {
        "setup": setup,
        "seed": args.seed,
        "inputs_digest": inputs_digest(jobs),
        "jobs_per_pass": len(jobs),
        "env": environment(),
    }
    plain = Runner(wl, jobs)
    if args.trace:
        plain.run_for("untraced", args.seconds / 2, 1, deadline)
        out.update(traced_run(wl, jobs, plain, args.seconds / 2, deadline, setup))
    else:
        min_passes = 1 if args.tiny else wl.min_passes
        plain.run_for("untraced", args.seconds, min_passes, deadline)
        p = tail_percentile(min_passes * len(jobs))
        times, raw_times = plain.job_times(), plain.job_times(normalized=False)
        out.update(
            attempted=plain.attempted,
            failures=plain.failures,
            passes=len(plain.intervals),
            wall_s=plain.wall(),
            job_p50_ms=1e3 * statistics.median(times),
            job_tail_ms=1e3 * percentile(times, p),
            tail_percentile=p,
            jobs_timed=len(times),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            raw={
                "wall_s": plain.wall(normalized=False),
                "job_p50_ms": 1e3 * statistics.median(raw_times),
                "job_tail_ms": 1e3 * percentile(raw_times, p),
                "mean_speed": PROBE.overall(),
            },
        )
    PROBE.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""deeptrees benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload sim-n2 --seed 1 --seconds 24 --trace 0

The run sets up (several times, to report the median set-up time), then
repeats the workload's timed iteration until ``--seconds`` have passed,
checking each iteration's outputs. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with no tracing installed. With ``--trace 1`` they are the
per-layer self times and counts: iterations alternate between untraced
and traced, so the same run also gives the tracing overhead.

The program is imported from ``src/`` of the checkout holding this file.
When it is missing the run exits 2 without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("sim-n2", "sim-n8", "exact-suite", "model-io")
SINGLE_THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
MIN_ITERATIONS = 2  # untraced; with --trace 1 also this many traced
POINT_METRICS = ("cascade", "forest")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import deeptrees from this checkout's src/, then the workloads."""
    if not (SRC / "deeptrees" / "__init__.py").is_file():
        raise ProgramMissing(f"no deeptrees sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deeptrees

    if Path(deeptrees.__file__).resolve().parent != (SRC / "deeptrees").resolve():
        raise ProgramMissing(f"deeptrees was imported from {deeptrees.__file__}, not {SRC}")
    # run_experiment imports plotting lazily; load it so its hook can be installed
    import deeptrees.plotting  # noqa: F401
    import workloads

    return deeptrees, workloads


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "deeptrees").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def manifest(args, sizes, loadavg) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": {args.workload: sizes[args.workload], "model-io models": sizes["model-io"]},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": loadavg,
        "env": {name: os.environ.get(name) for name in SINGLE_THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_or_none(values):
    return statistics.median(values) if values else None


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls = {False: [], True: []}  # keyed by "traced"
        self.layers = []  # per traced iteration: {layer: self time}
        self.counts = []  # per traced iteration: Counter
        self.coverage = []
        self.absent = set()
        self.latencies = {key: [] for key in POINT_METRICS}

    def record_failure(self, what, problems):
        self.failed += 1
        for problem in problems:
            print(f"perfbench: {what} failed: {problem}", file=sys.stderr)


class ProbeSlices:
    """Slices of the point probe, taken between iterations and between the
    parts of an iteration (the workload calls this object there). Each
    slice takes the share of the samples that the time since the previous
    slice is of the run, so the samples spread over the run; the time the
    slices take is kept so that iterations can leave it out."""

    def __init__(self, probe, latencies, seconds):
        self.probe = probe
        self.latencies = latencies
        self.seconds = seconds
        self.last = time.perf_counter()
        self.wall = 0.0

    def __call__(self):
        if self.probe is None:
            return
        start = time.perf_counter()
        share = (start - self.last) / self.seconds if self.seconds else 1.0
        self.probe.sample(self.latencies, share)
        self.last = time.perf_counter()
        self.wall += self.last - start


def timed_iteration(workload, workdir, index, tracer, package, spans, pause):
    """(outputs, wall seconds without the probe slices, absent layers)."""
    if tracer is not None:
        tracer.reset()
    hooks = nullcontext(set()) if tracer is None else spans.installed(tracer, package)
    paused = pause.wall
    with hooks as absent:
        start = time.perf_counter()
        out = workload.iterate(workdir, index, pause)
        wall = time.perf_counter() - start
    return out, wall - (pause.wall - paused), absent


def measure(workload, seconds, trace, package, spans, workdir, probe) -> Run:
    run = Run()
    tracer = spans.Tracer() if trace else None
    pause = ProbeSlices(probe, run.latencies, seconds)
    iterations = 2 * MIN_ITERATIONS if trace else MIN_ITERATIONS
    deadline = time.perf_counter() + seconds
    index = 0
    while index < iterations or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        iteration_dir = workdir / f"iteration-{index}"
        run.attempted += 1
        try:
            out, wall, absent = timed_iteration(
                workload, iteration_dir, index, tracer if traced else None, package, spans,
                pause,
            )
            problems = workload.check(out)
        except Exception as exc:  # a raising iteration is a failed one; keep measuring
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(iteration_dir, ignore_errors=True)
        index += 1
        if problems:
            run.record_failure(f"iteration {index - 1}", problems)
            continue
        run.walls[traced].append(wall)
        if traced:
            per_layer, covered = tracer.summary()
            run.layers.append(per_layer)
            run.counts.append(dict(tracer.counts))
            run.coverage.append(covered / wall)
            run.absent = absent
            continue
        if "cascade_us" in out:  # model-io: its iterations make the point samples
            for key in POINT_METRICS:
                run.latencies[key] += out[f"{key}_us"]
        else:
            pause()
    return run


def end_to_end_metrics(run, import_s, setup_times) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (median_or_none(run.walls[False]), "s"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    for key in POINT_METRICS:
        values = run.latencies[key]
        metrics[f"{key}_point_us_p95"] = (percentile(values, 0.95) if values else None, "us")
    return metrics


def layer_metrics(run, spans) -> dict:
    metrics = {}
    for layer in spans.LAYERS:
        if layer not in run.absent:
            metrics[f"{layer}_s"] = (median_or_none([s[layer] for s in run.layers]), "s")
    for name, layers in spans.COUNTS.items():
        if not set(layers) <= run.absent:
            metrics[name] = (median_or_none([c.get(name, 0) for c in run.counts]), "count")
    untraced = median_or_none(run.walls[False])
    traced = median_or_none(run.walls[True])
    metrics["trace.coverage"] = (median_or_none(run.coverage), "ratio")
    metrics["trace.overhead"] = (traced / untraced if traced and untraced else None, "ratio")
    return metrics


def run_workload(name, seed, seconds, trace, scale="full", reference=None, import_s=0.0) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import deeptrees
    import spans
    import workloads

    if reference is None:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    sizes = workloads.SIZES[scale]
    recorded = reference.get(scale, {}).get(name, {}).get(str(seed))
    workload = workloads.WORKLOADS[name](sizes[name], seed, recorded)
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(sizes["model-io"])
        setup_times.append(time.perf_counter() - start)
    probe = None
    if not trace:
        probe = workloads.PointProbe(workload.models, sizes["model-io"]["probe_points"])
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        run = measure(workload, seconds, trace, deeptrees, spans, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        metrics = layer_metrics(run, spans)
    else:
        probe.sample(run.latencies)
        if probe.used:
            run.attempted += 1
            if probe.problems:
                run.record_failure("point probe", probe.problems)
        metrics = end_to_end_metrics(run, import_s, setup_times)
        print(f"fail_ratio {run.failed / run.attempted} ratio", flush=True)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    for name in SINGLE_THREAD_ENV:
        os.environ[name] = "1"
    start = time.perf_counter()
    try:
        _, workloads = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    print(json.dumps({"manifest": manifest(args, workloads.SIZES["full"], loadavg)}), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, import_s=import_s)
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --runs 10 [--workload sim-n8 ...] [--trace 1] [--out FILE]

Runs the benchmark once per seed (seeds first-seed .. first-seed+runs-1)
on each workload, one run at a time, for the run length in
BENCHMARK.json: untraced for the end-to-end metrics, or traced with
``--trace 1`` for the per-layer ones. For each metric it reports the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread: the distance between the quartiles as a share of
the median. End-to-end spreads at or above a third of their bound are
flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks: {done.stderr}")
    return result


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for name in names:
        samples: dict = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = one_run(name, seed, args.seconds, args.trace)
            for metric, entry in result["metrics"].items():
                samples.setdefault(metric, []).append(entry["value"])
        report[name] = {metric: summarize(values) for metric, values in samples.items()}
        for metric, stats in report[name].items():
            bound = bounds.get(metric)
            steady = not bound or stats["spread"] < bound / 3
            flag = "" if steady else "  (above a third of the bound)"
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(
                f"{name:12s} {metric:28s} median {stats['median']:.6g} spread {spread} "
                f"bound {bound}{flag}",
                flush=True,
            )
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output digests that the benchmark's gate compares against.

    python3 perfbench/record_reference.py --seeds 0-9

Runs one full-size iteration of each workload per seed, requires its
other checks to pass, and writes the SHA-256 of each pinned output table
(``sim.csv`` without its wall-time column, ``sim_summary.csv``, and the
exact-suite tables) to reference.json. Record only on a commit whose
tables are known to be right: the gate then holds later commits to them.
"""

import argparse
import json
import os
import shutil
import sys

import run

PINNED = ("sim-n2", "sim-n8", "exact-suite")  # model-io checks its outputs against its inputs


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    args = parser.parse_args(argv)
    _, workloads = run.import_program()
    sizes = workloads.SIZES["full"]
    recorded: dict = {}
    workdir = run.WORK / f"record-{os.getpid()}"
    try:
        for name in PINNED:
            for seed in args.seeds:
                workload = workloads.WORKLOADS[name](sizes[name], seed)
                out = workload.iterate(workdir / f"{name}-{seed}", 0, lambda: None)
                problems = workload.check(out)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                digests = workload.digests(out)
                recorded.setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {digests}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps({"full": recorded}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: inputs made from a seed, one timed iteration,
and the checks on its outputs.

Every workload also trains the model-I/O models during set-up, because
every workload reports the point-query latencies: on ``model-io`` they
come from the timed iterations, elsewhere from a probe of the same models
that runs in slices between iterations and between the parts of one.
"""

import hashlib
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

# Hooked entry points are called through their modules, so that the
# spans installed on those modules see these calls.
from deeptrees import analysis, data_io, experiments, learn, sexpr
from deeptrees.data_io import SimulationSpec
from deeptrees.experiments import (
    BOUNDS_COLUMNS,
    GINI_COLUMNS,
    GINI_REPORT_COLUMNS,
    SIM_MODELS_DEFAULT,
    ExperimentConfig,
    strip_wall_time,
)
from deeptrees.lattice import LatticeSpace, ParityConcept, UniformDistribution
from deeptrees.learn import TrainConfig

# Input sizes per scale. "full" is what the benchmark measures; "tiny"
# only exercises every path, for the benchmark's own tests.
SIZES = {
    "full": {
        "sim-n2": {"n": 2, "sample_count": 2500, "max_depth": 15},
        "sim-n8": {"n": 8, "sample_count": 1000, "max_depth": 15},
        "exact-suite": {
            "gini_ns": (2, 4, 6, 8), "a_values": (3, 2),
            "compile_corpus": 100, "error_corpus": 1000, "oracle_ns": (2, 3),
        },
        "model-io": {
            "n": 4, "sample_count": 5000, "forest_depth": 3, "cascade_depth": 4,
            "cascade_points": 1000, "forest_points": 100,
            "probe_points": {"cascade": 20000, "forest": 2000},
        },
    },
    "tiny": {
        "sim-n2": {"n": 2, "sample_count": 300, "max_depth": 3},
        "sim-n8": {"n": 8, "sample_count": 300, "max_depth": 3},
        "exact-suite": {
            "gini_ns": (2,), "a_values": (3, 2),
            "compile_corpus": 3, "error_corpus": 20, "oracle_ns": (2, 3),
        },
        "model-io": {
            "n": 4, "sample_count": 300, "forest_depth": 3, "cascade_depth": 3,
            "cascade_points": 20, "forest_points": 10,
            "probe_points": {"cascade": 50, "forest": 20},
        },
    },
}

# Minimal leaves of exact parity on [2]^n at epsilon 0 and 1/4.
ORACLE_LEAVES = {
    (2, Fraction(0)): 4, (2, Fraction(1, 4)): 3, (3, Fraction(0)): 8, (3, Fraction(1, 4)): 5,
}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Models:
    """The model-I/O inputs: a dataset and a tree, an RF-29 and a DT-3 trained on it."""

    X: np.ndarray
    y: np.ndarray
    tree: object
    forest: object
    cascade: object


def train_models(sizes: dict, seed: int) -> Models:
    data = data_io.generate_simulation(
        SimulationSpec(n=sizes["n"], sample_count=sizes["sample_count"], seed=seed)
    )
    X, y = data.train_X, data.train_y
    tree = learn.train_tree(X, y, TrainConfig(seed=seed, bootstrap=False))
    forest = learn.train_forest(
        X, y,
        TrainConfig(
            max_depth=sizes["forest_depth"], seed=seed, n_trees=29, feature_subsample="sqrt"
        ),
    )
    cascade = learn.train_cascade(
        X, y, TrainConfig(max_depth=sizes["cascade_depth"], seed=seed, cascade_depth=3)
    )
    return Models(data.X, data.y, tree, forest, cascade)


def point_stream(model, rows) -> tuple[np.ndarray, list]:
    """Single-row predictions and their latencies in microseconds.

    Latencies are read on this thread's CPU clock: on a shared virtual
    machine the wall clock also counts time the host gave the CPU to
    others, which lands in the tail regardless of the program."""
    clock = time.thread_time_ns
    labels = np.empty(len(rows), dtype=np.int64)
    latencies = []
    for i, x in enumerate(rows):
        start = clock()
        labels[i] = model.predict(x)
        latencies.append((clock() - start) / 1000.0)
    return labels, latencies


class PointProbe:
    """Point-query latencies on the model-I/O models, for workloads whose
    iterations make none. Each call takes the given share of the targets,
    and a last call with the whole share fills them. Each answer is checked
    against the batch prediction of the same rows."""

    def __init__(self, models: Models, targets: dict):
        self.models = models
        self.targets = targets  # samples wanted per model attribute
        self.problems = []
        self.used = False

    def sample(self, latencies: dict, share: float = 1.0):
        X = self.models.X
        for key, target in self.targets.items():
            have = len(latencies[key])
            count = min(target - have, math.ceil(target * share))
            if count <= 0:
                continue
            self.used = True
            model = getattr(self.models, key)
            rows = X[(have + np.arange(count)) % len(X)]
            labels, measured = point_stream(model, rows)
            latencies[key] += measured
            if not np.array_equal(labels, learn.predict(model, rows)):
                self.problems.append(f"{key} point predictions differ from the batch predictions")


class DigestGate:
    """Output digests must match the ones recorded for this seed; for a
    seed with no record, every iteration must match the run's first."""

    def __init__(self, recorded):
        self.expected = recorded

    def check(self, digests: dict) -> list:
        if self.expected is None:
            self.expected = digests
            return []
        return [
            f"{name}: digest {digests.get(name)} != expected {value}"
            for name, value in self.expected.items()
            if digests.get(name) != value
        ]


class Workload:
    def __init__(self, sizes: dict, seed: int, recorded=None):
        self.sizes = sizes
        self.seed = seed
        self.gate = DigestGate(recorded)

    def setup(self, model_sizes: dict) -> None:
        self.models = train_models(model_sizes, self.seed)

    def iterate(self, workdir: Path, index: int, pause) -> dict:
        """One timed iteration. It may call pause() between independent
        parts; the runner samples the point probe there and leaves that
        time out of the iteration."""
        raise NotImplementedError

    def check(self, out: dict) -> list:
        """Problems found in one iteration's outputs; empty when correct."""
        raise NotImplementedError


class SimSweep(Workload):
    """``run_experiment`` on the sim sweep at one input dimension."""

    def iterate(self, workdir, index, pause):
        cfg = ExperimentConfig(
            "sim", seed=self.seed, out_dir=workdir, sim_ns=(self.sizes["n"],),
            sim_sample_count=self.sizes["sample_count"],
            sim_depths=tuple(range(1, self.sizes["max_depth"] + 1)),
        )
        written = experiments.run_experiment(cfg)
        return {
            "table": Path(written["table"]).read_text(encoding="utf-8"),
            "summary": Path(written["summary"]).read_text(encoding="utf-8"),
            "plots": [Path(p).name for p in written["plots"]],
        }

    def check(self, out):
        problems = []
        lines = out["table"].splitlines()
        expected_rows = len(SIM_MODELS_DEFAULT) * self.sizes["max_depth"]
        if len(lines) != expected_rows + 1:
            problems.append(f"sim.csv has {len(lines) - 1} rows, expected {expected_rows}")
        header = lines[0].split(",")
        for column in ("train_accuracy", "test_accuracy"):
            j = header.index(column)
            values = [float(line.split(",")[j]) for line in lines[1:]]
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"{column} outside [0, 1]")
        if len(out["summary"].splitlines()) != len(SIM_MODELS_DEFAULT) + 1:
            problems.append("sim_summary.csv does not hold one row per model")
        if out["plots"] != [f"sim_n-{self.sizes['n']}.svg"]:
            problems.append(f"unexpected plots {out['plots']}")
        return problems + self.gate.check(self.digests(out))

    def digests(self, out):
        """SHA-256 of the tables the gate pins."""
        return {
            "sim.csv": sha256_text(strip_wall_time(out["table"])),
            "sim_summary.csv": sha256_text(out["summary"]),
        }


class ExactSuite(Workload):
    """The bounds suite, the exact Gini verification and oracle queries."""

    def iterate(self, workdir, index, pause):
        cfg = ExperimentConfig(
            "bounds", seed=self.seed, out_dir=workdir,
            bounds_compile_corpus=self.sizes["compile_corpus"],
            bounds_error_corpus=self.sizes["error_corpus"],
        )
        bounds = experiments.run_bounds_suite(cfg)
        pause()
        # one (n, a) case per call gives the same rows, in the same order,
        # as one call over the whole grid, with pauses between the cases
        gini_rows, gini_reports = [], []
        for n in self.sizes["gini_ns"]:
            for a in self.sizes["a_values"]:
                rows, reports = experiments.run_gini_verification(
                    replace(cfg, gini_ns=(n,), gini_a_values=(a,))
                )
                gini_rows += rows
                gini_reports += reports
                pause()
        oracle = {}
        for n in self.sizes["oracle_ns"]:
            space = LatticeSpace(n, 2)
            for epsilon in (Fraction(0), Fraction(1, 4)):
                result = analysis.tree_complexity_oracle(
                    space, ParityConcept(space), UniformDistribution(space), epsilon,
                    max_leaves=space.size,
                )
                oracle[(n, epsilon)] = result.minimal_leaves
        tables = {
            "bounds.csv": experiments.write_table(bounds, BOUNDS_COLUMNS, workdir / "bounds.csv"),
            "gini.csv": experiments.write_table(gini_rows, GINI_COLUMNS, workdir / "gini.csv"),
            "gini_summary.csv": experiments.write_table(
                gini_reports, GINI_REPORT_COLUMNS, workdir / "gini_summary.csv"
            ),
        }
        return {
            "bounds": bounds,
            "gini_reports": gini_reports,
            "oracle": oracle,
            "tables": {name: path.read_text(encoding="utf-8") for name, path in tables.items()},
        }

    def check(self, out):
        problems = [
            f"bounds check failed: {row['check']} {row['params']}"
            for row in out["bounds"]
            if not row["passed"]
        ]
        for report in out["gini_reports"]:
            a = int(report["subject"].rsplit("a=", 1)[1])
            if report["passed"] != (a == 3):
                problems.append(f"gini {report['subject']}: passed={report['passed']}")
        expected_reports = len(self.sizes["gini_ns"]) * len(self.sizes["a_values"])
        if len(out["gini_reports"]) != expected_reports:
            problems.append(f"{len(out['gini_reports'])} gini reports, expected {expected_reports}")
        for key, leaves in out["oracle"].items():
            if leaves != ORACLE_LEAVES[key]:
                problems.append(f"oracle [2]^{key[0]} eps={key[1]}: {leaves} leaves")
        return problems + self.gate.check(self.digests(out))

    def digests(self, out):
        return {name: sha256_text(text) for name, text in out["tables"].items()}


class ModelIO(Workload):
    """A CLI-shaped round trip: CSV, model text, batch and point prediction."""

    def iterate(self, workdir, index, pause):
        m = self.models
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "data.csv"
        data_io.write_csv(m.X, m.y, path)
        X, y, _ = data_io.read_csv(path)
        named = {"tree": m.tree, "forest": m.forest, "cascade": m.cascade}
        parsed = {k: sexpr.parse_model(sexpr.print_model(v)) for k, v in named.items()}
        batch = {k: learn.predict(v, X) for k, v in named.items()}
        out = {"X": X, "y": y, "named": named, "parsed": parsed}
        for key in ("cascade", "forest"):
            count = self.sizes[f"{key}_points"]
            start = index * count % (len(X) - count + 1)
            rows = slice(start, start + count)
            labels, out[f"{key}_us"] = point_stream(named[key], X[rows])
            out[f"{key}_point"] = (labels, batch[key][rows])
        return out

    def check(self, out):
        m = self.models
        problems = []
        if out["X"].tobytes() != m.X.tobytes() or out["y"].tobytes() != m.y.tobytes():
            problems.append("read_csv did not return the written arrays bit for bit")
        for name, model in out["named"].items():
            if out["parsed"][name] != model:
                problems.append(f"parse_model(print_model({name})) differs from the model")
        for name in ("cascade_point", "forest_point"):
            point, batch = out[name]
            if not np.array_equal(point, batch):
                problems.append(f"{name} predictions differ from the batch predictions")
        return problems


WORKLOADS = {
    "sim-n2": SimSweep,
    "sim-n8": SimSweep,
    "exact-suite": ExactSuite,
    "model-io": ModelIO,
}

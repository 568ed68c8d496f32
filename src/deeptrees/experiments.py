"""Experiment harness: the simulation sweep, the exact impurity-pattern
verification, the bound-check suite, and the benchmark sweep.

Every run writes a machine-readable CSV before any plot, and reruns with
the same config and seed reproduce the CSV byte for byte except for the
wall-time column.
"""

import configparser
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import (
    forest_zero_error_leafbound,
    gini_gain_map,
    label_partition,
    risk_report,
)
from .construct import build_parity_deeptree, compile_report, compile_to_deeptree
from .data_io import BUILTIN_MANIFESTS, SimulationSpec, fetch_dataset, generate_simulation
from .ensemble import TIE_NEGATIVE, Forest, model_dim, predict_batch, resolve_votes, total_leaves
from .lattice import LatticeSpace, ParityConcept, ProductDistribution, UniformDistribution
from .learn import (
    TrainConfig,
    depth_labels,
    depth_leaf_counts,
    train_cascade,
    train_forest,
    train_forest_grown,
    train_tree,
    train_tree_grown,
    truncate_depth,
)
from .rng import generator
from .tree import Leaf, Node, Region, dim_from_leaves, evaluate_batch, leaf_count, tree_labels

SIM_MODELS_DEFAULT = ("T", "DT-2", "DT-3", "DT-4", "RF-9", "RF-19", "RF-29")

SIM_COLUMNS = (
    "experiment", "subject", "model", "setting", "total_leaves", "dim",
    "train_accuracy", "test_accuracy", "wall_time", "seed",
)
SUMMARY_COLUMNS = ("experiment", "subject", "model", "leaves_to_99")
GINI_COLUMNS = (
    "experiment", "subject", "layer", "region", "feature", "cut", "gain",
    "midpoint_ok", "same_feature_ok",
)
GINI_REPORT_COLUMNS = ("experiment", "subject", "nodes", "violations", "passed")
BOUNDS_COLUMNS = ("experiment", "check", "params", "measured", "bound", "passed")
UCI_COLUMNS = (
    "experiment", "subject", "model", "tree_size", "width", "total_trees",
    "total_leaves", "dim", "train_accuracy", "test_accuracy", "wall_time", "seed",
)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out_dir: Path = Path("results")
    scale: str = "desk"  # "desk" | "paper"
    offline: bool = False
    # simulation sweep
    sim_ns: tuple = (2, 4, 8)
    sim_models: tuple = SIM_MODELS_DEFAULT
    sim_depths: tuple = tuple(range(1, 16))
    sim_sample_count: Optional[int] = None  # None picks the scale default
    sim_a: int = 3
    # impurity verification
    gini_ns: tuple = (2, 4, 6)
    gini_a_values: tuple = (3, 2)
    # bound suite
    bounds_compile_corpus: int = 100
    bounds_error_corpus: int = 1000
    # benchmark sweep
    uci_datasets: tuple = ("pendigits", "satimage", "segment")
    uci_rf_widths: tuple = (50, 100, 200, 400, 800, 1600)
    uci_df_widths: tuple = (25, 50, 100, 200, 400, 800)
    uci_tree_sizes: tuple = (8, 16, 32)
    cache_dir: Optional[Path] = None

    def __post_init__(self):
        if self.experiment not in ("sim", "gini", "bounds", "uci"):
            raise ValueError(f"unknown experiment id {self.experiment!r}")
        if self.scale not in ("desk", "paper"):
            raise ValueError(f"unknown scale {self.scale!r}")
        for grid_name in (
            "sim_ns", "sim_models", "sim_depths", "gini_ns", "gini_a_values",
            "uci_datasets", "uci_rf_widths", "uci_df_widths", "uci_tree_sizes",
        ):
            if not getattr(self, grid_name):
                raise ValueError(f"{grid_name} must be a nonempty grid")
        if min(self.sim_depths) < 0:
            raise ValueError("sim_depths must be >= 0")
        if min(self.uci_rf_widths) < 1:
            raise ValueError("uci_rf_widths must be >= 1")

    @property
    def sample_count(self) -> int:
        if self.sim_sample_count is not None:
            return self.sim_sample_count
        return 1_000_000 if self.scale == "paper" else 100_000


def _parse_ints(text: str) -> tuple:
    """Comma-separated integers; "a-b" expands to the inclusive range."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece[1:]:
            lo, hi = piece.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(piece))
    return tuple(out)


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """ExperimentConfig from the flat sectioned key-value format."""
    parser = configparser.ConfigParser()
    parser.read_string(Path(path).read_text(encoding="utf-8"))
    exp = parser["experiment"]
    kwargs: dict = {
        "experiment": exp.get("id", "sim"),
        "seed": exp.getint("seed", 0),
        "scale": exp.get("scale", "desk"),
    }
    if "out_dir" in exp:
        kwargs["out_dir"] = Path(exp["out_dir"])
    if parser.has_section("sim"):
        sim = parser["sim"]
        if "ns" in sim:
            kwargs["sim_ns"] = _parse_ints(sim["ns"])
        if "models" in sim:
            kwargs["sim_models"] = tuple(m.strip() for m in sim["models"].split(",") if m.strip())
        if "depths" in sim:
            kwargs["sim_depths"] = _parse_ints(sim["depths"])
        if "sample_count" in sim:
            kwargs["sim_sample_count"] = sim.getint("sample_count")
        if "a" in sim:
            kwargs["sim_a"] = sim.getint("a")
    if parser.has_section("gini"):
        gini = parser["gini"]
        if "ns" in gini:
            kwargs["gini_ns"] = _parse_ints(gini["ns"])
        if "a_values" in gini:
            kwargs["gini_a_values"] = _parse_ints(gini["a_values"])
    if parser.has_section("bounds"):
        bounds = parser["bounds"]
        if "compile_corpus" in bounds:
            kwargs["bounds_compile_corpus"] = bounds.getint("compile_corpus")
        if "error_corpus" in bounds:
            kwargs["bounds_error_corpus"] = bounds.getint("error_corpus")
    if parser.has_section("uci"):
        uci = parser["uci"]
        if "datasets" in uci:
            kwargs["uci_datasets"] = tuple(d.strip() for d in uci["datasets"].split(",") if d.strip())
        if "rf_widths" in uci:
            kwargs["uci_rf_widths"] = _parse_ints(uci["rf_widths"])
        if "df_widths" in uci:
            kwargs["uci_df_widths"] = _parse_ints(uci["df_widths"])
        if "tree_sizes" in uci:
            kwargs["uci_tree_sizes"] = _parse_ints(uci["tree_sizes"])
        if "cache" in uci:
            kwargs["cache_dir"] = Path(uci["cache"])
    if overrides:
        kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_table(rows, columns, path):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def strip_wall_time(csv_text: str) -> str:
    """The determinism contract ignores the wall-time column."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    if "wall_time" not in header:
        return csv_text
    drop = header.index("wall_time")
    kept = [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]
    return "\n".join(kept)


# ---------------------------------------------------------------------------
# simulation sweep
# ---------------------------------------------------------------------------


def _accuracy_pair(model, data) -> tuple[float, float]:
    train_pred = predict_batch(model, data.train_X)
    test_pred = predict_batch(model, data.test_X)
    return (
        float(np.mean(train_pred == data.train_y)),
        float(np.mean(test_pred == data.test_y)),
    )


def _sim_row(cfg, subject, model_name, depth, leaves, dim, accuracies, elapsed) -> dict:
    train_acc, test_acc = accuracies
    return {
        "experiment": "sim",
        "subject": subject,
        "model": model_name,
        "setting": f"depth={depth}",
        "total_leaves": leaves,
        "dim": dim,
        "train_accuracy": train_acc,
        "test_accuracy": test_acc,
        "wall_time": round(elapsed, 6),
        "seed": cfg.seed,
    }


def _add_votes(counts, labels, classes):
    """Fold one member's labels into vote counts whose first axis follows classes."""
    for c, label in enumerate(classes):
        counts[c] += labels == label


def _vote_accuracy(classes, counts, X, y) -> float:
    """Accuracy of the default-rule majority vote over (n_classes, m) counts."""
    return float(np.mean(resolve_votes(classes, counts.T, TIE_NEGATIVE, None, X) == y))


def _budget_rows(cfg, subject, model_name, members, data, depths, grow_time) -> list:
    """Rows of the majority vote over grown trees at every depth budget.

    Each member is walked once per split by depth_labels and its label
    matrix folded into per-budget class counts straight away, so one
    member matrix is alive at a time; each budget's vote is then resolved
    once. The deepest cell carries grow_time plus the scoring of all
    budgets, the other cells 0.
    """
    start = time.perf_counter()
    deepest = max(depths)
    classes = np.unique(data.train_y)  # every grown label is a training label
    member_leaves = np.array([depth_leaf_counts(g, deepest) for g in members])
    leaves = member_leaves.sum(axis=0)
    dims = dim_from_leaves(member_leaves).sum(axis=0)
    accuracy = []  # per split, depth -> accuracy
    for X, y in ((data.train_X, data.train_y), (data.test_X, data.test_y)):
        counts = np.zeros((len(classes), deepest + 1, len(X)), dtype=np.int64)
        for grown in members:
            _add_votes(counts, depth_labels(grown, X, deepest), classes)
        accuracy.append(
            {depth: _vote_accuracy(classes, counts[:, depth], X, y) for depth in set(depths)}
        )
    train_accuracy, test_accuracy = accuracy
    elapsed = grow_time + time.perf_counter() - start
    return [
        _sim_row(
            cfg, subject, model_name, depth, int(leaves[depth]), int(dims[depth]),
            (train_accuracy[depth], test_accuracy[depth]), elapsed if depth == deepest else 0.0,
        )
        for depth in depths
    ]


def run_simulation(cfg: ExperimentConfig) -> list:
    """Sweep (model kind, max depth) cells over the synthetic parity data.

    A single greedy tree (T) and each forest member (RF-N) are grown once
    at the deepest budget. Truncating a grown tree to depth d gives exactly
    the tree a fresh run with that max_depth trains, so one walk of each
    grown tree per split scores every depth at once (depth_labels), and
    the leaf counts of every depth come from depth_leaf_counts. On T and
    RF rows the deepest cell's wall_time carries the growth plus the
    scoring of all depths, and the other cells carry 0. Cascade layers
    past the first are retrained per depth because their inputs include
    the previous layer's predictions at that depth; a DT row's wall_time
    is that training alone.
    """
    rows = []
    depths = sorted(cfg.sim_depths)
    deepest = max(depths)
    for n in cfg.sim_ns:
        spec = SimulationSpec(n=n, a=cfg.sim_a, sample_count=cfg.sample_count, seed=cfg.seed)
        data = generate_simulation(spec)
        subject = f"n={n}"
        tree_cfg = TrainConfig(
            max_depth=deepest, seed=cfg.seed, bootstrap=False, feature_subsample="all"
        )
        start = time.perf_counter()
        tree_grown = train_tree_grown(data.train_X, data.train_y, tree_cfg)
        tree_grow_time = time.perf_counter() - start
        for model_name in cfg.sim_models:
            if model_name == "T":
                rows += _budget_rows(
                    cfg, subject, model_name, (tree_grown,), data, depths, tree_grow_time
                )
            elif model_name.startswith("RF-"):
                width = int(model_name.split("-", 1)[1])
                forest_cfg = TrainConfig(
                    max_depth=deepest, seed=cfg.seed, n_trees=width,
                    bootstrap=True, feature_subsample="sqrt",
                )
                start = time.perf_counter()
                members = train_forest_grown(data.train_X, data.train_y, forest_cfg)
                grow_time = time.perf_counter() - start
                rows += _budget_rows(cfg, subject, model_name, members, data, depths, grow_time)
            elif model_name.startswith("DT-"):
                cascade_depth = int(model_name.split("-", 1)[1])
                for depth in depths:
                    cascade_cfg = TrainConfig(
                        max_depth=depth, seed=cfg.seed, cascade_depth=cascade_depth,
                        augment_mode="label",
                    )
                    start = time.perf_counter()
                    first = truncate_depth(tree_grown, depth)
                    model = train_cascade(data.train_X, data.train_y, cascade_cfg, first_layer=first)
                    elapsed = time.perf_counter() - start
                    rows.append(
                        _sim_row(
                            cfg, subject, model_name, depth, total_leaves(model),
                            model_dim(model), _accuracy_pair(model, data), elapsed,
                        )
                    )
            else:
                raise ValueError(f"unknown simulation model {model_name!r}")
    return rows


def leaves_to_target(rows, target: float = 0.99) -> dict:
    """Minimum total leaves reaching the target test accuracy, per (subject, model)."""
    out: dict = {}
    for row in rows:
        key = (row["subject"], row["model"])
        out.setdefault(key, None)
        if row["test_accuracy"] >= target:
            leaves = row["total_leaves"]
            if out[key] is None or leaves < out[key]:
                out[key] = leaves
    return out


def summary_rows(rows, target: float = 0.99) -> list:
    summary = leaves_to_target(rows, target)
    out = []
    for (subject, model), leaves in sorted(summary.items()):
        out.append(
            {
                "experiment": "sim",
                "subject": subject,
                "model": model,
                "leaves_to_99": "fail" if leaves is None else leaves,
            }
        )
    return out


# ---------------------------------------------------------------------------
# impurity-pattern verification
# ---------------------------------------------------------------------------


def _region_text(region: Region) -> str:
    return "x".join(f"[{lo};{hi}]" for lo, hi in region)


def _canonical_key(region: Region):
    # resolved coordinates do not change the conditional law of the rest
    return tuple((lo, hi) if hi > lo else None for lo, hi in region)


def run_gini_verification(cfg: ExperimentConfig) -> tuple[list, list]:
    """Exact greedy-split traces; PASS means every node splits its chosen
    feature at the midpoint of the feature's current range and children of
    a fresh split keep splitting the same feature until it is resolved."""
    rows: list = []
    reports: list = []
    for n in cfg.gini_ns:
        for a in cfg.gini_a_values:
            subject = f"n={n},a={a}"
            space = LatticeSpace(n, 4)
            dist = ProductDistribution(space, a)
            concept = ParityConcept(space)
            node_count = 0
            violations = 0
            seen: set = set()

            def trace(region: Region, layer: int, pending: Optional[int]):
                nonlocal node_count, violations
                key = (_canonical_key(region), layer, pending)
                if key in seen:
                    return
                seen.add(key)
                gm = gini_gain_map(space, dist, concept, region)
                if gm.best is None:
                    return
                feature, cut = gm.best
                lo, hi = region[feature - 1]
                midpoint_ok = (lo + hi) % 2 == 1 and cut == (lo + hi - 1) // 2
                same_ok = pending is None or feature == pending
                node_count += 1
                if not (midpoint_ok and same_ok):
                    violations += 1
                rows.append(
                    {
                        "experiment": "gini",
                        "subject": subject,
                        "layer": layer,
                        "region": _region_text(region),
                        "feature": feature,
                        "cut": cut,
                        "gain": float(gm.gains[gm.best]),
                        "midpoint_ok": midpoint_ok,
                        "same_feature_ok": same_ok,
                    }
                )
                if layer >= 2 * n:
                    return
                for side in ("left", "right"):
                    child = list(region)
                    if side == "left":
                        child[feature - 1] = (lo, cut)
                    else:
                        child[feature - 1] = (cut + 1, hi)
                    child_region = tuple(child)
                    clo, chi = child_region[feature - 1]
                    child_pending = feature if chi > clo else None
                    trace(child_region, layer + 1, child_pending)

            full: Region = tuple((1, 4) for _ in range(n))
            trace(full, 1, None)
            reports.append(
                {
                    "experiment": "gini",
                    "subject": subject,
                    "nodes": node_count,
                    "violations": violations,
                    "passed": violations == 0,
                }
            )
    return rows, reports


def uniform_zero_gain_check(n: int) -> bool:
    """Root gains all vanish for parity under the uniform distribution."""
    space = LatticeSpace(n, 4)
    gm = gini_gain_map(space, UniformDistribution(space), ParityConcept(space))
    return all(g == 0 for g in gm.gains.values())


# ---------------------------------------------------------------------------
# bound-check suite
# ---------------------------------------------------------------------------


def random_region_tree(space: LatticeSpace, rng, max_extra_splits: int):
    """Random tree with in-range integer-cut splits; labels random in {-1, +1}."""

    def build(region: Region, budget: int):
        splittable = [
            (j, lo, hi) for j, (lo, hi) in enumerate(region) if hi > lo
        ]
        if budget <= 0 or not splittable or rng.random() < 0.25:
            return Leaf(-1 if rng.random() < 0.5 else 1)
        j, lo, hi = splittable[int(rng.integers(len(splittable)))]
        cut = int(rng.integers(lo, hi))
        left = list(region)
        left[j] = (lo, cut)
        right = list(region)
        right[j] = (cut + 1, hi)
        left_budget = int(rng.integers(0, budget))
        return Node(
            j + 1,
            float(cut),
            build(tuple(left), left_budget),
            build(tuple(right), budget - 1 - left_budget),
        )

    full: Region = tuple((1, space.p) for _ in range(space.n))
    return build(full, max_extra_splits)


def random_cart_tree(space: LatticeSpace, seed: int, index: int):
    """CART trained on a random labeling of the whole lattice.

    Labelings whose greedy tree collapses to a single output value are
    redrawn (deterministically), so the corpus consists of genuinely
    two-class trees; the constant case is covered separately by the
    compiler's degenerate branch.
    """
    points = space.enumerate_points()
    for attempt in range(64):
        rng = generator(seed, "cart-corpus", index, attempt)
        labels = np.where(rng.random(space.size) < 0.5, -1, 1)
        max_leaves = int(rng.integers(2, 11))
        cfg = TrainConfig(max_leaves=max_leaves, seed=seed, bootstrap=False, feature_subsample="all")
        tree = train_tree(points.astype(np.float64), labels, cfg)
        if len(tree_labels(tree)) == 2:
            return tree
    raise RuntimeError("could not draw a two-class CART tree")


def _bounds_row(check, params, measured, bound, passed) -> dict:
    return {
        "experiment": "bounds",
        "check": check,
        "params": params,
        "measured": measured,
        "bound": bound,
        "passed": passed,
    }


def perfect_parity_tree(space: LatticeSpace):
    """Tree with one leaf per lattice point, labeled by parity."""

    def build(region: Region):
        for j, (lo, hi) in enumerate(region):
            if hi > lo:
                cut = (lo + hi) // 2
                left = list(region)
                left[j] = (lo, cut)
                right = list(region)
                right[j] = (cut + 1, hi)
                return Node(j + 1, float(cut), build(tuple(left)), build(tuple(right)))
        point = [lo for lo, _ in region]
        return Leaf(1 - 2 * (sum(point) & 1))

    return build(tuple((1, space.p) for _ in range(space.n)))


def run_bounds_suite(cfg: ExperimentConfig) -> list:
    rows = []
    # constructive parity cascade: exact everywhere and within 10pn
    for p in (2, 3, 4):
        for n in range(1, 9):
            space = LatticeSpace(n, p)
            cascade = build_parity_deeptree(p, n)
            points = space.enumerate_points()
            predictions = cascade.predict_batch(points.astype(np.float64))
            truth = ParityConcept(space).labels(points)
            mismatches = int(np.count_nonzero(predictions != truth))
            rows.append(
                _bounds_row("parity-cascade-exact", f"p={p},n={n}", mismatches, 0, mismatches == 0)
            )
            dim = model_dim(cascade)
            rows.append(
                _bounds_row("parity-cascade-dim", f"p={p},n={n}", dim, 10 * p * n, dim <= 10 * p * n)
            )
    # tree-to-cascade compiler on a CART corpus
    space = LatticeSpace(3, 4)
    points = space.enumerate_points().astype(np.float64)
    agree_failures = 0
    formula_failures = 0
    bound_failures = 0
    for i in range(cfg.bounds_compile_corpus):
        source = random_cart_tree(space, cfg.seed, i)
        compiled = compile_to_deeptree(source, space)
        report = compile_report(source, space)
        if not np.array_equal(
            compiled.predict_batch(points), predict_batch(source, points)
        ):
            agree_failures += 1
        if report["compiled_dim"] != report["exact_formula_dim"]:
            formula_failures += 1
        if report["compiled_dim"] > report["worst_case_bound"]:
            bound_failures += 1
    rows.append(
        _bounds_row(
            "compile-agreement", f"corpus={cfg.bounds_compile_corpus}", agree_failures, 0,
            agree_failures == 0,
        )
    )
    rows.append(
        _bounds_row(
            "compile-exact-dim", f"corpus={cfg.bounds_compile_corpus}", formula_failures, 0,
            formula_failures == 0,
        )
    )
    rows.append(
        _bounds_row(
            "compile-worst-case", f"corpus={cfg.bounds_compile_corpus}", bound_failures, 0,
            bound_failures == 0,
        )
    )
    # zero-error forests keep at least p^n leaves in total
    for p in (2, 3, 4):
        space = LatticeSpace(2, p)
        concept = ParityConcept(space)
        perfect = perfect_parity_tree(space)
        forests = [
            Forest((perfect,)),
            Forest((perfect, perfect, Leaf(1))),
        ]
        trained = _zero_error_trained_forest(space, cfg.seed)
        if trained is not None:
            forests.append(trained)
        for k, forest in enumerate(forests):
            report = forest_zero_error_leafbound(forest, concept, space)
            rows.append(
                _bounds_row(
                    "forest-leafbound", f"p={p},n=2,instance={k}",
                    report.total_leaf_count, report.space_size, report.holds,
                )
            )
    # label-connected partition counts
    for p in (2, 3, 4):
        for n in range(1, 7):
            space = LatticeSpace(n, p)
            part = label_partition(space, ParityConcept(space), r=1)
            gap = abs(part.count_with_label(1) - part.count_with_label(-1))
            rows.append(
                _bounds_row(
                    "parity-partition-count", f"p={p},n={n}", part.class_count, space.size,
                    part.class_count == space.size,
                )
            )
            rows.append(_bounds_row("parity-partition-gap", f"p={p},n={n}", gap, 1, gap <= 1))
    # error-set lower bound over a random tree corpus
    space = LatticeSpace(3, 4)
    concept = ParityConcept(space)
    dist = UniformDistribution(space)
    rng = generator(cfg.seed, "error-floor-corpus")
    failures = 0
    for _ in range(cfg.bounds_error_corpus):
        tree = random_region_tree(space, rng, max_extra_splits=10)
        report = risk_report(tree, concept, dist, space)
        bound = (space.size - report.leaf_count) / 2
        if report.error_set_size < bound:
            failures += 1
    rows.append(
        _bounds_row(
            "error-set-lower-bound", f"corpus={cfg.bounds_error_corpus}", failures, 0,
            failures == 0,
        )
    )
    return rows


def _zero_error_trained_forest(space: LatticeSpace, seed: int) -> Optional[Forest]:
    """Bagged forest trained on the replicated lattice; None when it misses zero risk."""
    points = space.enumerate_points()
    X = np.tile(points, (32, 1)).astype(np.float64)
    y = np.tile(ParityConcept(space).labels(points), 32)
    forest = train_forest(
        X, y, TrainConfig(seed=seed, n_trees=9, bootstrap=True, feature_subsample="sqrt")
    )
    votes = forest.member_predictions(points.astype(np.float64))
    truth = ParityConcept(space).labels(points)
    correct = (votes == truth[None, :]).sum(axis=0)
    if bool(np.all(correct * 2 > len(forest.trees))):
        return forest
    return None


# ---------------------------------------------------------------------------
# benchmark sweep
# ---------------------------------------------------------------------------


def run_uci(cfg: ExperimentConfig) -> list:
    rows = []
    for name in cfg.uci_datasets:
        data = fetch_dataset(BUILTIN_MANIFESTS[name], cfg.cache_dir, offline=cfg.offline)
        for size in cfg.uci_tree_sizes:
            rf_cfg = TrainConfig(
                max_leaves=size, seed=cfg.seed, n_trees=max(cfg.uci_rf_widths),
                bootstrap=True, feature_subsample="sqrt",
            )
            start = time.perf_counter()
            grown = train_forest_grown(data.train_X, data.train_y, rf_cfg)
            # member t depends only on (seed, t), so the first `width`
            # members are the forest trained with n_trees=width: every
            # width is read off one pass of running vote counts
            classes = np.unique(data.train_y)
            splits = ((data.train_X, data.train_y), (data.test_X, data.test_y))
            counts = [np.zeros((len(classes), len(X)), dtype=np.int64) for X, _ in splits]
            leaves = dim = 0
            prefixes = {}
            for t, member in enumerate(grown, start=1):
                for (X, _), split_counts in zip(splits, counts):
                    _add_votes(split_counts, evaluate_batch(member, X), classes)
                member_leaves = leaf_count(member)
                leaves += member_leaves
                dim += dim_from_leaves(member_leaves)
                if t in cfg.uci_rf_widths:
                    prefixes[t] = (leaves, dim, tuple(
                        _vote_accuracy(classes, split_counts, X, y)
                        for (X, y), split_counts in zip(splits, counts)
                    ))
            elapsed = time.perf_counter() - start
            for width in cfg.uci_rf_widths:
                leaves, dim, (train_acc, test_acc) = prefixes[width]
                rows.append(
                    {
                        "experiment": "uci",
                        "subject": name,
                        "model": "RF",
                        "tree_size": size,
                        "width": width,
                        "total_trees": width,
                        "total_leaves": leaves,
                        "dim": dim,
                        "train_accuracy": train_acc,
                        "test_accuracy": test_acc,
                        "wall_time": round(elapsed if width == max(cfg.uci_rf_widths) else 0.0, 6),
                        "seed": cfg.seed,
                    }
                )
            for width in cfg.uci_df_widths:
                df_cfg = TrainConfig(
                    max_leaves=size, seed=cfg.seed, n_trees=width, bootstrap=True,
                    feature_subsample="sqrt", cascade_depth=2, augment_mode="classvector",
                )
                start = time.perf_counter()
                cascade = train_cascade(data.train_X, data.train_y, df_cfg)
                train_pred = cascade.predict_batch(data.train_X)
                test_pred = cascade.predict_batch(data.test_X)
                elapsed = time.perf_counter() - start
                rows.append(
                    {
                        "experiment": "uci",
                        "subject": name,
                        "model": "DF-2",
                        "tree_size": size,
                        "width": width,
                        "total_trees": 2 * width,
                        "total_leaves": total_leaves(cascade),
                        "dim": model_dim(cascade),
                        "train_accuracy": float(np.mean(train_pred == data.train_y)),
                        "test_accuracy": float(np.mean(test_pred == data.test_y)),
                        "wall_time": round(elapsed, 6),
                        "seed": cfg.seed,
                    }
                )
    return rows


def summarize_uci(rows) -> dict:
    """Matched-budget DF-vs-RF wins and large-vs-small tree-size wins."""
    summary: dict = {}
    datasets = sorted({r["subject"] for r in rows})
    for name in datasets:
        sub = [r for r in rows if r["subject"] == name]
        wins = 0
        cells = 0
        for row in sub:
            if row["model"] != "DF-2":
                continue
            match = [
                r
                for r in sub
                if r["model"] == "RF"
                and r["tree_size"] == row["tree_size"]
                and r["total_trees"] == row["total_trees"]
            ]
            if not match:
                continue
            cells += 1
            if row["test_accuracy"] >= match[0]["test_accuracy"]:
                wins += 1
        sizes = sorted({r["tree_size"] for r in sub})
        size_wins = 0
        size_cells = 0
        if len(sizes) >= 2:
            small, large = sizes[0], sizes[-1]
            for row in sub:
                if row["tree_size"] != large:
                    continue
                match = [
                    r
                    for r in sub
                    if r["model"] == row["model"]
                    and r["tree_size"] == small
                    and r["width"] == row["width"]
                ]
                if not match:
                    continue
                size_cells += 1
                if row["test_accuracy"] > match[0]["test_accuracy"]:
                    size_wins += 1
        summary[name] = {
            "df_wins": wins,
            "df_cells": cells,
            "df_majority": cells > 0 and wins * 2 > cells,
            "size_wins": size_wins,
            "size_cells": size_cells,
            "size_majority": size_cells > 0 and size_wins * 2 > size_cells,
        }
    return summary


# ---------------------------------------------------------------------------
# top-level dispatch
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment id; write CSV tables first, then derived plots."""
    from .plotting import render_plots

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict = {}
    if cfg.experiment == "sim":
        rows = run_simulation(cfg)
        written["table"] = write_table(rows, SIM_COLUMNS, out / "sim.csv")
        written["summary"] = write_table(summary_rows(rows), SUMMARY_COLUMNS, out / "sim_summary.csv")
        written["plots"] = render_plots(rows, "sim", out)
    elif cfg.experiment == "gini":
        rows, reports = run_gini_verification(cfg)
        for n in cfg.gini_ns:
            flat = uniform_zero_gain_check(n)
            reports.append(
                {
                    "experiment": "gini",
                    "subject": f"n={n},uniform",
                    "nodes": 1,
                    "violations": 0 if flat else 1,
                    "passed": flat,
                }
            )
        written["table"] = write_table(rows, GINI_COLUMNS, out / "gini.csv")
        written["summary"] = write_table(reports, GINI_REPORT_COLUMNS, out / "gini_summary.csv")
        written["plots"] = render_plots(rows, "gini", out)
    elif cfg.experiment == "bounds":
        rows = run_bounds_suite(cfg)
        written["table"] = write_table(rows, BOUNDS_COLUMNS, out / "bounds.csv")
    elif cfg.experiment == "uci":
        rows = run_uci(cfg)
        written["table"] = write_table(rows, UCI_COLUMNS, out / "uci.csv")
        summary = summarize_uci(rows)
        summary_table = [
            {"experiment": "uci", "subject": name, **values} for name, values in sorted(summary.items())
        ]
        written["summary"] = write_table(
            summary_table,
            ("experiment", "subject", "df_wins", "df_cells", "df_majority",
             "size_wins", "size_cells", "size_majority"),
            out / "uci_summary.csv",
        )
        written["plots"] = render_plots(rows, "uci", out)
    else:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    return written

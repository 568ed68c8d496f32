"""Experiment harness: the simulation sweep, the exact impurity-pattern
verification, the bound-check suite, and the benchmark sweep.

Every run writes a machine-readable CSV before any plot, and reruns with
the same config and seed reproduce the CSV byte for byte except for the
wall-time column.
"""

import configparser
import re
import time
from dataclasses import dataclass, field
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
from .data_io import (
    BUILTIN_MANIFESTS,
    SimulationSpec,
    fetch_dataset,
    format_table,
    generate_simulation,
    make_dir,
    read_text,
    split_sizes,
    table_lines,
    write_text,
)
from .ensemble import (
    Forest,
    model_dim,
    predict_batch,
    resolve_votes,
    total_leaves,
)
from .errors import ConfigError, PreconditionViolated
from .lattice import (
    LatticeSpace,
    ParityConcept,
    ProductDistribution,
    UniformDistribution,
    parity_label,
)
from .learn import (
    TrainConfig,
    depth_leaf_counts,
    train_cascade,
    train_forest,
    train_forest_grown,
    train_label_cascades,
    train_tree,
    train_tree_grown,
)
from .rng import generator, seed_sequence
from .tree import (
    Leaf,
    Node,
    Region,
    depth_labels,
    dim_from_leaves,
    evaluate_batch,
    full_region,
    leaf_count,
    split_region,
    tree_labels,
)

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


def parse_sim_model(name: str) -> tuple:
    """(kind, size) of a sim model name: ("T", 1) for the single tree,
    ("RF", width) for RF-<width>, ("DT", cascade depth) for DT-<depth>."""
    if name == "T":
        return ("T", 1)
    match = re.fullmatch(r"(RF|DT)-([0-9]+)", name)
    if match is None:
        raise ConfigError(f"unknown simulation model {name!r}; expected T, RF-<width> or DT-<depth>")
    size = int(match[2])
    if size < 1:
        raise ConfigError(f"simulation model {name!r}: width or cascade depth must be >= 1")
    return (match[1], size)


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
    # parse_sim_model of each sim_models name, in the same order
    sim_specs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.experiment not in ("sim", "gini", "bounds", "uci"):
            raise ConfigError(f"unknown experiment id {self.experiment!r}")
        if self.scale not in ("desk", "paper"):
            raise ConfigError(f"unknown scale {self.scale!r}")
        seed_sequence(self.seed)  # a negative seed fails here, before any output directory
        for grid_name in (
            "sim_ns", "sim_models", "sim_depths", "gini_ns", "gini_a_values",
            "uci_datasets", "uci_rf_widths", "uci_df_widths", "uci_tree_sizes",
        ):
            if not getattr(self, grid_name):
                raise ConfigError(f"{grid_name} must be a nonempty grid")
        for grid_name in (
            "sim_ns", "gini_ns", "gini_a_values", "uci_rf_widths", "uci_df_widths", "uci_tree_sizes",
        ):
            if min(getattr(self, grid_name)) < 1:
                raise ConfigError(f"{grid_name} must be >= 1")
        if self.sim_a <= 0:
            raise ConfigError(f"sim_a must be positive, got {self.sim_a}")
        if min(self.sim_depths) < 0:
            raise ConfigError("sim_depths must be >= 0")
        for grid_name in ("sim_ns", "sim_depths"):
            grid = getattr(self, grid_name)
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{grid_name} repeats an entry: {grid}")
        if min(split_sizes(self.sample_count)) < 1:
            raise ConfigError(
                f"sim_sample_count {self.sample_count} leaves the 70/30 train or test "
                "split empty; it needs at least 2 samples"
            )
        seen: dict = {}
        for name in self.sim_models:
            spec = parse_sim_model(name)
            if spec in seen:
                raise ConfigError(f"simulation model {name!r} repeats {seen[spec]!r}")
            seen[spec] = name
        object.__setattr__(self, "sim_specs", tuple(seen))

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
        try:
            if "-" in piece[1:]:
                lo, hi = piece.split("-", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(piece))
        except ValueError:
            raise ConfigError(f"expected an integer or a range a-b, got {piece!r}") from None
    return tuple(out)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_names(text: str) -> tuple:
    """Comma-separated names, blanks dropped."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


# (section, key) of the config file -> (ExperimentConfig field, parser)
CONFIG_KEYS = {
    ("experiment", "id"): ("experiment", str),
    ("experiment", "seed"): ("seed", _parse_int),
    ("experiment", "scale"): ("scale", str),
    ("experiment", "out_dir"): ("out_dir", Path),
    ("sim", "ns"): ("sim_ns", _parse_ints),
    ("sim", "models"): ("sim_models", _parse_names),
    ("sim", "depths"): ("sim_depths", _parse_ints),
    ("sim", "sample_count"): ("sim_sample_count", _parse_int),
    ("sim", "a"): ("sim_a", _parse_int),
    ("gini", "ns"): ("gini_ns", _parse_ints),
    ("gini", "a_values"): ("gini_a_values", _parse_ints),
    ("bounds", "compile_corpus"): ("bounds_compile_corpus", _parse_int),
    ("bounds", "error_corpus"): ("bounds_error_corpus", _parse_int),
    ("uci", "datasets"): ("uci_datasets", _parse_names),
    ("uci", "rf_widths"): ("uci_rf_widths", _parse_ints),
    ("uci", "df_widths"): ("uci_df_widths", _parse_ints),
    ("uci", "tree_sizes"): ("uci_tree_sizes", _parse_ints),
    ("uci", "cache"): ("cache_dir", Path),
}


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """ExperimentConfig from the flat sectioned key-value format.

    Each key of CONFIG_KEYS sets its field; the file needs an [experiment]
    section, and an unknown section or key, a syntax error or a value its
    parser rejects raises ConfigError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    kwargs: dict = {"experiment": "sim"}
    for section in parser.sections():
        for key, text in parser.items(section):
            if (section, key) not in CONFIG_KEYS:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            name, parse = CONFIG_KEYS[section, key]
            try:
                kwargs[name] = parse(text)
            except ConfigError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
    kwargs.update(overrides or {})
    return ExperimentConfig(**kwargs)


def write_table(rows, columns, path):
    path = Path(path)
    make_dir(path.parent)
    write_text(path, format_table(columns, ([row.get(c) for c in columns] for row in rows)))
    return path


def strip_wall_time(csv_text: str) -> str:
    """The determinism contract ignores the wall-time column."""
    lines = list(table_lines(csv_text))
    if not lines or "wall_time" not in lines[0][1]:
        return csv_text
    drop = lines[0][1].index("wall_time")
    kept = [[v for i, v in enumerate(fields) if i != drop] for _, fields in lines]
    # no final newline: the pinned sim digests hash the text this way
    return format_table(kept[0], kept[1:])[:-1]


# ---------------------------------------------------------------------------
# simulation sweep
# ---------------------------------------------------------------------------


def _stamp(row: dict, start: float) -> dict:
    """Write the seconds since start into the wall_time of a block's largest
    cell, the one that carries the block's training and scoring."""
    row["wall_time"] = round(time.perf_counter() - start, 6)
    return row


def _sim_row(cfg, subject, model_name, depth, leaves, dim, accuracies) -> dict:
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
        "wall_time": 0.0,
        "seed": cfg.seed,
    }


def _add_votes(counts, labels, classes):
    """Fold one member's labels into vote counts whose first axis follows classes."""
    for c, label in enumerate(classes):
        counts[c] += labels == label


def _vote_accuracy(classes, counts, y) -> float:
    """Accuracy of the majority vote over (n_classes, m) counts."""
    return float(np.mean(resolve_votes(classes, counts.T) == y))


def _width_prefixes(members, leaf_counts, splits, widths, budgets, member_labels) -> dict:
    """Leaves, dims and accuracies of the majority vote over the first w
    members, for every w in widths and every budget in budgets.

    Member t of a grown forest depends only on (seed, t), so its first w
    members are the forest trained with n_trees=w. leaf_counts[t][b] is
    member t's leaf count under budget b, and member_labels(member, X) its
    (budget, row) label matrix, which is folded into running per-budget
    class counts straight away, so one member matrix is alive at a time;
    whenever t reaches a requested width each budget's vote is resolved
    once. Returns {width: (leaves, dims, train accuracy, test accuracy)},
    leaves and dims indexed by budget, the accuracies keyed by budget.
    """
    leaves = np.cumsum(leaf_counts, axis=0)
    dims = np.cumsum(dim_from_leaves(np.asarray(leaf_counts)), axis=0)
    classes = np.unique(splits[0][1])  # every grown label is a training label
    accuracy: dict = {w: [] for w in widths}
    for X, y in splits:
        counts = np.zeros((len(classes), max(budgets) + 1, len(X)), dtype=np.int64)
        for t, member in enumerate(members, start=1):
            _add_votes(counts, member_labels(member, X), classes)
            if t in accuracy:
                accuracy[t].append(
                    {b: _vote_accuracy(classes, counts[:, b], y) for b in budgets}
                )
    return {w: (leaves[w - 1], dims[w - 1], *accuracy[w]) for w in widths}


def _splits(data) -> tuple:
    return ((data.train_X, data.train_y), (data.test_X, data.test_y))


def _vote_rows(cfg, subject, names, members, data, depths) -> dict:
    """Rows of every width prefix of grown members at every depth budget.

    names maps each width to its model name. Each member is walked once per
    split by depth_labels, which scores every depth at once.
    """
    deepest = max(depths)
    leaf_counts = [depth_leaf_counts(g, deepest) for g in members]
    prefixes = _width_prefixes(
        members, leaf_counts, _splits(data), names, set(depths),
        lambda grown, X: depth_labels(grown, X, deepest),
    )
    rows: dict = {}
    for width, name in names.items():
        leaves, dims, train_accuracy, test_accuracy = prefixes[width]
        rows[name] = [
            _sim_row(
                cfg, subject, name, depth, int(leaves[depth]), int(dims[depth]),
                (train_accuracy[depth], test_accuracy[depth]),
            )
            for depth in depths
        ]
    return rows


def _cascade_rows(cfg, subject, names, tree_grown, data, depths) -> dict:
    """Rows of every cascade-depth prefix of one label cascade per depth budget.

    names maps each cascade depth k to its model name. Layer d of a label
    cascade depends only on (seed, d) and the layers below it, so DT-k is
    the first k layers of the deepest cascade, and layer_predictions scores
    every prefix in one layered pass. The cascades of all depth budgets are
    trained together by train_label_cascades, layer 1 being the grown T.
    """
    cascades = train_label_cascades(
        data.train_X, data.train_y, TrainConfig(seed=cfg.seed, cascade_depth=max(names)),
        depths, first_layer=tree_grown,
    )
    rows: dict = {name: [] for name in names.values()}
    for depth, cascade in zip(depths, cascades):
        predictions = [
            (list(cascade.layer_predictions(X)), y) for X, y in _splits(data)
        ]
        layer_leaves = np.array([leaf_count(layer) for layer in cascade.layers])
        leaves, dims = np.cumsum(layer_leaves), np.cumsum(dim_from_leaves(layer_leaves))
        for k, name in names.items():
            accuracies = tuple(float(np.mean(labels[k - 1] == y)) for labels, y in predictions)
            rows[name].append(
                _sim_row(cfg, subject, name, depth, int(leaves[k - 1]), int(dims[k - 1]), accuracies)
            )
    return rows


def run_simulation(cfg: ExperimentConfig) -> list:
    """Sweep (model kind, max depth) cells over the synthetic parity data.

    Each n makes one pass. The single greedy tree (T) and the widest forest
    are grown once at the deepest budget. Truncating a grown tree to depth
    d gives exactly the tree a fresh run with that max_depth trains, since
    a split depends only on its node's rows; and forest member t depends
    only on (seed, t), so every narrower RF-N is a prefix of the widest
    forest. One walk of each grown tree per split scores every depth
    (depth_labels), running vote counts read off every width, and
    depth_leaf_counts gives the leaf counts. The label cascades of the
    largest DT depth, one per depth, are trained together
    (train_label_cascades); layer d of each depends only on (seed, d) and
    the layers below, so every shallower DT-k is its first k layers,
    scored in one layered pass.

    Rows follow sim_models, then depth. wall_time: the deepest cell of T,
    of the widest RF and of the deepest DT carries its kind's training and
    scoring (every RF width, every DT depth); every other cell carries 0.
    """
    depths = sorted(cfg.sim_depths)
    deepest = max(depths)
    names: dict = {"T": {}, "RF": {}, "DT": {}}  # kind -> {size: name}
    for name, (kind, size) in zip(cfg.sim_models, cfg.sim_specs):
        names[kind][size] = name
    rows = []
    for n in cfg.sim_ns:
        spec = SimulationSpec(n=n, a=cfg.sim_a, sample_count=cfg.sample_count, seed=cfg.seed)
        data = generate_simulation(spec)
        subject = f"n={n}"
        tree_cfg = TrainConfig(
            max_depth=deepest, seed=cfg.seed, bootstrap=False, feature_subsample="all"
        )
        start = time.perf_counter()
        tree_grown = train_tree_grown(data.train_X, data.train_y, tree_cfg)
        by_model: dict = {}
        if names["T"]:
            by_model.update(_vote_rows(cfg, subject, names["T"], (tree_grown,), data, depths))
            _stamp(by_model[names["T"][1]][-1], start)
        if names["RF"]:
            forest_cfg = TrainConfig(
                max_depth=deepest, seed=cfg.seed, n_trees=max(names["RF"]),
                bootstrap=True, feature_subsample="sqrt",
            )
            start = time.perf_counter()
            members = train_forest_grown(data.train_X, data.train_y, forest_cfg)
            by_model.update(_vote_rows(cfg, subject, names["RF"], members, data, depths))
            _stamp(by_model[names["RF"][max(names["RF"])]][-1], start)
        if names["DT"]:
            start = time.perf_counter()
            by_model.update(_cascade_rows(cfg, subject, names["DT"], tree_grown, data, depths))
            _stamp(by_model[names["DT"][max(names["DT"])]][-1], start)
        for name in cfg.sim_models:
            rows += by_model[name]
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
                for child in split_region(region, feature - 1, cut):
                    clo, chi = child[feature - 1]
                    trace(child, layer + 1, feature if chi > clo else None)

            trace(full_region(space), 1, None)
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
        left, right = split_region(region, j, cut)
        left_budget = int(rng.integers(0, budget))
        return Node(j + 1, float(cut), build(left, left_budget), build(right, budget - 1 - left_budget))

    return build(full_region(space), max_extra_splits)


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
                left, right = split_region(region, j, cut)
                return Node(j + 1, float(cut), build(left), build(right))
        return Leaf(parity_label([lo for lo, _ in region]))

    return build(full_region(space))


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
    """Bagged forest trained on the replicated lattice; None when it is not
    strictly-majority correct on every lattice point."""
    points = space.enumerate_points()
    concept = ParityConcept(space)
    forest = train_forest(
        np.tile(points, (32, 1)).astype(np.float64), np.tile(concept.labels(points), 32),
        TrainConfig(seed=seed, n_trees=9, bootstrap=True, feature_subsample="sqrt"),
    )
    try:
        forest_zero_error_leafbound(forest, concept, space)
    except PreconditionViolated:
        return None
    return forest


# ---------------------------------------------------------------------------
# benchmark sweep
# ---------------------------------------------------------------------------


def _uci_row(cfg, subject, model_name, size, width, total_trees, leaves, dim, accuracies) -> dict:
    train_acc, test_acc = accuracies
    return {
        "experiment": "uci",
        "subject": subject,
        "model": model_name,
        "tree_size": size,
        "width": width,
        "total_trees": total_trees,
        "total_leaves": leaves,
        "dim": dim,
        "train_accuracy": train_acc,
        "test_accuracy": test_acc,
        "wall_time": 0.0,
        "seed": cfg.seed,
    }


def run_uci(cfg: ExperimentConfig) -> list:
    """RF rows at every width prefix of one grown forest per tree size (the
    widest row carries growth and scoring, the others 0), and one DF-2 row
    per cascade width, each carrying its training and scoring."""
    rows = []
    widest = max(cfg.uci_rf_widths)
    for name in cfg.uci_datasets:
        data = fetch_dataset(BUILTIN_MANIFESTS[name], cfg.cache_dir, offline=cfg.offline)
        for size in cfg.uci_tree_sizes:
            rf_cfg = TrainConfig(
                max_leaves=size, seed=cfg.seed, n_trees=widest,
                bootstrap=True, feature_subsample="sqrt",
            )
            start = time.perf_counter()
            grown = train_forest_grown(data.train_X, data.train_y, rf_cfg)
            # every width is a prefix of one grown forest, with one budget
            prefixes = _width_prefixes(
                grown, [[leaf_count(g)] for g in grown], _splits(data), cfg.uci_rf_widths,
                (0,), lambda member, X: evaluate_batch(member, X)[None],
            )
            rf_rows = []
            for width in cfg.uci_rf_widths:
                leaves, dims, train_acc, test_acc = prefixes[width]
                rf_rows.append(_uci_row(
                    cfg, name, "RF", size, width, width, int(leaves[0]), int(dims[0]),
                    (train_acc[0], test_acc[0]),
                ))
            _stamp(rf_rows[cfg.uci_rf_widths.index(widest)], start)
            rows += rf_rows
            for width in cfg.uci_df_widths:
                df_cfg = TrainConfig(
                    max_leaves=size, seed=cfg.seed, n_trees=width, bootstrap=True,
                    feature_subsample="sqrt", cascade_depth=2, augment_mode="classvector",
                )
                start = time.perf_counter()
                cascade = train_cascade(data.train_X, data.train_y, df_cfg)
                accuracies = tuple(
                    float(np.mean(cascade.predict_batch(X) == y)) for X, y in _splits(data)
                )
                rows.append(_stamp(_uci_row(
                    cfg, name, "DF-2", size, width, 2 * width, total_leaves(cascade),
                    model_dim(cascade), accuracies,
                ), start))
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

    out = make_dir(cfg.out_dir)
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

"""Command-line interface.

One executable with a subcommand per operation; every table-producing
command emits CSV so runs can be diffed and plotted. See README.md for
the schemas.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments
from .analysis import (
    forest_zero_error_leafbound,
    gini_gain_map,
    label_partition,
    risk_report,
    tree_complexity_oracle,
)
from .construct import build_parity_deeptree, compile_report, compile_to_deeptree
from .data_io import (
    BUILTIN_MANIFESTS,
    SimulationSpec,
    default_cache_dir,
    fetch_dataset,
    format_table,
    generate_simulation,
    make_dir,
    read_csv,
    read_text,
    write_csv,
    write_text,
)
from .ensemble import Forest, model_dim, total_leaves
from .errors import DeepTreesError, PreconditionViolated
from .lattice import (
    ConstantConcept,
    LatticeSpace,
    ParityConcept,
    ProductDistribution,
    UniformDistribution,
)
from .learn import TrainConfig, accuracy, train_cascade, train_forest, train_tree
from .plotting import render_plots, table_rows
from .sexpr import parse_model, print_model
from .tree import Leaf, Node


def _space_args(parser):
    parser.add_argument("--p", type=int, required=True, help="feature cardinality")
    parser.add_argument("--n", type=int, required=True, help="input dimension")


def _dist_args(parser):
    parser.add_argument("--dist", choices=("uniform", "product"), default="uniform")
    parser.add_argument("--a", type=int, default=3, help="product-distribution asymmetry")


def _make_dist(args, space):
    if args.dist == "product":
        return ProductDistribution(space, args.a)
    return UniformDistribution(space)


def _make_concept(args, space):
    if args.concept == "parity":
        return ParityConcept(space)
    return ConstantConcept(space, 1)


def _read_model(path, kinds=object, what="model"):
    """The model in a file; PreconditionViolated unless it is one of kinds."""
    model = parse_model(read_text(path))
    if not isinstance(model, kinds):
        raise PreconditionViolated(f"{path} holds a {type(model).__name__}; expected {what}")
    return model


def _write_model(model, path):
    write_text(path, print_model(model) + "\n")


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_gen_data(args):
    spec = SimulationSpec(
        n=args.n, a=args.a, sample_count=args.count, seed=args.seed,
        distribution=args.dist,
    )
    data = generate_simulation(spec)
    prefix = Path(args.out)
    make_dir(prefix.parent)
    train_path = prefix.with_name(prefix.name + "-train.csv")
    test_path = prefix.with_name(prefix.name + "-test.csv")
    write_csv(data.train_X, data.train_y, train_path)
    write_csv(data.test_X, data.test_y, test_path)
    _emit([f"wrote {train_path}", f"wrote {test_path}"])


def cmd_fetch_uci(args):
    manifest = BUILTIN_MANIFESTS[args.name]
    cache = Path(args.cache) if args.cache else default_cache_dir()
    data = fetch_dataset(manifest, cache, offline=args.offline)
    _emit(
        [
            f"dataset,{data.name}",
            f"rows,{len(data.y)}",
            f"features,{data.X.shape[1]}",
            f"classes,{len(np.unique(data.y))}",
            f"train_rows,{len(data.train_idx)}",
            f"test_rows,{len(data.test_idx)}",
        ]
    )


def cmd_build_parity(args):
    model = build_parity_deeptree(args.p, args.n)
    _write_model(model, args.out)
    _emit([f"wrote {args.out}", f"dim,{model_dim(model)}", f"bound,{10 * args.p * args.n}"])


def cmd_compile_tree(args):
    space = LatticeSpace(args.n, args.p)
    source = _read_model(getattr(args, "in"), (Leaf, Node), "a tree")
    compiled = compile_to_deeptree(source, space)
    _write_model(compiled, args.out)
    lines = [f"wrote {args.out}"]
    if args.report:
        report = compile_report(source, space)
        lines.extend(f"{key},{value}" for key, value in report.items())
    _emit(lines)


def cmd_train(args):
    X, y, _ = read_csv(args.data)
    cfg = TrainConfig(
        max_depth=args.max_depth,
        max_leaves=args.max_leaves,
        seed=args.seed,
        n_trees=args.n_trees,
        bootstrap=not args.no_bootstrap,
        feature_subsample=args.feature_subsample,
        cascade_depth=args.cascade_depth,
    )
    if args.model == "tree":
        model = train_tree(X, y, cfg)
    elif args.model == "forest":
        model = train_forest(X, y, cfg)
    elif args.model == "cascade-tree":
        model = train_cascade(X, y, cfg)
    else:  # cascade-forest
        model = train_cascade(X, y, replace(cfg, augment_mode="classvector"))
    _write_model(model, args.out)
    _emit(
        [
            f"wrote {args.out}",
            f"train_accuracy,{accuracy(model, X, y)!r}",
            f"total_leaves,{total_leaves(model)}",
            f"dim,{model_dim(model)}",
        ]
    )


def cmd_eval(args):
    model = _read_model(args.model)
    X, y, _ = read_csv(args.data)
    sys.stdout.write(format_table(
        ("accuracy", "total_leaves", "dim"),
        [(accuracy(model, X, y), total_leaves(model), model_dim(model))],
    ))


def cmd_partition(args):
    space = LatticeSpace(args.n, args.p)
    part = label_partition(space, _make_concept(args, space), r=args.r)
    sys.stdout.write(format_table(
        ("class", "label", "size"),
        [(ci, label, len(members)) for ci, (members, label) in enumerate(zip(part.classes, part.labels))],
    ))


def cmd_risk(args):
    space = LatticeSpace(args.n, args.p)
    model = _read_model(args.model)
    report = risk_report(model, _make_concept(args, space), _make_dist(args, space), space)
    sys.stdout.write(format_table(
        ("error_set_size", "proper_set_size", "exact_risk", "leaf_count"),
        [(report.error_set_size, report.proper_set_size, report.exact_risk, report.leaf_count)],
    ))


def cmd_complexity(args):
    space = LatticeSpace(args.n, args.p)
    result = tree_complexity_oracle(
        space,
        _make_concept(args, space),
        _make_dist(args, space),
        args.epsilon,
        args.max_leaves,
    )
    rows = [(
        result.family, result.epsilon, result.minimal_leaves, result.minimal_dim,
        result.achieved_risk, result.search_exhaustive, result.states_explored,
    )]
    if result.witness is not None:
        rows.append(("witness", print_model(result.witness)))
    sys.stdout.write(format_table(
        ("family", "epsilon", "minimal_leaves", "minimal_dim", "achieved_risk",
         "search_exhaustive", "states"),
        rows,
    ))


def cmd_leafbound(args):
    space = LatticeSpace(args.n, args.p)
    model = _read_model(args.model, (Leaf, Node, Forest), "a tree or a forest")
    if not isinstance(model, Forest):
        model = Forest((model,))
    report = forest_zero_error_leafbound(model, ParityConcept(space), space)
    sys.stdout.write(format_table(
        ("total_leaf_count", "space_size", "holds"),
        [(report.total_leaf_count, report.space_size, report.holds)],
    ))


def cmd_gini_map(args):
    space = LatticeSpace(args.n, args.p)
    gm = gini_gain_map(space, _make_dist(args, space), _make_concept(args, space))
    table = [(feature, cut, float(gain), gain) for (feature, cut), gain in sorted(gm.gains.items())]
    chart = [
        {"subject": f"p={args.p},n={args.n},{args.dist}", "layer": 1, "feature": f, "cut": c, "gain": g}
        for f, c, g, _ in table
    ]
    if gm.best is not None:
        table.append(("best", *gm.best, None))
    if args.svg and chart:  # a lattice with one value per axis has no cut to chart
        table.extend(("wrote", path) for path in render_plots(chart, "gini", Path(args.svg)))
    sys.stdout.write(format_table(("feature", "cut", "gain", "exact_gain"), table))


def cmd_experiment(args):
    overrides = {"experiment": args.id, "out_dir": Path(args.out), "offline": args.offline}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.config:
        cfg = experiments.load_config(args.config, overrides)
    else:
        cfg = experiments.ExperimentConfig(**overrides)
    written = experiments.run_experiment(cfg)
    lines = []
    for key, value in written.items():
        if isinstance(value, list):
            lines.extend(f"{key},{v}" for v in value)
        else:
            lines.append(f"{key},{value}")
    _emit(lines)


def cmd_plot(args):
    rows = table_rows(read_text(args.table), args.kind)
    written = render_plots(rows, args.kind, args.out)
    _emit([f"wrote {p}" for p in written])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deeptrees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a noisy-parity dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--dist", choices=("product", "uniform"), default="product")
    p.add_argument("--out", required=True, help="path prefix for -train.csv/-test.csv")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fetch-uci", help="fetch and cache a benchmark dataset")
    p.add_argument("--name", choices=sorted(BUILTIN_MANIFESTS), required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--offline", action="store_true")
    p.set_defaults(func=cmd_fetch_uci)

    p = sub.add_parser("build-parity", help="emit the constructive parity cascade")
    _space_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_parity)

    p = sub.add_parser("compile-tree", help="compile a tree into an equivalent cascade")
    p.add_argument("--in", dest="in", required=True)
    _space_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=cmd_compile_tree)

    p = sub.add_parser("train", help="train a model on CSV data")
    p.add_argument("--model", choices=("tree", "forest", "cascade-tree", "cascade-forest"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-leaves", type=int, default=None)
    p.add_argument("--n-trees", type=int, default=9)
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--feature-subsample", choices=("all", "sqrt"), default="sqrt")
    p.add_argument("--cascade-depth", type=int, default=2)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on CSV data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("partition", help="label-connected classes of a concept")
    _space_args(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--concept", choices=("parity", "constant"), default="parity")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("risk", help="exact risk of a model against a concept")
    p.add_argument("--model", required=True)
    _space_args(p)
    _dist_args(p)
    p.add_argument("--concept", choices=("parity", "constant"), default="parity")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("complexity", help="exhaustive minimal-size tree search")
    _space_args(p)
    _dist_args(p)
    p.add_argument("--concept", choices=("parity", "constant"), default="parity")
    p.add_argument("--epsilon", default="0")
    p.add_argument("--max-leaves", type=int, default=8)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("leafbound", help="total-leaf lower bound for a zero-error forest")
    p.add_argument("--model", required=True)
    _space_args(p)
    p.set_defaults(func=cmd_leafbound)

    p = sub.add_parser("gini-map", help="exact impurity gains of every root split")
    _space_args(p)
    _dist_args(p)
    p.add_argument("--concept", choices=("parity", "constant"), default="parity")
    p.add_argument("--svg", default=None, help="also render a gain bar chart into this directory")
    p.set_defaults(func=cmd_gini_map)

    p = sub.add_parser("experiment", help="run a full experiment")
    p.add_argument("id", choices=("sim", "gini", "bounds", "uci"))
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="results")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale", choices=("desk", "paper"), default=None)
    p.add_argument("--offline", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="render charts from a result CSV")
    p.add_argument("--kind", choices=("sim", "gini", "uci"), required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DeepTreesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

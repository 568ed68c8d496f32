import hashlib
from pathlib import Path

import numpy as np
import pytest

from deeptrees.data_io import DatasetManifest, SimulationSpec, SourceFile, generate_simulation
from deeptrees.ensemble import model_dim, total_leaves
from deeptrees.errors import ConfigError, EmptyTable
from deeptrees.experiments import (
    BOUNDS_COLUMNS,
    GINI_COLUMNS,
    GINI_REPORT_COLUMNS,
    ExperimentConfig,
    SIM_COLUMNS,
    UCI_COLUMNS,
    leaves_to_target,
    load_config,
    run_bounds_suite,
    run_experiment,
    run_gini_verification,
    run_simulation,
    run_uci,
    strip_wall_time,
    summarize_uci,
    summary_rows,
    uniform_zero_gain_check,
    write_table,
)
from deeptrees.learn import TrainConfig, accuracy, train_cascade, train_forest, train_tree
from deeptrees.plotting import render_plots


def _row(subject, model, leaves, acc):
    return {
        "experiment": "sim",
        "subject": subject,
        "model": model,
        "setting": "depth=1",
        "total_leaves": leaves,
        "dim": 3 * (leaves - 1) + 1,
        "train_accuracy": acc,
        "test_accuracy": acc,
        "wall_time": 0.0,
        "seed": 0,
    }


def test_leaves_to_target_picks_minimum():
    rows = [
        _row("n=2", "T", 40, 0.995),
        _row("n=2", "T", 16, 0.992),
        _row("n=2", "T", 8, 0.95),
        _row("n=2", "RF-9", 300, 0.97),
    ]
    summary = leaves_to_target(rows, 0.99)
    assert summary[("n=2", "T")] == 16
    assert summary[("n=2", "RF-9")] is None
    table = summary_rows(rows, 0.99)
    assert {r["model"]: r["leaves_to_99"] for r in table} == {"T": 16, "RF-9": "fail"}


def test_strip_wall_time():
    text = "a,wall_time,b\n1,9.9,2\n"
    assert strip_wall_time(text) == "a,b\n1,2"
    assert strip_wall_time("a,b\n1,2\n") == "a,b\n1,2\n"


TINY_SIM = dict(
    experiment="sim",
    sim_ns=(2,),
    sim_models=("T", "DT-2", "RF-3"),
    sim_depths=(1, 2, 3, 4),
    sim_sample_count=3000,
)
# SHA-256 of strip_wall_time(sim.csv) and of sim_summary.csv for TINY_SIM,
# recorded when every cell was scored by truncating and evaluating it alone
TINY_SIM_DIGESTS = {
    "sim.csv": "06f193e89b559489f619335eba2b1e4c1a018d5983bba8c05406a00f33da5c6d",
    "sim_summary.csv": "5b2235d45712eb37a6ab4f17b53b3e46d5ba2d189fa74fb96edcb3446012afa5",
}
# widths and cascade depths out of order, so that the narrower and shallower
# models come after the ones whose prefixes they are
PREFIX_SIM = dict(
    experiment="sim",
    sim_ns=(2,),
    sim_models=("T", "RF-5", "RF-2", "DT-3", "DT-2"),
    sim_depths=(3, 1, 2),
    sim_sample_count=3000,
)
# recorded when every RF width was grown and every DT depth trained on its own
PREFIX_SIM_DIGESTS = {
    "sim.csv": "f123ca8a16cbae5e77f8c12655f3a89c92907d15bab9d47177c6b3874d411398",
    "sim_summary.csv": "9be64591b20ef5f2a7b64fc9ff3ca7ad5b76de42468d564b5526904ab728d09a",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_run_simulation_rows_and_determinism(tmp_path):
    cfg = ExperimentConfig(**TINY_SIM, out_dir=tmp_path / "a")
    rows = run_simulation(cfg)
    assert len(rows) == 3 * 4
    assert {r["model"] for r in rows} == {"T", "DT-2", "RF-3"}
    for row in rows:
        # the deepest cell of T, of the widest RF and of the deepest DT
        # carries its block's training and scoring
        assert (row["wall_time"] > 0.0) == (row["setting"] == "depth=4")
    table_a = write_table(rows, SIM_COLUMNS, tmp_path / "a" / "sim.csv")
    rows_b = run_simulation(ExperimentConfig(**TINY_SIM, out_dir=tmp_path / "b"))
    table_b = write_table(rows_b, SIM_COLUMNS, tmp_path / "b" / "sim.csv")
    a = strip_wall_time(table_a.read_text(encoding="utf-8"))
    b = strip_wall_time(table_b.read_text(encoding="utf-8"))
    assert a == b


def test_run_simulation_models_match_direct_training():
    # every width and cascade-depth prefix must match an honest fresh train
    cfg = ExperimentConfig(**PREFIX_SIM)
    rows = run_simulation(cfg)
    assert [(r["model"], r["setting"]) for r in rows] == [
        (model, f"depth={depth}") for model in PREFIX_SIM["sim_models"] for depth in (1, 2, 3)
    ]
    data = generate_simulation(SimulationSpec(n=2, sample_count=3000, seed=cfg.seed))
    for depth in (1, 2, 3):
        direct = {
            "T": train_tree(
                data.train_X, data.train_y,
                TrainConfig(max_depth=depth, bootstrap=False, feature_subsample="all"),
            )
        }
        for width in (5, 2):
            direct[f"RF-{width}"] = train_forest(
                data.train_X, data.train_y,
                TrainConfig(
                    max_depth=depth, n_trees=width, seed=cfg.seed,
                    bootstrap=True, feature_subsample="sqrt",
                ),
            )
        for k in (3, 2):
            direct[f"DT-{k}"] = train_cascade(
                data.train_X, data.train_y,
                TrainConfig(max_depth=depth, cascade_depth=k, seed=cfg.seed),
            )
        for name, model in direct.items():
            row = next(r for r in rows if r["model"] == name and r["setting"] == f"depth={depth}")
            assert (row["total_leaves"], row["dim"]) == (total_leaves(model), model_dim(model))
            assert row["train_accuracy"] == accuracy(model, data.train_X, data.train_y)
            assert row["test_accuracy"] == accuracy(model, data.test_X, data.test_y)


def test_run_simulation_prefix_digests_and_wall_time(tmp_path):
    written = run_experiment(ExperimentConfig(**PREFIX_SIM, out_dir=tmp_path))
    table = written["table"].read_text(encoding="utf-8")
    assert _sha256(strip_wall_time(table)) == PREFIX_SIM_DIGESTS["sim.csv"]
    summary = written["summary"].read_text(encoding="utf-8")
    assert _sha256(summary) == PREFIX_SIM_DIGESTS["sim_summary.csv"]
    header = table.splitlines()[0].split(",")
    cells = [dict(zip(header, line.split(","))) for line in table.splitlines()[1:]]
    for cell in cells:
        carries = float(cell["wall_time"]) > 0.0
        # one cell per block carries its training and scoring: the deepest
        # cell of T, of the widest RF and of the deepest DT
        if cell["model"] in ("T", "RF-5", "DT-3"):
            assert carries == (cell["setting"] == "depth=3")
        else:
            assert not carries


def test_run_experiment_sim_writes_tables_then_plots(tmp_path):
    cfg = ExperimentConfig(**TINY_SIM, out_dir=tmp_path / "run")
    written = run_experiment(cfg)
    assert written["table"].exists()
    assert written["summary"].exists()
    assert all(p.exists() for p in written["plots"])
    table = written["table"].read_text(encoding="utf-8")
    assert table.splitlines()[0] == ",".join(SIM_COLUMNS)
    assert _sha256(strip_wall_time(table)) == TINY_SIM_DIGESTS["sim.csv"]
    summary = written["summary"].read_text(encoding="utf-8")
    assert _sha256(summary) == TINY_SIM_DIGESTS["sim_summary.csv"]


def test_gini_verification_pass_and_fail():
    cfg = ExperimentConfig(experiment="gini", gini_ns=(2,), gini_a_values=(3, 2))
    rows, reports = run_gini_verification(cfg)
    verdict = {r["subject"]: r["passed"] for r in reports}
    assert verdict["n=2,a=3"] is True
    assert verdict["n=2,a=2"] is False
    root = next(r for r in rows if r["subject"] == "n=2,a=3" and r["layer"] == 1)
    assert (root["feature"], root["cut"]) == (1, 2)
    assert uniform_zero_gain_check(2)


# SHA-256 of gini.csv and gini_summary.csv over the full grid, recorded when
# every region was enumerated point by point
GINI_GRID_DIGESTS = {
    "gini.csv": "ad1cf990a53893070e3fbe56930c76597cef22921d39cc32d9a7dd1e0ddb6e2e",
    "gini_summary.csv": "30ff8a1c6bcdc871e897035d84fb05ce12d77bfae211c4a7dfdc50cf330c7353",
}


def test_gini_verification_full_grid_digests(tmp_path):
    cfg = ExperimentConfig(experiment="gini", gini_ns=(2, 4, 6, 8), gini_a_values=(3, 2))
    rows, reports = run_gini_verification(cfg)
    table = write_table(rows, GINI_COLUMNS, tmp_path / "gini.csv")
    summary = write_table(reports, GINI_REPORT_COLUMNS, tmp_path / "gini_summary.csv")
    assert _sha256(table.read_text(encoding="utf-8")) == GINI_GRID_DIGESTS["gini.csv"]
    assert _sha256(summary.read_text(encoding="utf-8")) == GINI_GRID_DIGESTS["gini_summary.csv"]


def test_bounds_suite_reduced_grid():
    cfg = ExperimentConfig(experiment="bounds", bounds_compile_corpus=10, bounds_error_corpus=50)
    rows = run_bounds_suite(cfg)
    assert rows, "bounds suite must produce rows"
    failing = [r for r in rows if not r["passed"]]
    assert failing == []
    checks = {r["check"] for r in rows}
    assert {
        "parity-cascade-exact",
        "parity-cascade-dim",
        "compile-agreement",
        "compile-exact-dim",
        "compile-worst-case",
        "forest-leafbound",
        "parity-partition-count",
        "parity-partition-gap",
        "error-set-lower-bound",
    } <= checks


# SHA-256 of bounds.csv for a reduced corpus, recorded when every lattice box
# and integer-cut split was spelled out per call site
BOUNDS_DIGEST = "462a9cb9c26945326fa5f43b85c7171a10af31c5d54173bed56f62e5781765d1"


def test_bounds_table_digest(tmp_path):
    written = run_experiment(ExperimentConfig(
        "bounds", seed=0, out_dir=tmp_path, bounds_compile_corpus=20, bounds_error_corpus=100,
    ))
    assert _sha256(written["table"].read_text(encoding="utf-8")) == BOUNDS_DIGEST


def _toy_uci_manifest(tmp_path):
    rng = np.random.default_rng(7)
    source = tmp_path / "uci-src"
    source.mkdir()
    lines_train = []
    lines_test = []
    for bucket, count in ((lines_train, 120), (lines_test, 60)):
        for _ in range(count):
            x = rng.random(3) * 2
            label = int(x[0] + x[1] > 2)
            bucket.append(f"{x[0]:.6f},{x[1]:.6f},{x[2]:.6f},{label}")
    (source / "toy.trn").write_text("\n".join(lines_train) + "\n", encoding="utf-8")
    (source / "toy.tst").write_text("\n".join(lines_test) + "\n", encoding="utf-8")
    return DatasetManifest(
        name="toy",
        files=(
            SourceFile((source / "toy.trn").as_uri(), "toy.trn", "train"),
            SourceFile((source / "toy.tst").as_uri(), "toy.tst", "test"),
        ),
        n_features=3,
        n_classes=2,
    )


def test_run_uci_with_local_manifest(tmp_path, monkeypatch):
    manifest = _toy_uci_manifest(tmp_path)
    monkeypatch.setitem(
        __import__("deeptrees.experiments", fromlist=["BUILTIN_MANIFESTS"]).BUILTIN_MANIFESTS,
        "toy",
        manifest,
    )
    cfg = ExperimentConfig(
        experiment="uci",
        uci_datasets=("toy",),
        uci_rf_widths=(4, 8),
        uci_df_widths=(2, 4),
        uci_tree_sizes=(4, 8),
        cache_dir=tmp_path / "cache",
    )
    rows = run_uci(cfg)
    assert len(rows) == 2 * (2 + 2)  # sizes x (rf widths + df widths)
    assert {r["model"] for r in rows} == {"RF", "DF-2"}
    for row in rows:
        if row["model"] == "DF-2":
            assert row["total_trees"] == 2 * row["width"]
    summary = summarize_uci(rows)
    assert summary["toy"]["df_cells"] == 4  # matched budgets: (4,8) trees x 2 sizes
    # recorded when every RF width was scored as a forest of its own
    table = write_table(rows, UCI_COLUMNS, tmp_path / "uci.csv").read_text(encoding="utf-8")
    assert _sha256(strip_wall_time(table)) == (
        "c13e394cf5d113ce71ff436be58a53c54b04a4fecf1070b57663e1408c0a6bfa"
    )
    for row in rows:
        if row["model"] == "RF":  # the widest cell carries the block's growth and scoring
            assert (row["wall_time"] > 0.0) == (row["width"] == 8)


def test_write_table_formats(tmp_path):
    rows = [{"experiment": "bounds", "check": "x", "params": "p=1", "measured": 3,
             "bound": 4, "passed": True}]
    path = write_table(rows, BOUNDS_COLUMNS, tmp_path / "t.csv")
    assert path.read_text(encoding="utf-8") == (
        "experiment,check,params,measured,bound,passed\nbounds,x,p=1,3,4,true\n"
    )


def test_load_config_roundtrip(tmp_path):
    text = """
[experiment]
id = sim
seed = 11
scale = paper

[sim]
ns = 2,4
models = T, DT-2
depths = 1-4
a = 3

[gini]
ns = 2
a_values = 3,2

[uci]
datasets = pendigits
rf_widths = 50,100
df_widths = 25,50
tree_sizes = 8,16
"""
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.experiment == "sim"
    assert cfg.seed == 11
    assert cfg.sim_ns == (2, 4)
    assert cfg.sim_models == ("T", "DT-2")
    assert cfg.sim_depths == (1, 2, 3, 4)
    assert cfg.sample_count == 1_000_000  # paper scale default
    assert cfg.gini_a_values == (3, 2)
    assert cfg.uci_rf_widths == (50, 100)
    cfg2 = load_config(path, {"scale": "desk"})
    assert cfg2.sample_count == 100_000


@pytest.mark.parametrize("name", ["sim", "gini", "bounds", "uci"])
def test_shipped_configs_spell_out_the_defaults(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini"
    assert load_config(path) == ExperimentConfig(name)


@pytest.mark.parametrize(
    "text, words",
    [
        ("[experiment]\nid = sim\n\n[sim]\nsample_count = abc\n", ("[sim] sample_count", "'abc'")),
        ("[experiment]\nseed = 1.5\n", ("[experiment] seed", "'1.5'")),
        ("[sim]\nns = 2\n", ("missing [experiment] section",)),
        ("[experiment]\nid = sim\nseed\n", ("cfg.ini", "'seed")),
        ("id = sim\n", ("cfg.ini", "no section headers")),
        ("[experiment]\nid = sim\n[experiment]\nseed = 1\n", ("'experiment' already exists",)),
        ("[experiment]\nid = sim\n\n[sim]\nnss = 2\n", ("unknown key 'nss' in [sim]",)),
        ("[experiment]\nid = sim\n\n[simulation]\nns = 2\n", ("unknown key 'ns' in [simulation]",)),
    ],
    ids=["non-integer", "float-seed", "no-experiment-section", "no-value", "no-header",
         "repeated-section", "unknown-key", "unknown-section"],
)
def test_malformed_config_file_raises_config_error(tmp_path, text, words):
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_config(path)
    for word in words:
        assert word in str(caught.value)


def test_explicit_sample_count_overrides_scale(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nid = sim\nscale = paper\n\n[sim]\nsample_count = 1234\n", encoding="utf-8")
    assert load_config(path).sample_count == 1234


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="sim", scale="galactic")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="sim", sim_depths=())
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="sim", sim_depths=(-1, 3))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="uci", uci_rf_widths=(0, 4))


@pytest.mark.parametrize(
    "bad",
    [dict(sim_models=models) for models in (
        ("T", "XX"), ("T", "RF-x"), ("T", "RF-0"), ("T", "DT-0"), ("RF-", "T"), ("rf-3",),
        ("T", "RF-3 "), ("RF-3", "DT-2", "RF-3"), ("RF-3", "RF-03"), ("T", "T"),
    )] + [dict(sim_depths=(-1, 3)), dict(uci_rf_widths=(0, 4)), dict(scale="galactic")]
    + [dict(sim_ns=(0,)), dict(sim_ns=(2, -1)), dict(sim_ns=(2, 4, 2)), dict(sim_depths=(2, 2))]
    + [dict(sim_sample_count=count) for count in (1, 0, -5)]
    + [dict(gini_ns=(2, 0)), dict(gini_a_values=(3, 0)), dict(gini_a_values=(-2,))]
    + [dict(uci_df_widths=(25, 0)), dict(uci_tree_sizes=(8, 0))],
    ids=lambda bad: ",".join(f"{key}={value}" for key, value in bad.items()),
)
def test_bad_config_rejected_with_config_error(bad):
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig(experiment="sim", **bad)
    assert isinstance(caught.value, ValueError)  # callers catching ValueError still do


def test_sim_specs_follow_sim_models():
    cfg = ExperimentConfig(experiment="sim", sim_models=("RF-29", "T", "DT-4", "RF-9"))
    assert cfg.sim_specs == (("RF", 29), ("T", 1), ("DT", 4), ("RF", 9))


def test_plot_carries_one_series_per_model(tmp_path):
    models = ("T", "DT-2", "DT-3", "DT-4", "RF-9", "RF-19", "RF-29")
    rows = []
    for i, model in enumerate(models):
        rows.append(_row("n=2", model, 10 + i, 0.9 + 0.01 * i))
        rows.append(_row("n=2", model, 20 + i, 0.95 + 0.005 * i))
    paths = render_plots(rows, "sim", tmp_path)
    svg = paths[0].read_text(encoding="utf-8")
    assert svg.count("<polyline") == len(models)
    for model in models:
        assert f">{model}</text>" in svg


def test_plots_deterministic_and_empty(tmp_path):
    rows = [
        _row("n=2", "T", 10, 0.9),
        _row("n=2", "T", 20, 0.99),
        _row("n=2", "DT-2", 8, 0.97),
    ]
    first = render_plots(rows, "sim", tmp_path / "p1")
    second = render_plots(rows, "sim", tmp_path / "p2")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    with pytest.raises(EmptyTable):
        render_plots([], "sim", tmp_path / "p3")
    with pytest.raises(ValueError):
        render_plots(rows, "mystery", tmp_path / "p4")


def test_smallest_split_runs_without_empty_sides():
    cfg = ExperimentConfig(
        "sim", sim_ns=(1,), sim_models=("T", "RF-2", "DT-2"), sim_depths=(0, 1),
        sim_sample_count=2,
    )
    rows = run_simulation(cfg)
    assert len(rows) == 6
    assert all(row[key] in (0.0, 1.0) for row in rows for key in ("train_accuracy", "test_accuracy"))

import hashlib

import numpy as np
import pytest

from deeptrees.cli import main
from deeptrees.data_io import write_csv
from deeptrees.sexpr import parse_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_parity_and_risk(tmp_path, capsys):
    model_path = tmp_path / "parity.sexp"
    code, out, _ = run_cli(capsys, "build-parity", "--p", "4", "--n", "2", "--out", str(model_path))
    assert code == 0
    assert "dim,56" in out
    code, out, _ = run_cli(
        capsys, "risk", "--model", str(model_path), "--p", "4", "--n", "2", "--dist", "uniform"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("0,16,0,")


def test_compile_tree_report(tmp_path, capsys):
    source = tmp_path / "tree.sexp"
    source.write_text(
        "(node 1 1 (node 2 1 (leaf +1) (leaf -1)) (node 2 1 (leaf -1) (leaf +1)))\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "cascade.sexp"
    code, out, _ = run_cli(
        capsys, "compile-tree", "--in", str(source), "--p", "2", "--n", "2",
        "--out", str(out_path), "--report",
    )
    assert code == 0
    assert "d_plus,2" in out
    assert "compiled_dim,29" in out
    parse_model(out_path.read_text(encoding="utf-8"))


def test_gen_train_eval_cycle(tmp_path, capsys):
    prefix = tmp_path / "sim"
    code, out, _ = run_cli(
        capsys, "gen-data", "--n", "2", "--count", "4000", "--seed", "3", "--out", str(prefix)
    )
    assert code == 0
    model_path = tmp_path / "model.sexp"
    code, out, _ = run_cli(
        capsys, "train", "--model", "cascade-tree", "--data", f"{prefix}-train.csv",
        "--out", str(model_path), "--max-depth", "5", "--cascade-depth", "2",
    )
    assert code == 0
    assert "total_leaves," in out
    code, out, _ = run_cli(capsys, "eval", "--model", str(model_path), "--data", f"{prefix}-test.csv")
    assert code == 0
    accuracy = float(out.splitlines()[1].split(",")[0])
    assert accuracy > 0.9


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("cascade-tree", "483325e32361d5a38b7e7d6404e416d9603ba774dc663f181f78fedab2ce7540"),
        ("cascade-forest", "4f3d74ea67b39a4331d5e26eff5924882769d522dee04058c875f79ece58da06"),
    ],
)
def test_train_cascade_model_text_is_pinned(tmp_path, capsys, kind, digest):
    prefix = tmp_path / "sim"
    code, _, _ = run_cli(
        capsys, "gen-data", "--n", "2", "--count", "200", "--seed", "5", "--out", str(prefix)
    )
    assert code == 0
    model_path = tmp_path / "model.sexp"
    code, _, _ = run_cli(
        capsys, "train", "--model", kind, "--data", f"{prefix}-train.csv", "--out", str(model_path),
        "--n-trees", "3", "--cascade-depth", "2",
    )
    assert code == 0
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == digest


def test_complexity_command(capsys):
    code, out, _ = run_cli(
        capsys, "complexity", "--p", "2", "--n", "2", "--epsilon", "0.25", "--max-leaves", "6"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("tree,1/4,3,7,1/4,true")


def test_partition_command(capsys):
    code, out, _ = run_cli(capsys, "partition", "--p", "2", "--n", "2")
    assert code == 0
    assert len(out.splitlines()) == 5  # header + 4 singleton classes


def test_leafbound_command(tmp_path, capsys):
    model_path = tmp_path / "tree.sexp"
    model_path.write_text(
        "(node 1 1 (node 2 1 (leaf +1) (leaf -1)) (node 2 1 (leaf -1) (leaf +1)))\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "leafbound", "--model", str(model_path), "--p", "2", "--n", "2")
    assert code == 0
    assert out.splitlines()[1] == "4,4,true"


def test_gini_map_command(capsys):
    code, out, _ = run_cli(
        capsys, "gini-map", "--p", "4", "--n", "2", "--dist", "product", "--a", "3"
    )
    assert code == 0
    assert "best,1,2," in out
    code, out, _ = run_cli(capsys, "gini-map", "--p", "4", "--n", "2", "--dist", "uniform")
    assert code == 0
    gains = {line.split(",")[3] for line in out.splitlines()[1:-1]}
    assert gains == {"0"}


PARITY_TREE = "(node 1 1 (node 2 1 (leaf +1) (leaf -1)) (node 2 1 (leaf -1) (leaf +1)))\n"


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("eval", "--model", "tree.sexp", "--data", "d.csv"),
         "accuracy,total_leaves,dim\n0.6666666666666666,4,10\n"),
        (("partition", "--p", "3", "--n", "2", "--r", "2"),
         "class,label,size\n0,1,5\n1,-1,4\n"),
        (("risk", "--model", "tree.sexp", "--p", "4", "--n", "2", "--dist", "product", "--a", "2"),
         "error_set_size,proper_set_size,exact_risk,leaf_count\n6,10,1/2,4\n"),
        (("complexity", "--p", "2", "--n", "2", "--epsilon", "0.25", "--max-leaves", "6"),
         "family,epsilon,minimal_leaves,minimal_dim,achieved_risk,search_exhaustive,states\n"
         "tree,1/4,3,7,1/4,true,15\n"
         "witness,(node 1 1 (leaf -1) (node 2 1 (leaf -1) (leaf +1)))\n"),
        (("complexity", "--p", "2", "--n", "2", "--epsilon", "0.25", "--max-leaves", "1"),
         "family,epsilon,minimal_leaves,minimal_dim,achieved_risk,search_exhaustive,states\n"
         "tree,1/4,,,,true,1\n"),
        (("leafbound", "--model", "tree.sexp", "--p", "2", "--n", "2"),
         "total_leaf_count,space_size,holds\n4,4,true\n"),
        (("gini-map", "--p", "4", "--n", "2", "--dist", "product", "--a", "3"),
         "feature,cut,gain,exact_gain\n"
         "1,1,0.013119533527696793,9/686\n1,2,0.02295918367346939,9/392\n"
         "1,3,0.013119533527696793,9/686\n2,1,0.0,0\n2,2,0.0,0\n2,3,0.0,0\nbest,1,2,\n"),
        (("gini-map", "--p", "2", "--n", "1", "--svg", "plots"),
         "feature,cut,gain,exact_gain\n1,1,0.5,1/2\nbest,1,1,\n"
         "wrote,plots/gini_p-2-n-1-uniform_layer1.svg\n"),
    ],
    ids=["eval", "partition", "risk", "complexity-witness", "complexity-none",
         "leafbound", "gini-map", "gini-map-svg"],
)
def test_table_command_stdout_bytes(tmp_path, capsys, monkeypatch, argv, stdout):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tree.sexp").write_text(PARITY_TREE, encoding="utf-8")
    (tmp_path / "d.csv").write_text("f1,f2,label\n0.5,0.5,1\n1.5,0.5,-1\n2.5,2.5,-1\n", encoding="utf-8")
    assert run_cli(capsys, *argv) == (0, stdout, "")


def test_experiment_and_plot_commands(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[experiment]\nid = sim\nseed = 0\n\n[sim]\nns = 2\nmodels = T,DT-2\n"
        "depths = 1-3\nsample_count = 2000\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys, "experiment", "sim", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "sim.csv").exists()
    plot_dir = tmp_path / "plots"
    code, out, _ = run_cli(
        capsys, "plot", "--kind", "sim", "--table", str(out_dir / "sim.csv"), "--out", str(plot_dir)
    )
    assert code == 0
    assert list(plot_dir.glob("*.svg"))


@pytest.mark.parametrize(
    "line", ["models = T,XX", "models = T,RF-x", "models = T,RF-0", "models = T,DT-0",
             "models = T,RF-3,RF-3", "depths = 1-x", "ns = 0", "ns = 2,2", "depths = 2,2",
             "sample_count = 1", "a = 0", "a = -2", "sample_count = " + "9" * 309,
             "models = T,RF-" + "9" * 4301, "depths = 1-10000000000"],
)
def test_experiment_rejects_bad_sim_config(tmp_path, capsys, line):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[experiment]\nid = sim\n\n[sim]\n{line}\n", encoding="utf-8")
    out_dir = tmp_path / "results"
    code, out, err = run_cli(
        capsys, "experiment", "sim", "--config", str(cfg), "--out", str(out_dir)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "line", ["ns = 0", "ns = 2,-1", "a_values = 0", "a_values = 3,-2", "a_value = 3", "ns = two"],
)
def test_experiment_rejects_bad_gini_config(tmp_path, capsys, line):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[experiment]\nid = gini\n\n[gini]\n{line}\n", encoding="utf-8")
    out_dir = tmp_path / "results"
    code, out, err = run_cli(
        capsys, "experiment", "gini", "--config", str(cfg), "--out", str(out_dir)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert not out_dir.exists()


def test_train_rejects_non_finite_csv(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("f1,label\n1.0,1\nnan,-1\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "train", "--model", "tree", "--data", str(data), "--out", str(tmp_path / "m.sexp")
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: line 3:")


def test_experiment_bounds_cli(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[experiment]\nid = bounds\n\n[bounds]\ncompile_corpus = 5\nerror_corpus = 20\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "experiment", "bounds", "--config", str(cfg), "--out", str(tmp_path / "b")
    )
    assert code == 0
    table = (tmp_path / "b" / "bounds.csv").read_text(encoding="utf-8")
    assert ",false" not in table


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.sexp"
    bad.write_text("(node 1 1 (leaf -1)", encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--model", str(bad), "--data", str(bad))
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(
        capsys, "fetch-uci", "--name", "pendigits", "--cache", str(tmp_path / "c"), "--offline"
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_model_is_rejected(tmp_path, capsys, threshold):
    model_path = tmp_path / "bad.sexp"
    model_path.write_text(f"(node 1 {threshold} (leaf +1) (leaf -1))\n", encoding="utf-8")
    data_path = tmp_path / "data.csv"
    write_csv(np.array([[1.0], [2.0]]), np.array([1, -1]), data_path)
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path), "--data", str(data_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: 1:9:")
    code, _, err = run_cli(
        capsys, "compile-tree", "--in", str(model_path), "--p", "4", "--n", "1",
        "--out", str(tmp_path / "out.sexp"),
    )
    assert code == 1
    assert err.startswith("error: 1:9:")


def test_gini_map_without_cuts_writes_no_chart(tmp_path, capsys):
    # one value per axis: no cut, so --svg adds nothing to the header-only table
    plots = tmp_path / "plots"
    header_only = (0, "feature,cut,gain,exact_gain\n", "")
    assert run_cli(capsys, "gini-map", "--p", "1", "--n", "2") == header_only
    assert run_cli(capsys, "gini-map", "--p", "1", "--n", "2", "--svg", str(plots)) == header_only
    assert not plots.exists()


@pytest.mark.parametrize("label", ["99999999999999999999999", "9223372036854775808"])
def test_eval_rejects_label_outside_int64(tmp_path, capsys, label):
    model_path = tmp_path / "m.txt"
    model_path.write_text(f"(node 1 1.5 (leaf 1) (leaf {label}))\n", encoding="utf-8")
    data_path = tmp_path / "d.csv"
    write_csv(np.array([[1.0], [2.0]]), np.array([1, -1]), data_path)
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path), "--data", str(data_path))
    assert (code, out) == (1, "")
    assert err == f"error: 1:28: leaf label must fit in int64, got '{label}'\n"


def test_compile_tree_rejects_non_binary_labels(tmp_path, capsys):
    source = tmp_path / "tree.sexp"
    source.write_text("(node 1 2 (leaf 2) (leaf -1))\n", encoding="utf-8")
    out_path = tmp_path / "out.sexp"
    code, _, err = run_cli(
        capsys, "compile-tree", "--in", str(source), "--p", "4", "--n", "1", "--out", str(out_path)
    )
    assert code == 1
    assert err.startswith("error:") and "{-1, +1}" in err
    assert not out_path.exists()



def _unreadable_input_commands(tmp_path):
    """(argv, unreadable path) of each command that reads a named file."""
    data = tmp_path / "x.csv"
    write_csv(np.array([[1.0], [2.0]]), np.array([1, -1]), data)
    out = ("--out", str(tmp_path / "r"))
    return {
        "config": (("experiment", "sim", "--config", str(tmp_path / "missing.ini"), *out),
                   tmp_path / "missing.ini"),
        "config-dir": (("experiment", "sim", "--config", str(tmp_path), *out), tmp_path),
        "model": (("eval", "--model", str(tmp_path / "missing.sexp"), "--data", str(data)),
                  tmp_path / "missing.sexp"),
        "data": (("train", "--model", "tree", "--data", str(tmp_path / "no" / "d.csv"),
                  "--out", str(tmp_path / "r.sexp")), tmp_path / "no" / "d.csv"),
        "table": (("plot", "--kind", "sim", "--table", str(tmp_path / "sim.csv"), *out),
                  tmp_path / "sim.csv"),
    }


@pytest.mark.parametrize("case", ["config", "config-dir", "model", "data", "table"])
def test_unreadable_input_file_exits_with_error_line(tmp_path, capsys, case):
    argv, path = _unreadable_input_commands(tmp_path)[case]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}:") and "Traceback" not in err
    assert not (tmp_path / "r").exists() and not (tmp_path / "r.sexp").exists()


def test_non_utf8_config_exits_with_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(b"[experiment]\nid = sim\n\xff\xfe\n")
    code, out, err = run_cli(
        capsys, "experiment", "sim", "--config", str(cfg), "--out", str(tmp_path / "r")
    )
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {cfg}: not UTF-8 text\n"


def _unwritable_output_commands(tmp_path):
    """argv of each command that writes a model to --out, aimed at a file
    in a missing directory."""
    data = tmp_path / "x.csv"
    write_csv(np.array([[1.0], [2.0]]), np.array([1, -1]), data)
    source = tmp_path / "tree.sexp"
    source.write_text("(node 1 1 (leaf +1) (leaf -1))\n", encoding="utf-8")
    out = ("--out", str(tmp_path / "no" / "m.sexp"))
    return {
        "build-parity": ("build-parity", "--p", "2", "--n", "2", *out),
        "train": ("train", "--model", "tree", "--data", str(data), *out),
        "compile-tree": ("compile-tree", "--in", str(source), "--p", "2", "--n", "2", *out),
    }


@pytest.mark.parametrize("case", ["build-parity", "train", "compile-tree"])
def test_unwritable_output_file_exits_with_error_line(tmp_path, capsys, case):
    code, out, err = run_cli(capsys, *_unwritable_output_commands(tmp_path)[case])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {tmp_path / 'no' / 'm.sexp'}:")
    assert "Traceback" not in err


def test_train_separates_adjacent_doubles(tmp_path, capsys):
    # the midpoint of these two doubles rounds up to the larger one, so a
    # midpoint threshold would send both rows left, forever
    data = tmp_path / "adj.csv"
    data.write_text("f1,label\n1.0000000000000002,0\n1.0000000000000004,1\n", encoding="utf-8")
    model_path = tmp_path / "m.sexp"
    code, out, _ = run_cli(
        capsys, "train", "--model", "tree", "--data", str(data), "--out", str(model_path)
    )
    assert code == 0
    assert "train_accuracy,1.0" in out.splitlines()
    assert "total_leaves,2" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-data", "--n", "2", "--count", "50", "--out", "afile/sim"),
        ("experiment", "bounds", "--out", "afile"),
        ("gini-map", "--p", "2", "--n", "2", "--svg", "afile/plots"),
        ("fetch-uci", "--name", "pendigits", "--cache", "afile", "--offline"),
    ],
    ids=["gen-data", "experiment", "gini-map", "fetch-uci"],
)
def test_output_directory_through_a_file_exits_with_error_line(tmp_path, capsys, argv):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    argv = [str(tmp_path / arg) if arg.startswith("afile") else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot make directory {tmp_path / 'afile'}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "error: empty result table"),
        ("experiment,model,total_leaves,test_accuracy\nsim,T,3,0.5\n",
         "error: line 1: a sim table needs a 'subject' column"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,T,3,0.5\nsim,n=2,T,x,0.5\n",
         "error: line 3: total_leaves 'x' is not a number"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,a=3,T,3,0.5\n",
         "error: line 2: expected 5 fields, got 6"),
        ("\nexperiment,subject,model,total_leaves,test_accuracy\n\nsim,n=2,T,3,0.5\nsim,n=2,T\n",
         "error: line 5: expected 5 fields, got 3"),
        ("\n\nexperiment,model,total_leaves,test_accuracy\n",
         "error: line 3: a sim table needs a 'subject' column"),
        ("\n  \n", "error: empty result table"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,T,0,0.5\nsim,n=2,T,3,0.7\n",
         "error: log axis requires positive x values, got 0"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,T,1,nan\nsim,n=2,T,3,0.7\n",
         "error: plot points must be finite"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,T,3,0.5\nsim,n=2,T,%s,0.7\n"
         % ("7" * 400), "error: plot points must be finite"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,T,3,0.5\nsim,n=2,T,%s,0.7\n"
         % ("2" + "0" * 308), "error: plot points must be finite"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,T,3,1e308\n",
         "error: plot points 1e+308 to 1e+308 are too large to draw"),
        ("experiment,subject,model,total_leaves,test_accuracy\nsim,n=2,T,1,-1e308\nsim,n=2,T,3,1e308\n",
         "error: plot points -1e+308 to 1e+308 are too large to draw"),
    ],
    ids=[
        "empty", "no-subject", "bad-cell", "wide-row", "narrow-row-after-blank-lines",
        "no-subject-after-blank-lines", "blank-lines-only", "zero-leaves", "nan-accuracy",
        "400-digit-leaves", "309-digit-leaves", "one-accuracy-near-float-max",
        "accuracies-spanning-past-float-max",
    ],
)
def test_plot_rejects_malformed_table(tmp_path, capsys, text, message):
    table = tmp_path / "sim.csv"
    table.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "plot", "--kind", "sim", "--table", str(table), "--out", str(tmp_path / "p")
    )
    assert (code, out, err) == (1, "", message + "\n")
    assert not list(tmp_path.glob("p/*.svg"))


@pytest.mark.parametrize(
    "argv",
    [
        ("train", "--model", "forest", "--n-trees", "0"),
        ("train", "--model", "cascade-tree", "--cascade-depth", "0"),
        ("train", "--model", "tree", "--max-depth", "-1"),
        ("train", "--model", "tree", "--max-leaves", "0"),
        ("gen-data", "--n", "0"),
        ("gen-data", "--n", "2", "--count", "0"),
    ],
    ids=["n-trees", "cascade-depth", "max-depth", "max-leaves", "gen-data-n", "gen-data-count"],
)
def test_out_of_range_argument_exits_with_error_line(tmp_path, capsys, argv):
    data = tmp_path / "data.csv"
    data.write_text("f1,label\n1.0,1\n2.0,-1\n", encoding="utf-8")
    if argv[0] == "train":
        argv += ("--data", str(data), "--out", str(tmp_path / "m.sexp"))
    else:
        argv += ("--out", str(tmp_path / "sim"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv"]


def test_plot_skips_blank_lines(tmp_path, capsys):
    table = tmp_path / "sim.csv"
    table.write_text(
        "experiment,subject,model,total_leaves,test_accuracy\n\nsim,n=2,T,1,0.5\nsim,n=2,T,3,0.7\n\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "plot", "--kind", "sim", "--table", str(table), "--out", str(tmp_path / "p")
    )
    assert (code, out, err) == (0, f"wrote {tmp_path / 'p' / 'sim_n-2.svg'}\n", "")


def test_plot_ticks_stop_at_the_largest_float_decade(tmp_path, capsys):
    # 10**308 still has a float value; a decade tick past it would not
    table = tmp_path / "sim.csv"
    table.write_text(
        "experiment,subject,model,total_leaves,test_accuracy\n"
        f"sim,n=2,T,1,0.5\nsim,n=2,T,{10**308},0.7\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "plot", "--kind", "sim", "--table", str(table), "--out", str(tmp_path / "p")
    )
    assert (code, err) == (0, "")
    svg = (tmp_path / "p" / "sim_n-2.svg").read_text(encoding="utf-8")
    assert ">1e+308</text>" in svg and ">1e+300</text>" in svg


@pytest.mark.parametrize(
    "argv",
    [
        ("build-parity", "--p", "0", "--n", "2", "--out", "m.sexp"),
        ("complexity", "--p", "2", "--n", "2", "--max-leaves", "0"),
        ("gen-data", "--n", "2", "--count", "10", "--a", "0", "--out", "sim"),
        ("gini-map", "--p", "4", "--n", "2", "--dist", "product", "--a", "-1"),
        ("complexity", "--p", "2", "--n", "2", "--epsilon", "abc"),
        ("complexity", "--p", "2", "--n", "2", "--epsilon", "1/0"),
        ("compile-tree", "--in", "cascade.sexp", "--p", "2", "--n", "1", "--out", "m.sexp"),
        ("leafbound", "--model", "cascade.sexp", "--p", "2", "--n", "1"),
        ("partition", "--p", "2", "--n", "2", "--concept", "constant", "--r", "0"),
        ("partition", "--p", "2", "--n", "2", "--r", "-1"),
    ],
    ids=[
        "build-parity-p", "complexity-max-leaves", "gen-data-a", "gini-map-a",
        "epsilon-text", "epsilon-zero-denominator", "compile-tree-cascade", "leafbound-cascade",
        "partition-r-zero", "partition-r-negative",
    ],
)
def test_bad_argument_or_model_kind_exits_with_error_line(tmp_path, capsys, argv):
    (tmp_path / "cascade.sexp").write_text(
        "(cascade (leaf -1) (node 1 1 (node 2 0 (leaf -1) (leaf +1)) (leaf +1)))\n", encoding="utf-8"
    )
    argv = [str(tmp_path / arg) if arg.endswith(".sexp") or arg == "sim" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cascade.sexp"]


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-data", "--n", "2", "--count", "10", "--seed", "-1", "--out", "sim"),
        ("train", "--model", "tree", "--seed", "-1", "--data", "data.csv", "--out", "m.sexp"),
        ("experiment", "bounds", "--seed", "-1", "--out", "results"),
    ],
    ids=["gen-data", "train", "experiment"],
)
def test_negative_seed_exits_with_error_line(tmp_path, capsys, argv):
    (tmp_path / "data.csv").write_text("f1,label\n1.0,1\n2.0,-1\n", encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in ("sim", "data.csv", "m.sexp", "results") else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: seed must be >= 0, got -1\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data.csv"]

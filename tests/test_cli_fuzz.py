"""Hypothesis drives cli.main over malformed tables and small, zero and
negative integer arguments; the module skips when hypothesis is not
installed. Whatever the input, a run exits 0, or 1 with an error line, or
2 when argparse rejects the command line: no exception escapes. A config
file with any value under any key loads or raises a DeepTreesError."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deeptrees.cli import main  # noqa: E402
from deeptrees.errors import DeepTreesError  # noqa: E402
from deeptrees.experiments import CONFIG_KEYS, ExperimentConfig, load_config  # noqa: E402

MODELS = (
    "(node 1 1 (node 2 1 (leaf +1) (leaf -1)) (node 2 1 (leaf -1) (leaf +1)))",
    "(leaf -1)",
    "(node 3 0.5 (leaf +1) (leaf -1))",
    "(forest (node 1 1 (leaf +1) (leaf -1)) (leaf +1) (node 2 1.5 (leaf -1) (leaf +1)))",
    "(cascade (leaf -1) (node 1 1 (node 2 0 (leaf -1) (leaf +1)) (leaf +1)))",
)

COLUMNS = {
    "sim": ("experiment", "subject", "model", "total_leaves", "test_accuracy", "wall_time"),
    "gini": ("experiment", "subject", "layer", "feature", "cut", "gain"),
    "uci": ("experiment", "subject", "model", "tree_size", "total_trees", "test_accuracy"),
    "data": ("f1", "f2", "label"),
}

_COUNT = ("1", "2", "3", "16")
_SCORE = ("0.5", "1.0", "0.25")
GOOD = {
    "experiment": ("sim",), "subject": ("n=2", "s"), "model": ("T", "RF-3"),
    "total_leaves": _COUNT, "tree_size": _COUNT, "total_trees": _COUNT, "layer": _COUNT,
    "feature": _COUNT, "cut": _COUNT, "test_accuracy": _SCORE, "gain": _SCORE, "wall_time": _SCORE,
    "f1": ("0.5", "1.5", "-2", "3"), "f2": ("0.5", "1.5", "-2", "3"), "label": ("1", "-1", "-1", "0"),
}
BAD = st.sampled_from(("", "x", "nan", "inf", "-inf", "1e400", "-1e400", "0", "-1", "2.5", "1e308"))
BUDGET = st.integers(-1, 4) | st.integers(1, 4)  # positive three times in four


@st.composite
def tables(draw, columns):
    """Table text with up to two faults: no header line, a header that
    lacks a column, a row a field short or long, or a non-numeric,
    non-finite or out-of-range cell. Blank lines may fall anywhere."""
    faults = draw(st.lists(st.sampled_from(("no-header", "no-column", "width", "cell")), max_size=2))
    header = list(columns)
    if "no-column" in faults:
        del header[draw(st.integers(0, len(header) - 1))]
    row_count = draw(st.sampled_from((2, 3, 1, 0)))
    rows = [[draw(st.sampled_from(GOOD[c])) for c in header] for _ in range(row_count)]
    if rows and "width" in faults:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(BAD))
    if rows and "cell" in faults:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(BAD)
    lines = [",".join(row) for row in rows]
    if "no-header" not in faults:
        lines.insert(0, ",".join(header))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  "))))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))


def run(argv, files):
    """(exit code, stderr) of main(argv) in a fresh directory holding files
    (name -> text); an argument that starts with @ names a path there."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp) / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    return code, err.getvalue()


def assert_exit_contract(argv, files):
    code, err = run(argv, files)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.startswith("error: ") and "\n" not in err[:-1], (argv, err)


@settings(max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(("sim", "gini", "uci")), data=st.data())
def test_plot_on_any_table_keeps_the_exit_contract(kind, data):
    text = data.draw(tables(COLUMNS[kind]), label="table")
    assert_exit_contract(["plot", "--kind", kind, "--table", "@t.csv", "--out", "@p"], {"t.csv": text})


@settings(max_examples=60, deadline=None, database=None)
@given(
    tables(COLUMNS["data"]),
    st.sampled_from(("tree", "forest", "cascade-tree", "cascade-forest")),
    st.sampled_from(MODELS),
    BUDGET,
)
def test_train_and_eval_on_any_data_keep_the_exit_contract(text, model, model_text, budget):
    files = {"d.csv": text, "m.sexp": model_text}
    assert_exit_contract(
        ["train", "--model", model, "--data", "@d.csv", "--out", "@out.sexp", "--n-trees", "2",
         "--max-depth", str(budget)],
        files,
    )
    assert_exit_contract(["eval", "--model", "@m.sexp", "--data", "@d.csv"], files)


# Each command's integer options, with a valid range to draw from, and its
# other options, with the values to draw from.
VALID = {
    "p": st.integers(1, 3), "n": st.integers(1, 3), "r": st.integers(1, 3), "a": st.integers(1, 3),
    "max-leaves": st.integers(1, 4), "count": st.integers(2, 12), "seed": st.integers(0, 3),
}
CHOICES = {
    "dist": ("uniform", "product"), "concept": ("parity", "constant"),
    "epsilon": ("0", "1/4", "-1", "2"), "model": ("@m.sexp",),
}
OPTIONS = {
    "partition": ("p", "n", "r", "concept"),
    "risk": ("p", "n", "a", "dist", "concept", "model"),
    "complexity": ("p", "n", "a", "max-leaves", "dist", "concept", "epsilon"),
    "leafbound": ("p", "n", "model"),
    "gini-map": ("p", "n", "a", "dist", "concept"),
    "build-parity": ("p", "n"),
    "gen-data": ("n", "count", "seed", "a", "dist"),
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data(), model=st.sampled_from(MODELS))
def test_integer_arguments_keep_the_exit_contract(command, data, model):
    """Valid integers but at most one small, zero or negative one, so that
    each command's own checks are reached one at a time."""
    names = [name for name in OPTIONS[command] if name in VALID]
    values = {name: data.draw(VALID[name], label=name) for name in names}
    bad = data.draw(st.sampled_from([None, *names]), label="bad")
    if bad is not None:
        values[bad] = data.draw(st.integers(-2, 0), label=bad)
    for name in OPTIONS[command]:
        if name in CHOICES:
            values[name] = data.draw(st.sampled_from(CHOICES[name]), label=name)
    argv = [command, *(arg for name, value in values.items() for arg in (f"--{name}", str(value)))]
    if command in ("build-parity", "gen-data"):
        argv += ["--out", "@out"]
    assert_exit_contract(argv, {"m.sexp": model})


# Integer text: small values, and digit runs either side of int64's range,
# a float's range and int()'s 4300-digit limit.
NUMBER = st.integers(-3, 40).map(str) | st.sampled_from((18, 19, 308, 309, 4300, 4301)).map(lambda k: "9" * k)
VALUE = st.one_of(
    st.text(max_size=20),
    NUMBER,
    st.tuples(NUMBER, NUMBER).map("-".join),
    st.tuples(st.sampled_from(("RF-", "DT-")), NUMBER).map("".join),
    st.lists(NUMBER | st.sampled_from(("T", "RF-3", "DT-0", "x", "1-3", "")), max_size=4).map(",".join),
)


@settings(max_examples=500, deadline=None, database=None)
@given(key=st.sampled_from(sorted(CONFIG_KEYS)), value=VALUE)
def test_any_config_value_loads_or_raises_a_deeptrees_error(key, value):
    section, name = key
    text = "[experiment]\n" + ("" if section == "experiment" else f"[{section}]\n") + f"{name} = {value}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ini"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(path)
        except DeepTreesError:
            return
    assert isinstance(cfg, ExperimentConfig)

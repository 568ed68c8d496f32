"""The benchmark's own tests, at tiny input sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

deeptrees, workloads = run.import_program()
import spans  # noqa: E402  (needs deeptrees on the path)
from deeptrees import experiments, learn  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def tiny(name, trace, reference=None):
    return run.run_workload(name, 3, 0, trace, scale="tiny", reference=reference or {})


def test_workloads_match_benchmark_json():
    assert NAMES == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        result = tiny(name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["sim-n2", "exact-suite"])
def test_wrong_reference_digest_fails_every_iteration(name):
    honest = tiny(name, 0)
    assert honest["failed"] == 0
    workload = workloads.WORKLOADS[name](workloads.SIZES["tiny"][name], 3)
    out = workload.iterate(run.WORK / f"digest-{name}", 0, lambda: None)
    shutil.rmtree(run.WORK / f"digest-{name}", ignore_errors=True)
    wrong = {file: "0" * 64 for file in workload.digests(out)}
    result = tiny(name, 0, reference={"tiny": {name: {"3": wrong}}})
    assert not result["correct"]
    # every timed iteration fails; the point probe still passes
    assert result["failed"] == result["attempted"] - 1 >= 2


def test_spans_cover_names_imported_by_other_modules():
    result = tiny("sim-n2", 1)["metrics"]
    # experiments calls its own train_forest_grown; ensemble calls its own evaluate_batch
    assert result["learn.trees_grown"]["value"] > 1
    assert result["learn.split_calls"]["value"] > 0
    assert result["ensemble.vote_rows"]["value"] > 0
    assert result["tree.rows_evaluated"]["value"] > result["ensemble.vote_rows"]["value"]
    assert 0.5 < result["trace.coverage"]["value"] <= 1.0


def test_hooks_are_removed_after_tracing():
    originals = (learn.train_forest_grown, experiments.train_forest_grown, learn.evaluate_batch)
    with spans.installed(spans.Tracer(), deeptrees) as absent:
        assert learn.train_forest_grown is not originals[0]
        assert experiments.train_forest_grown is learn.train_forest_grown
        assert absent == set()
    restored = (learn.train_forest_grown, experiments.train_forest_grown, learn.evaluate_batch)
    assert restored == originals


def test_missing_private_hook_reports_absent(monkeypatch):
    monkeypatch.delattr(learn, "_feature_best")
    with spans.installed(spans.Tracer(), deeptrees) as absent:
        assert absent == {"learn.split"}
    measured = run.Run()
    measured.absent = absent
    metrics = run.layer_metrics(measured, spans)
    assert "learn.split_s" not in metrics and "learn.split_calls" not in metrics
    assert "learn.grow_s" in metrics and "learn.trees_grown" in metrics


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "sim-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

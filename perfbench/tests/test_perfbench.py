"""The benchmark's own tests, at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import bench
import tracer as tr
import workloads
from workloads import TINY_SIZES

E2E_UNITS, LAYER_UNITS = bench.metric_units()


def tiny_run(workload, seed=3, trace=False, out_dir=None):
    return bench.run(workload, seed, 0.0, trace, sizes=TINY_SIZES, out_dir=out_dir)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-out")


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_emits_every_end_to_end_metric(workload, out_dir):
    result = tiny_run(workload, out_dir=out_dir)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= 1
    assert {n: m["unit"] for n, m in result.metrics.items()} == E2E_UNITS
    assert all(np.isfinite(m["value"]) and m["value"] > 0
               for m in result.metrics.values())
    assert 0.0 <= result.metrics["macro_f1"]["value"] <= 1.0
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert result.record["windows_per_unit"] > 0
    assert result.record["error_rate"] == 0.0


def _bindings():
    """Every function-valued name in metareplay's modules and classes."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "metareplay" or name.startswith("metareplay."):
            for attr, value in vars(mod).items():
                if callable(value):
                    found[(name, attr)] = value
    for attr, value in vars(sys.modules["metareplay.params"].ParamVector).items():
        found[("ParamVector", attr)] = value
    return found


def test_traced_run_matches_untraced_and_restores_functions(out_dir):
    plain = tiny_run("lodo_sweep", out_dir=out_dir)
    before = _bindings()
    traced = tiny_run("lodo_sweep", trace=True, out_dir=out_dir)
    after = _bindings()
    assert traced.correct, traced.problems
    assert traced.record["digest"] == plain.record["digest"]
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert {n: m["unit"] for n, m in traced.metrics.items()} == LAYER_UNITS
    values = {n: m["value"] for n, m in traced.metrics.items()}
    # the sweep exercises every layer except the meta-free pretext paths
    for name in ("tensor.conv1d.calls", "params.grad_of.calls", "optim.adam_step.calls",
                 "meta.meta_epoch.calls", "adapt.pretext_replay.calls",
                 "metrics.evaluate.calls", "harness.pretrain_for_target.calls",
                 "data.apply_norm.calls", "harness.cells.attempted"):
        assert values[name] > 0, name
    assert values["harness.cells.failed"] == 0
    assert values["tensor.nodes_per_backward"] > 0


def test_traced_window_counts_match_the_fixed_count(out_dir):
    """Windows through eval_ssl, evaluate and the frozen-feature fine-tune
    pass add up to the count derived from the plan alone."""
    result = tiny_run("lodo_sweep", trace=True, out_dir=out_dir)
    spans = np.load(out_dir / "lodo_sweep-seed3-spans.npz")
    names = list(spans["names"])
    name = spans["name"]
    parent_name = np.where(spans["parent"] >= 0, name[spans["parent"]], -1)
    frozen = (name == names.index("models.encode")) & \
        (parent_name == names.index("adapt.finetune"))
    counted = sum(int(spans["windows"][name == names.index(n)].sum())
                  for n in ("pretext.eval_ssl", "metrics.evaluate"))
    counted += int(spans["windows"][frozen].sum())
    assert counted == result.record["windows_per_unit"] * result.record["traced_units"]


@pytest.mark.parametrize("workload", ["meta_pretrain", "plain_pretrain"])
def test_pretraining_window_count_is_eval_ssl_windows(workload, out_dir):
    result = tiny_run(workload, trace=True, out_dir=out_dir)
    assert result.metrics["pretext.eval_ssl.windows"]["value"] == \
        result.record["windows_per_unit"]
    assert result.metrics["adapt.finetune.calls"]["value"] == 0
    meta_calls = result.metrics["meta.meta_epoch.calls"]["value"]
    assert (meta_calls > 0) == (workload == "meta_pretrain")


def test_second_seed_runs_clean(out_dir):
    result = tiny_run("meta_pretrain", seed=11, out_dir=out_dir)
    assert result.correct, result.problems
    assert result.record["error_rate"] == 0.0
    assert result.record["digest"] != tiny_run("meta_pretrain", out_dir=out_dir).record["digest"]


def test_failed_pretraining_counts_as_error(monkeypatch, out_dir):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(workloads.harness, "pretrain_for_target", broken)
    result = tiny_run("meta_pretrain", out_dir=out_dir)
    assert result.failed == result.attempted >= 1
    assert not result.correct


def test_tail_is_the_percentile_with_ten_samples_beyond():
    d = np.arange(1, 101, dtype=float)
    assert tr.tail(d) == (90.0, 90.0)
    assert tr.tail(np.arange(10.0)) == (0.0, 0.0)


def test_self_time_excludes_children():
    t = tr.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    wrapped_child = t.wrap(child, "child")
    t.wrap(parent, "parent")()
    stats = t.layer_stats()
    assert stats["parent"]["busy_s"] >= stats["child"]["busy_s"] >= 0.02
    assert stats["parent"]["self_s"] == pytest.approx(
        stats["parent"]["busy_s"] - stats["child"]["busy_s"])
    assert t.span_arrays()["parent"].tolist() == [-1, 0]


def test_install_wraps_names_imported_by_other_modules():
    import metareplay.meta as meta
    import metareplay.pretext as pretext
    original = pretext.eval_ssl
    t = tr.Tracer()
    t.install()
    try:
        assert meta.eval_ssl is pretext.eval_ssl is not original
        assert any(s.owner is meta and s.attr == "eval_ssl" for s in t.sites)
    finally:
        t.restore()
    assert meta.eval_ssl is pretext.eval_ssl is original


def test_runner_fails_without_the_program(tmp_path):
    root = bench.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "meta_pretrain", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""End-to-end runs of every CLI subcommand on a micro synthetic setup."""

import json

import numpy as np
import pytest

from metareplay.cli import main
from metareplay.data import SplitPlan, read_dataset
from metareplay.adapt import load_pretrained


MICRO_PLAN = {
    "data": {"synth": {"n_domains": 2, "n_classes": 2,
                       "samples_per_class": 12, "timesteps": 64, "seed": 5},
             "min_count": 10},
    "pretext": {"kind": "simclr"},
    "meta": {"M": 2, "M_dom": 1, "K": 4, "epochs": 2},
    "replay": {"steps": 2},
    "sweep": {"modes": ["baseline", "full"], "shots": [2], "seeds": 1,
              "seed": 9, "plain_epochs": 2, "plain_batch": 16,
              "study_kinds": ["simclr"], "study_shots": 1},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Plan file, synthetic dataset, both pretrained models, and a split,
    produced through the CLI itself."""
    d = tmp_path_factory.mktemp("cli")
    plan = d / "plan.json"
    plan.write_text(json.dumps(MICRO_PLAN))
    assert main(["synth", "--plan", str(plan), "--out", str(d / "data.ads")]) == 0
    assert main(["pretrain", "--plan", str(plan), "--target-domain", "0",
                 "--out", str(d / "plain.adp2")]) == 0
    assert main(["meta-pretrain", "--plan", str(plan), "--target-domain", "0",
                 "--out", str(d / "meta.adp2")]) == 0
    assert main(["make-split", "--data", str(d / "data.ads"),
                 "--target-domain", "0", "--shots", "2", "--seed", "3",
                 "--out", str(d / "split.json")]) == 0
    return d


def test_synth_writes_readable_dataset(workdir, capsys):
    ds = read_dataset(workdir / "data.ads")
    assert ds.n_windows == 2 * 2 * 12
    assert ds.n_domains == 2
    rc = main(["synth", "--out", str(workdir / "tiny.ads"),
               "--domains", "2", "--classes", "3", "--samples", "4"])
    assert rc == 0
    assert "24 windows" in capsys.readouterr().out
    assert read_dataset(workdir / "tiny.ads").n_classes == 3


def test_synth_keeps_domain_tags(workdir, tmp_path):
    assert read_dataset(workdir / "data.ads").domain_tags == ("synth0", "synth1")
    # a sweep over the written file reports the generator's tags
    plan = dict(MICRO_PLAN, data={"path": str(workdir / "data.ads"), "min_count": 10})
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert main(["sweep", "--plan", str(tmp_path / "plan.json"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert {c["domain_tag"] for c in results["cells"]} == {"synth0", "synth1"}


def test_pretrain_artifacts(workdir):
    model = load_pretrained(workdir / "plain.adp2")
    assert model.method == "plain"
    meta = load_pretrained(workdir / "meta.adp2")
    assert meta.method == "meta"
    log = json.loads((workdir / "plain.adp2.log.json").read_text())
    assert len(log["epochs"]) == 2


def test_make_split_roundtrip(workdir):
    split = SplitPlan.load_json(workdir / "split.json")
    ds = read_dataset(workdir / "data.ads")
    split.validate_against(ds)
    assert split.finetune_shots.size == 2 * ds.n_classes
    assert split.target_domain.id == 0


def test_adapt_full_pipeline(workdir, capsys):
    rc = main(["adapt", "--model", str(workdir / "meta.adp2"),
               "--data", str(workdir / "data.ads"),
               "--split", str(workdir / "split.json"),
               "--mode", "full", "--replay-steps", "2",
               "--out", str(workdir / "adapted.npz")])
    assert rc == 0
    assert "macro-F1" in capsys.readouterr().out
    log = json.loads((workdir / "adapted.npz.log.json").read_text())
    assert log["mode"] == "full"
    assert len(log["replay"]["step_losses"]) == 2
    assert 0.0 <= log["test"]["macro_f1"] <= 1.0


def test_adapt_mode_model_mismatch(workdir, capsys):
    rc = main(["adapt", "--model", str(workdir / "plain.adp2"),
               "--data", str(workdir / "data.ads"),
               "--split", str(workdir / "split.json"),
               "--mode", "full", "--out", str(workdir / "x.npz")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_finetune_subcommand(workdir, capsys):
    rc = main(["finetune", "--model", str(workdir / "plain.adp2"),
               "--data", str(workdir / "data.ads"),
               "--split", str(workdir / "split.json"),
               "--out", str(workdir / "probe.npz")])
    assert rc == 0
    assert "baseline" in capsys.readouterr().out


def test_sweep_subcommand(workdir, tmp_path, capsys):
    rc = main(["sweep", "--plan", str(workdir / "plan.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "full" in out and "2-shot" in out
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["n_failed"] == 0


def test_shift_study_subcommand(workdir, tmp_path, capsys):
    rc = main(["shift-study", "--plan", str(workdir / "plan.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "in-domain" in capsys.readouterr().out
    study = json.loads((tmp_path / "study.json").read_text())
    assert "simclr" in study["kinds"]


def test_dump_embeddings_subcommand(workdir, capsys):
    rc = main(["dump-embeddings", "--model", str(workdir / "plain.adp2"),
               "--data", str(workdir / "data.ads"),
               "--split", str(workdir / "split.json"),
               "--out", str(workdir / "emb.csv")])
    assert rc == 0
    lines = (workdir / "emb.csv").read_text().strip().split("\n")
    assert lines[0].startswith("domain,label,e0")
    assert len(lines) == 1 + 2 * 2 * 12


def test_bad_inputs_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data": {"synth": {"wat": 1}}}))
    assert main(["sweep", "--plan", str(bad)]) == 2
    assert main(["synth", "--plan", str(bad), "--out", str(tmp_path / "x.ads")]) == 2
    # malformed values are reported as plan errors, not tracebacks
    bad.write_text(json.dumps({"sweep": {"shots": 5}}))
    assert main(["sweep", "--plan", str(bad)]) == 2
    assert "sweep.shots must be a list" in capsys.readouterr().err
    bad.write_text(json.dumps({"sweep": {"seeds": None}}))
    assert main(["sweep", "--plan", str(bad)]) == 2
    assert "bad value for sweep.seeds" in capsys.readouterr().err
    bad.write_text(json.dumps({"data": {"path": 3}}))
    assert main(["sweep", "--plan", str(bad)]) == 2
    assert "error: data.path must be a string" in capsys.readouterr().err
    assert main(["adapt", "--model", str(tmp_path / "missing.adp2"),
                 "--data", str(workdir / "data.ads"),
                 "--split", str(workdir / "split.json"),
                 "--out", str(tmp_path / "y.npz")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["adapt", "finetune", "dump-embeddings"])
def test_malformed_sidecar_exits_2(workdir, tmp_path, capsys, command):
    # a sidecar without "method" is reported as an error, not a traceback
    model = tmp_path / "model.adp2"
    model.write_bytes((workdir / "plain.adp2").read_bytes())
    sidecar = json.loads((workdir / "plain.adp2.json").read_text())
    del sidecar["method"]
    (tmp_path / "model.adp2.json").write_text(json.dumps(sidecar))
    args = [command, "--model", str(model), "--data", str(workdir / "data.ads"),
            "--split", str(workdir / "split.json"), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model sidecar")
    assert "Traceback" not in err

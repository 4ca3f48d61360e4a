"""Checks of the benchmark itself: the probes must not change what the
program computes, must put every patched name back, and must count what
they claim to count.

    python -m pytest -q bench
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from biaxial import autodiff as ad  # noqa: E402
from biaxial import model as md  # noqa: E402
from biaxial import training as tr  # noqa: E402
from biaxial.rng import substream  # noqa: E402

TINY_MODEL = dict(sensors_count=6, value_embed_size=8, layers=1, heads=1,
                  dropout=0.3, attn_dropout=0.2)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so one unit runs in about a second."""
    monkeypatch.setattr(workloads, "REF_MODEL", TINY_MODEL)
    monkeypatch.setattr(workloads, "REF_COHORT", 80)
    monkeypatch.setattr(workloads, "LONG_MODEL", TINY_MODEL)
    monkeypatch.setattr(workloads, "LONG_DRAWN", 40)
    monkeypatch.setattr(workloads, "LONG_LONGEST", 20)
    monkeypatch.setattr(workloads, "LONG_COHORT", 12)
    monkeypatch.setattr(workloads, "LONG_MAX_OBS", 24)
    monkeypatch.setattr(workloads, "CLI_SENSORS", 6)
    monkeypatch.setattr(workloads, "CLI_COHORTS", (("cohortA", 120, 0.2, 0.5),
                                                   ("cohortB", 80, 0.2, 0.65)))
    monkeypatch.setattr(workloads, "CLI_MODEL", ["model.value_embed_size=8", "model.layers=1"])
    monkeypatch.setattr(workloads, "CLI_GRID_SIZES", (20,))


def _run_unit(name, tmp_path, trace):
    with probes.Probe() as probe:
        if trace:
            probe.start_tracing()
        wl = workloads.WORKLOADS[name](3, str(tmp_path / f"work-{trace}"), probe)
        wl.setup(0)
        out = wl.run(wl.inputs(0))
    return out, probe


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_bitwise(name, tiny, tmp_path):
    plain, _ = _run_unit(name, tmp_path, trace=False)
    traced, probe = _run_unit(name, tmp_path, trace=True)
    assert plain.problems == [] and traced.problems == []
    assert traced.fingerprint == plain.fingerprint
    assert traced.val_loss == plain.val_loss
    assert probe.step_s and probe.tape_nodes
    layer = probe.per_layer(1)
    assert layer["model.ffn_fwd_s"] > 0 and layer["model.ffn_bwd_s"] > 0
    assert layer["autodiff.fwd.affine_calls"] > 0


def test_probe_restores_every_patched_name():
    owners = [ad, md, md.BatModel, md.TemporalTransformer, tr, tr.AdamW,
              ad.GradientTape, workloads.mt, workloads.dt, workloads.sp]
    before = [dict(vars(o)) for o in owners]
    with probes.Probe() as probe:
        probe.start_tracing()
        assert ad.affine is not before[0]["affine"]
    after = [dict(vars(o)) for o in owners]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)


def test_tape_accounting_counts_nodes_and_distinct_buffers():
    x = ad.tensor(np.ones(10), requires_grad=True)
    y = ad.mul(x, x)                       # 80 bytes of output
    v = ad.reshape(y, (2, 5))              # a view of y: no new bytes
    loss = ad.sum_reduce(v)                # 8 bytes
    probe = probes.Probe()
    probe._from_root = ad.GradientTape.from_root
    probe._account_tape(loss)
    assert probe.tape_nodes == [3]
    assert probe.tape_bytes == [88]


def test_ops_are_charged_to_their_components():
    cfg = md.BatConfig(**TINY_MODEL)
    model = md.BatModel.init(cfg, substream(0, "init"))
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, 6, 5))
    mask = rng.random((2, 6, 5)) < 0.5
    with probes.Probe() as probe:
        probe.start_tracing()
        probs = model.classify(values, mask, np.arange(5.0), np.zeros((2, 4)),
                               train=True, rng=substream(0, "dropout"))
        tr.backward(ad.sum_reduce(probs))
    # 2 attention branches x 4 projections, 2 FFN layers and the head
    assert probe.counts["calls.affine"] == 11
    for comp in probes.COMPONENTS:
        assert probe.times[f"fwd.{comp}"] > 0, comp
        assert probe.times[f"bwd.{comp}"] > 0, comp
    assert probe.times["training.forward"] > 0
    assert probe.tape_nodes and probe.tape_bytes[0] > 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "finetune_ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_reports_exactly_the_declared_metrics(trace, tiny):
    args = argparse.Namespace(workload="finetune_ref", seed=2, seconds=0.0, trace=trace)
    result, detail = run.measure(args, workloads, probes, import_s=0.1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert result["correct"], detail["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in section} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_missing_private_helper_is_skipped_and_listed(monkeypatch):
    monkeypatch.delattr(tr, "_run_cell")
    with probes.Probe() as probe:
        probe.start_tracing()
    assert probe.unpatched == ["biaxial.training._run_cell"]
    assert not hasattr(tr, "_run_cell")

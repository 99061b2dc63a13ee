import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.workloads import WORKLOADS, Probe, Workload, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def reduced(w: Workload) -> Workload:
    """A smoke-sized copy of a workload: same code paths, tiny widths."""
    raw_dim = 4
    small = dict(input_dim=raw_dim * (1 + w.model.get("splice_left", 0) + w.model.get("splice_right", 0)),
                 num_memory_layers=3, num_classes=raw_dim + 1, wide_dim=8, memory_dim=4)
    return dataclasses.replace(
        w, raw_dim=raw_dim, frames=24, utts=12, valid_utts=min(w.valid_utts, 2),
        model=dict(w.model, **small),
        train=dict(w.train, truncation_chunk=w.train["truncation_chunk"] and 8) if w.trains else {},
        setup_repeats=2, stream=w.stream and (4, 6),
    )


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, (50.0, 9)), (39, (50.0, 19)), (40, (75.0, 29)), (100, (90.0, 89)),
     (199, (90.0, 179)), (200, (95.0, 189)), (1000, (99.0, 989)), (10000, (99.9, 9989))],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    got = tail_percentile(range(n))
    assert got == expected
    if got is not None:
        assert sum(1 for v in range(n) if v > got[1]) >= 10


def test_step_intervals_never_span_an_epoch_boundary():
    probe = Probe()
    probe.step_returns = [1.0, 2.0, 4.0, 100.0, 101.0]
    probe.epoch_steps = [3, 5]
    assert probe.step_intervals() == [1.0, 2.0, 1.0]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCH["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_metric(name, tmp_path, capsys):
    spec = reduced(WORKLOADS[name])
    plain = workloads.run(name, 3, 0.0, False, str(tmp_path), spec=spec)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for key, metric in plain["metrics"].items():
        assert metric["value"] > 0 and metric["unit"] == units[key]

    traced = workloads.run(name, 3, 0.0, True, str(tmp_path), spec=spec)
    assert traced["correct"] and traced["failed"] == 0
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(m) == {x["name"] for x in BENCH["per_layer"]}
    assert m["trace.coverage"] >= 0.9
    ratio = m["model.forward.useful_row_ratio"]
    assert ratio == 1.0 if name == "tiny-train" else 0 < ratio < 1
    assert os.path.exists(tmp_path / f"trace-{name}-seed3.npz")
    assert not [p for p in os.listdir(tmp_path) if p.startswith("run-")]


def test_same_seed_gives_same_ce_digests(tmp_path, capsys):
    spec = reduced(WORKLOADS["tiny-train"])
    runs = []
    for seed in (5, 5, 6):
        workloads.run(spec.name, seed, 0.0, False, str(tmp_path), spec=spec)
        runs.append([line.split(" ", 3)[3] for line in capsys.readouterr().out.splitlines()
                     if line.startswith("digest")])
    assert len(runs[0]) == 1  # seconds=0: one epoch
    assert runs[0] == runs[1] != runs[2]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")  # an importable copy elsewhere must not count
    proc = subprocess.run(
        [sys.executable] + BENCH["command"][1:]
        + ["--workload", "tiny-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

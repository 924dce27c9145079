"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run shrunken versions of the workloads in-process, so they take
seconds; the benchmark itself always runs the full workloads.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

ROUNDS, STEPS, CLIENTS, CLASSES, BATCH = 2, 5, 4, 3, 64


def _write(tmp_path, monkeypatch, cfg: dict, name: str) -> dict:
    run_dir = tmp_path / name
    run_dir.mkdir()
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("FEDDISTILL_OUTPUT_DIR", str(run_dir / "out"))
    return {"config_path": str(path), "run_dir": str(run_dir), "replays": 2}


def _small_mlp(seed: int) -> dict:
    cfg = workloads.fl_mlp_config(seed)
    cfg["distill"]["rounds"] = ROUNDS
    return cfg


def _small_conv(requests: list[str]) -> dict:
    cfg = workloads.conv_world_config(3, requests)
    cfg["dataset"].update(train_per_class=24, test_per_class=8)
    cfg["distill"].update(rounds=1, local_steps=1)
    cfg["mia"]["enabled"] = False
    return cfg


def _traced_fl(tmp_path, monkeypatch, cfg, name):
    tr = Tracer()
    result = worker.run_fl(_write(tmp_path, monkeypatch, cfg, name), tr)
    return result, tr.layer_metrics()


def test_traced_counts_match_the_analytic_counts(tmp_path, monkeypatch):
    result, layers = _traced_fl(tmp_path, monkeypatch, _small_mlp(1), "traced")
    steps = ROUNDS * CLIENTS * STEPS                  # every client takes part
    assert layers["distill.match_step.calls"] == steps
    assert layers["tensor.hypergrad.calls"] == steps * CLASSES      # syn_steps = 1
    # the retrain baseline trains again, without distillation, on 2 classes
    real = steps * CLASSES + steps * (CLASSES - 1)
    assert layers["distill.class_gradient.real_calls"] == real
    assert layers["data.next_batch.calls"] == real
    assert layers["federation.samples"] == real * BATCH
    assert layers["distill.match_skip_ratio"] == 0
    assert layers["unlearn.noop_ratio"] == 0
    assert result["failures"] == []
    assert set(layers) == set(LAYER_METRICS) - {"trace.overhead_s", "evaluate.f_set_acc"}


def test_bytes_written_equals_checkpoint_sizes(tmp_path, monkeypatch):
    _, layers = _traced_fl(tmp_path, monkeypatch, _small_mlp(1), "run")
    out = tmp_path / "run" / "out"
    sizes = sum(p.stat().st_size for p in out.iterdir() if p.suffix in (".qdmd", ".qdsy"))
    assert layers["checkpoint.bytes_written"] == sizes > 0


def test_uninstall_restores_the_program():
    import feddistill.distill as distill
    import feddistill.federation as federation
    from feddistill.unlearn import UnlearnEngine

    before = (distill.match_step, federation.match_step, UnlearnEngine.execute_request)
    tr = Tracer().install()
    assert federation.match_step is not before[1]
    assert UnlearnEngine.execute_request is not before[2]
    tr.uninstall()
    assert (distill.match_step, federation.match_step, UnlearnEngine.execute_request) == before


def test_traced_reports_equal_plain_reports(tmp_path, monkeypatch):
    plain = worker.run_fl(_write(tmp_path, monkeypatch, _small_mlp(2), "plain"))
    traced, _ = _traced_fl(tmp_path, monkeypatch, _small_mlp(2), "traced")
    assert plain["reports"] and plain["reports"] == traced["reports"]


@pytest.mark.parametrize("make_cfg, match_nodes, forward_nodes", [
    (lambda: _small_mlp(1), 103, 25),
    (lambda: _small_conv(["unlearn class=2"]), 345, 86),   # 346 on fl_conv itself
])
def test_graph_node_counts_repeat_exactly(tmp_path, monkeypatch, make_cfg, match_nodes,
                                          forward_nodes):
    counts = []
    for name in ("first", "second"):
        _, layers = _traced_fl(tmp_path, monkeypatch, make_cfg(), name)
        counts.append((layers["tensor.match_graph_nodes"], layers["tensor.forward_graph_nodes"]))
    assert counts == [(match_nodes, forward_nodes)] * 2


def test_request_stream_is_a_function_of_the_seed():
    stream = workloads.request_stream(7, 60)
    assert stream == workloads.request_stream(7, 60)
    assert stream[:20] == workloads.request_stream(7, 20)
    assert stream != workloads.request_stream(8, 60)
    forgotten: set[int] = set()
    kinds = []
    for line in stream:
        kind, spec = line.split()
        targets = {int(item.split("=")[1]) for item in spec.split(",")}
        kinds.append(kind)
        if kind == "relearn":
            assert len(targets) == 1 and targets <= forgotten
            forgotten -= targets
        else:
            assert len(targets) == (2 if kind == "batch" else 1)
            assert not targets & forgotten
            forgotten |= targets
    assert kinds.count("relearn") == 36 and kinds.count("batch") == kinds.count("unlearn") == 12


def test_stream_on_a_second_seed_has_no_failures(tmp_path, monkeypatch):
    job = _write(tmp_path, monkeypatch, _small_conv([]), "stream")
    job["requests"] = workloads.request_stream(2, 12)
    result = worker.run_stream(job)
    assert result["failures"] == []
    assert len(result["request_ms"]) == 12
    again = worker.run_stream(job)
    assert again["reports"] == result["reports"]


def test_controller_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fl_mlp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracer_mod.percentile(values, 0.9) == 90
    assert tracer_mod.percentile([5.0], 0.9) == 5.0


def test_benchmark_json_declares_what_the_controller_prints():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_failures_count_at_most_once_per_operation():
    import run

    batch = run.Batch()
    ok = {"failures": [], "reports": {"stream": json.dumps([1, 2, 3])}}
    run._record_worker(batch, ok, "", 3, None)
    off = {"failures": ["request 0: NumericError"], "reports": {"stream": json.dumps([1, 9, 3])}}
    run._record_worker(batch, off, "", 3, ok)               # 1 error + 1 mismatch
    run._record_worker(batch, None, "worker timed out", 3, ok)
    fl = {"failures": ["loss is nan", "accuracy is nan"], "reports": {"a.json": "x"}}
    run._record_worker(batch, fl, "", 1, None)
    assert (batch.attempted, batch.failed) == (10, 2 + 3 + 1)
    assert len(batch.results) == 3

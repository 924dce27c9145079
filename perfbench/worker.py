"""One workload process: set up, run, check, and report one JSON line.

    python3 perfbench/worker.py '<job JSON>'

The job names the workload, the seed, a fresh run directory and whether to
trace.  The controller (run.py) starts one worker per operation batch and
reads the last line of its standard output.  The worker pins BLAS to one
thread before numpy is imported, so it must be started as a fresh process.
"""
from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env) -> None:
    for name in THREAD_VARS:
        env[name] = "1"


def _import_program():
    """Put the checkout's own src/ first on the path and import from there."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import feddistill

    if Path(feddistill.__file__).resolve().parent != ROOT / "src" / "feddistill":
        raise ImportError(f"feddistill imported from {feddistill.__file__}, not {src}")


def _finite(value) -> bool:
    return value is None or math.isfinite(value)


def _check_reports(records: list[dict], failures: list[str], where: str) -> None:
    for rec in records:
        for key in ("f_set_accuracy", "r_set_accuracy", "overall_accuracy", "mia_forget_rate"):
            if not _finite(rec.get(key)):
                failures.append(f"{where}: stage {rec.get('stage')} {key} is {rec.get(key)}")


def _final_loss(params, spec, test) -> float:
    from feddistill.evaluate import per_sample_losses

    return float(per_sample_losses(params, spec, test.samples, test.labels).mean())


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{name: os.environ.get(name) for name in THREAD_VARS}}


def run_fl(job: dict, tracer=None) -> dict:
    """One full `run_experiment` on the generated config, then its deletion
    request served `job["replays"]` more times from the run's checkpoints,
    as `feddistill unlearn` serves it."""
    from feddistill.checkpoint import load_model
    from feddistill.config import load_config
    from feddistill import runner
    from feddistill.errors import ConfigError

    config_path = job["config_path"]
    cfg = load_config(config_path)
    problems = cfg.problems()
    if problems:
        raise ConfigError(problems)
    ready_at = time.monotonic()

    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    artifacts = runner.run_experiment(config_path)   # looked up after install()
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    failures: list[str] = []
    reports = {}
    for path in sorted(artifacts.output_dir.glob("report_*.json")):
        reports[path.name] = path.read_text()
        _check_reports(json.loads(reports[path.name])["stages"], failures, path.name)
    final = artifacts.reports["distilled"].stages[-1].to_dict()
    _, test = runner.build_datasets(cfg)
    loss = _final_loss(load_model(artifacts.output_dir / "model_final.qdmd", cfg.arch),
                       cfg.arch, test)
    if not math.isfinite(loss):
        failures.append(f"final test loss is {loss}")

    # each replay starts from hard links to the run's checkpoints in a fresh
    # directory: on ext4, overwriting files written a moment before made a
    # replay 30-80 times slower
    run_dir = Path(job["run_dir"])
    requests_path = run_dir / "requests.txt"
    requests_path.write_text("\n".join(cfg.unlearn.requests) + "\n")
    checkpoints = [artifacts.output_dir / "model.qdmd",
                   *sorted(artifacts.output_dir.glob("synthetic_client*.qdsy"))]
    request_ms, replays = [], set()
    for k in range(job["replays"]):
        replay_dir = run_dir / f"replay{k}"
        replay_dir.mkdir()
        for path in checkpoints:
            os.link(path, replay_dir / path.name)
        os.environ["FEDDISTILL_OUTPUT_DIR"] = str(replay_dir)
        replay = runner.run_unlearn_only(config_path, requests_path).reports["distilled_unlearn"]
        # the request's own work: its unlearn and recover stages, timed by the
        # program without the rebuild, evaluation and file writes around them
        request_ms.append(sum(stage.wall_ms for stage in replay.stages))
        replays.add(json.dumps(replay.to_dict(), sort_keys=True))
    if len(replays) > 1:
        failures.append("replays of the deletion request produced different reports")
    reports["replay"] = "".join(replays)
    return {"ready_at": ready_at, "run_s": run_s, "request_ms": request_ms,
            "reports": reports, "r_set_acc": [final["r_set_accuracy"]],
            "f_set_acc": [final["f_set_accuracy"]], "failures": failures}


def _request(action, cfg):
    from feddistill.unlearn import UnlearningRequest

    un = cfg.unlearn
    return UnlearningRequest(targets=action.targets, unlearn_rounds=un.unlearn_rounds,
                             recovery_rounds=un.recovery_rounds, sga_lr=un.sga_lr,
                             recovery_lr=un.recovery_lr, mix_per_class=un.mix_per_class)


def run_stream(job: dict, tracer=None) -> dict:
    """Train the stream world once, then replay the request stream through
    `UnlearnEngine`, one caller, with an accuracy report after each request."""
    from feddistill import evaluate
    from feddistill.config import load_config
    from feddistill.data import dirichlet_partition
    from feddistill.errors import ConfigError, NumericError, ShapeError
    from feddistill.federation import build_clients, train_federated
    from feddistill.runner import build_datasets
    from feddistill.unlearn import UnlearnEngine, parse_request_line

    cfg = load_config(job["config_path"])
    problems = cfg.problems()
    if problems:
        raise ConfigError(problems)
    dtype = cfg.dtype()
    train, test = build_datasets(cfg)
    parts, _ = dirichlet_partition(train, cfg.clients, cfg.alpha, cfg.seed,
                                   per_class_over_clients=cfg.partition_per_class)
    clients = build_clients(parts, master_seed=cfg.seed, scale_s=cfg.scale_s,
                            distill_enabled=cfg.distill_enabled, dtype=dtype)
    model, _, _ = train_federated(clients, cfg.arch, cfg.distill, master_seed=cfg.seed,
                                  participation=cfg.participation,
                                  distill_enabled=cfg.distill_enabled, dtype=dtype)
    engine = UnlearnEngine(clients, cfg.arch, master_seed=cfg.seed, dtype=dtype,
                           pass_batch_size=cfg.unlearn.pass_batch_size)
    lines = job["requests"]
    ready_at = time.monotonic()

    if tracer is not None:
        tracer.install()
    latencies, records, failures = [], [], []
    start = time.perf_counter()

    def serve(action, model):
        if action.kind == "relearn":
            return engine.relearn(model, action.targets, cfg.unlearn.relearn_rounds,
                                  lr=cfg.unlearn.recovery_lr)[0]
        return engine.execute_request(model, _request(action, cfg))[0]

    for i, line in enumerate(lines):
        action = parse_request_line(line)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                model = serve(action, model)
            else:   # one root span per request: its spans share that ancestor
                model = tracer.span("bench.request", serve, action, model)
        except (NumericError, ShapeError) as e:
            failures.append(f"request {i} ({line}): {type(e).__name__}: {e}")
            latencies.append(None)
            records.append(None)
            continue
        latencies.append((time.perf_counter() - t0) * 1e3)
        records.append(evaluate.accuracy_report(model.params, model.spec, test,
                                                engine.forgotten_classes).to_dict())
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    done = [r for r in records if r is not None]
    _check_reports(done, failures, "stream")
    loss = _final_loss(model.params, cfg.arch, test)
    if not math.isfinite(loss):
        failures.append(f"final test loss is {loss}")
    return {"ready_at": ready_at, "run_s": run_s,
            "request_ms": [v for v in latencies if v is not None],
            "reports": {"stream": json.dumps(records, sort_keys=True)},
            "r_set_acc": [r["r_set_accuracy"] for r in done],
            "f_set_acc": [r["f_set_accuracy"] for r in done
                          if r["f_set_accuracy"] is not None],
            "failures": failures}


def main(argv) -> int:
    pin_threads(os.environ)
    job = json.loads(argv[1])
    _import_program()
    from tracer import Tracer

    tracer = Tracer() if job["trace"] else None
    run = run_stream if job["workload"] == "unlearn_stream" else run_fl
    result = run(job, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(Path(job["run_dir"]) / "spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

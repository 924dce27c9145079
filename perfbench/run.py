"""feddistill benchmark controller.

    python3 perfbench/run.py --workload fl_mlp --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  Each operation batch runs in a fresh
worker process (perfbench/worker.py) with BLAS pinned to one thread and a
fresh output directory under .perfbench_runs/.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
plain and a traced worker run the same input, and the metrics are the
per-layer ones.  The line before it records the machine and sample counts.

Stdlib only; this process never imports numpy.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, percentile  # noqa: E402
from worker import pin_threads  # noqa: E402
from workloads import CONFIGS, WORKLOADS, request_stream  # noqa: E402

RUNS_DIR = ROOT / ".perfbench_runs"
TIME_LIMIT_S = 170           # the whole benchmark must end within 180 s
MIN_FL_RUNS = 3
STREAM_WORKERS = 3           # set-up (training) is measured once per worker
# deletion-request replays per fl run: about 20 or more request samples in a
# 30 s window, while lengthening a run by no more than about a fifth
REPLAYS = {"fl_mlp": 10, "fl_conv": 4}

END_TO_END = {               # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "r_set_acc": "ratio",
    "success_rate": "ratio",
}


class Batch:
    """Outcome of the workers one benchmark run starts."""

    def __init__(self):
        self.results: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def stream_length(seconds: int) -> int:
    """Requests each stream worker replays: about `seconds` of work for the
    three workers together, and at least 34, so that p90 has at least ten
    samples beyond it."""
    return max(34, 3 * seconds)


def spawn(workload: str, seed: int, trace: bool, deadline: float,
          requests: list[str] | None = None) -> tuple[dict | None, str]:
    """Run one worker in a fresh run directory; returns (result, error)."""
    work = RUNS_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=work))
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(CONFIGS[workload](seed), indent=1))
    job = {"workload": workload, "seed": seed, "trace": trace, "run_dir": str(run_dir),
           "config_path": str(config_path), "requests": requests,
           "replays": REPLAYS.get(workload, 0)}
    env = dict(os.environ)
    pin_threads(env)
    env["FEDDISTILL_OUTPUT_DIR"] = str(run_dir / "out")
    try:
        with open(run_dir / "worker.log", "w") as log:
            spawned_at = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                    stdout=subprocess.PIPE, stderr=log, text=True,
                                    cwd=ROOT, env=env)
            try:
                out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return None, f"{workload} worker timed out"
        if proc.returncode != 0:
            tail = (run_dir / "worker.log").read_text().strip().splitlines()[-1:]
            return None, f"{workload} worker exited {proc.returncode}: {' '.join(tail)}"
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return None, f"{workload} worker printed no result"
        result["setup_s"] = result["ready_at"] - spawned_at
        if trace:
            keep = RUNS_DIR / "last_trace"
            keep.mkdir(exist_ok=True)
            shutil.move(str(run_dir / "spans.jsonl"), keep / f"{workload}.spans.jsonl")
        return result, ""
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _record_worker(batch: Batch, result: dict | None, error: str, ops: int,
                   reference: dict | None) -> None:
    """Count a worker's operations and failures, at most one per operation;
    compare its reports with those of the reference worker, which ran the
    same input."""
    batch.attempted += ops
    if result is None:
        batch.fail(ops, error)
        return
    problems = list(result["failures"])     # one entry per failed request or check
    bad = len(problems)
    if reference is not None and result["reports"] != reference["reports"]:
        bad += _mismatches(result["reports"], reference["reports"], ops)
        problems.append("reports differ from the reference run of the same input")
    if bad:
        batch.fail(min(bad, ops), "; ".join(problems[:3]))
    batch.results.append(result)


def _mismatches(reports: dict, reference: dict, ops: int) -> int:
    """Operations whose reports differ: per request on the stream, the whole
    run on fl_*."""
    if set(reports) != {"stream"} or set(reference) != {"stream"}:
        return ops
    mine, theirs = json.loads(reports["stream"]), json.loads(reference["stream"])
    return sum(a != b for a, b in zip(mine, theirs)) + abs(len(mine) - len(theirs))


def run_plain(workload: str, seed: int, seconds: int, deadline: float) -> Batch:
    batch = Batch()
    if workload == "unlearn_stream":
        lines = request_stream(seed, stream_length(seconds))
        for _ in range(STREAM_WORKERS):
            result, error = spawn(workload, seed, False, deadline, lines)
            _record_worker(batch, result, error, len(lines),
                           batch.results[0] if batch.results else None)
        return batch
    start = time.monotonic()
    longest = 0.0
    while batch.attempted < MIN_FL_RUNS or time.monotonic() - start < seconds:
        if deadline - time.monotonic() < 2 * longest + 5:
            break
        began = time.monotonic()
        result, error = spawn(workload, seed, False, deadline)
        longest = max(longest, time.monotonic() - began)
        _record_worker(batch, result, error, 1, batch.results[0] if batch.results else None)
    return batch


def run_traced(workload: str, seed: int, seconds: int, deadline: float) -> Batch:
    """A plain and a traced worker on the same input; the traced one must
    produce the same reports."""
    batch = Batch()
    lines = request_stream(seed, stream_length(seconds)) if workload == "unlearn_stream" else None
    ops = len(lines) if lines else 1
    plain, error = spawn(workload, seed, False, deadline, lines)
    _record_worker(batch, plain, error, ops, None)
    traced, error = spawn(workload, seed, True, deadline, lines)
    _record_worker(batch, traced, error, ops, plain)
    return batch


def accuracies(result: dict) -> tuple[float, float]:
    """R-set and F-set accuracy of one worker: the final report stage on
    fl_*, the mean over the reports taken after each request on the stream.
    Every worker of a run has the same values; the controller checks that."""
    return statistics.fmean(result["r_set_acc"]), statistics.fmean(result["f_set_acc"])


def end_to_end(batch: Batch, workload: str) -> tuple[dict, dict]:
    res = batch.results
    latencies = [v for r in res for v in r["request_ms"]]
    r_set, f_set = accuracies(res[0])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in res),
        "run_s": statistics.median(r["run_s"] for r in res),
        "request_ms_p50": statistics.median(latencies),
        "request_ms_p90": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in res),
        "r_set_acc": r_set,
        "success_rate": 1.0 - batch.failed / batch.attempted,
    }
    samples = {"workers": len(res), "setup_s": [r["setup_s"] for r in res],
               "run_s": [r["run_s"] for r in res],
               "request_ms": len(latencies), "r_set_acc": sum(len(r["r_set_acc"]) for r in res),
               "operations": batch.attempted, "f_set_acc": f_set}
    return values, samples


def layers(batch: Batch) -> tuple[dict, dict]:
    plain, traced = batch.results
    values = dict(traced["layers"])
    values["evaluate.f_set_acc"] = accuracies(traced)[1]
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    return values, {"plain_run_s": plain["run_s"], "traced_run_s": traced["run_s"]}


def filesystem(path: Path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "feddistill" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'feddistill'}; "
              "run from the root of a feddistill checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)     # one benchmark at a time per checkout
        load_before = os.getloadavg()
        run = run_traced if args.trace else run_plain
        batch = run(args.workload, args.seed, args.seconds, deadline)
        load_after = os.getloadavg()

    expected = 2 if args.trace else 1
    if len(batch.results) < expected:
        print(f"perfbench: {args.workload} produced no usable run: "
              f"{'; '.join(batch.problems)}", file=sys.stderr)
        return 1
    if args.trace:
        values, samples = layers(batch)
        units = LAYER_METRICS
    else:
        values, samples = end_to_end(batch, args.workload)
        units = END_TO_END
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": load_after,
            "filesystem": filesystem(RUNS_DIR), **batch.results[0]["env"],
            "samples": samples, "problems": batch.problems,
            "elapsed_s": time.monotonic() - started}
    result = {"correct": batch.failed == 0, "attempted": batch.attempted,
              "failed": batch.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    with open(RUNS_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

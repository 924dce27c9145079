"""Print the SHA-256 of every artifact that `run`, then `unlearn --requests`,
then `distill` (into a directory of its own) write, for three fixed configs.

    python tests/artifact_digest.py > digests.txt
    python tests/artifact_digest.py --against digests.txt

Run it in two checkouts and compare: equal lines mean both trees wrote the
same bytes.  With `--against FILE` it prints only the lines that differ from
FILE or are missing on either side (`-` from FILE, `+` from this run) and
exits 1 if there are any.  Hashed are every `.qdmd`, `.qdsy` and `report_*.json`,
and every CSV with its `wall_ms` column dropped (wall times differ from run
to run).  The configs are `configs/blobs_small.json`, the convnet world of
the benchmark's `fl_conv` workload at seed 1, and a 3-block convnet on
[1,8,8] inputs whose last pooling window covers the whole 2x2 map, with one
fine-tune pass after training.  Each command runs as `python -m feddistill`
on this checkout's `src/`, in a temporary directory.  pytest does not
collect this file.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONV_WORLD = {
    "seed": 1,
    "dataset": {"kind": "blobs", "classes": 10, "train_per_class": 200,
                "test_per_class": 50, "dim": [1, 16, 16], "separation": 40.0},
    "clients": 4,
    "alpha": "inf",
    "participation": 1.0,
    "arch": {"kind": "convnet", "blocks": 2, "filters": 16},
    "distill": {"enabled": True, "rounds": 3, "local_steps": 5, "syn_lr": 0.1,
                "model_lr": 0.5, "real_batch_per_class": 32, "scale_s": 20.0},
    "unlearn": {"requests": ["unlearn class=0"], "unlearn_rounds": 1, "recovery_rounds": 2,
                "sga_lr": 0.3, "recovery_lr": 0.02, "mix_per_class": 10,
                "relearn_rounds": 2},
    "baselines": {"retrain": False, "sga_original": False},
    "mia": {"enabled": True, "max_pool": 256},
}

CONV_8X8 = {
    "seed": 3,
    "dataset": {"kind": "blobs", "classes": 4, "train_per_class": 40,
                "test_per_class": 10, "dim": [1, 8, 8], "separation": 20.0},
    "clients": 2,
    "alpha": "inf",
    "participation": 1.0,
    "arch": {"kind": "convnet", "blocks": 3, "filters": 4},
    "distill": {"enabled": True, "rounds": 2, "local_steps": 2, "syn_lr": 0.1,
                "model_lr": 0.2, "real_batch_per_class": 8, "scale_s": 10.0,
                "fine_tune_steps": 1},
    "unlearn": {"requests": ["unlearn class=1"], "unlearn_rounds": 1, "recovery_rounds": 1,
                "sga_lr": 0.1, "recovery_lr": 0.05, "mix_per_class": 4,
                "relearn_rounds": 1},
    "baselines": {"retrain": True, "sga_original": True},
    "mia": {"enabled": True, "max_pool": 64},
}

# name -> (config, request lines for `unlearn --requests`)
CASES = {
    "blobs_small": (json.loads((ROOT / "configs" / "blobs_small.json").read_text()),
                    ["unlearn class=1", "relearn class=1", "batch class=0,class=2"]),
    "fl_conv": (CONV_WORLD, ["unlearn class=3", "batch class=1,class=5", "relearn class=3"]),
    "conv_8x8": (CONV_8X8, ["unlearn class=0", "batch class=2,class=3", "relearn class=0"]),
}


def _digest(path: Path) -> str:
    if path.suffix != ".csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    rows = list(csv.reader(io.StringIO(path.read_text())))
    drop = rows[0].index("wall_ms") if rows and "wall_ms" in rows[0] else None
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow(row if drop is None else row[:drop] + row[drop + 1:])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _artifacts(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir()
                  if p.suffix in (".qdmd", ".qdsy", ".csv")
                  or (p.name.startswith("report_") and p.suffix == ".json"))


def _feddistill(args: list[str], out_dir: Path) -> None:
    env = dict(os.environ, FEDDISTILL_OUTPUT_DIR=str(out_dir),
               PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "feddistill", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def digests():
    """Yield one `<sha256>  <case>/<step>/<file>` line per artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, requests) in CASES.items():
            case = Path(tmp) / name
            case.mkdir()
            config_path = case / "config.json"
            config_path.write_text(json.dumps(config))
            requests_path = case / "requests.txt"
            requests_path.write_text("\n".join(requests) + "\n")
            for step, out_dir, args in (
                    ("run", case / "out", ["run", str(config_path)]),
                    ("unlearn", case / "out", ["unlearn", str(config_path),
                                               "--requests", str(requests_path)]),
                    ("distill", case / "distill", ["distill", str(config_path)])):
                _feddistill(args, out_dir)
                for path in _artifacts(out_dir):
                    yield f"{_digest(path)}  {name}/{step}/{path.name}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="print only the lines that differ from FILE; exit 1 if any")
    args = parser.parse_args()
    if args.against is None:
        for line in digests():
            print(line, flush=True)
        return 0
    expected = Path(args.against).read_text().splitlines()
    got = list(digests())
    diff = [f"-{line}" for line in expected if line not in got]
    diff += [f"+{line}" for line in got if line not in expected]
    if diff:
        print("\n".join(diff))
        return 1
    print(f"all {len(got)} lines identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

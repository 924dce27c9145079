"""Print the SHA-256 of every artifact that `run`, then `unlearn --requests`,
then `distill` (into a directory of its own) write, for three fixed configs.

    python tests/artifact_digest.py > digests.txt
    python tests/artifact_digest.py --against digests.txt
    python tests/artifact_digest.py --tapes [--case blobs_small] [--src DIR]

Run it in two checkouts and compare: equal lines mean both trees wrote the
same bytes.  With `--against FILE` it prints only the lines that differ from
FILE or are missing on either side (`-` from FILE, `+` from this run) and
exits 1 if there are any.  With `--tapes` it prints instead one line per tape
that `run` and `unlearn --requests` record, in the order they record them:
the tape's kind, member 0's input shapes and dtypes, the grad mode, the step
count, and a hash of the kernel sequence with the slots past the inputs
renamed by first use, so that two trees that record the same kernels over
the same slots print the same line.  `--against` compares these lines too.
`--src DIR` runs the commands on another checkout's `src/` (a tree from
before this option works too, as the tape lines come from wrapping
`tensor.tape_call`); `--case NAME` limits the run to the named configs.

Hashed are every `.qdmd`, `.qdsy` and `report_*.json`, and every CSV with its
`wall_ms` column dropped (wall times differ from run to run).  The configs
are `configs/blobs_small.json`, the convnet world of the benchmark's
`fl_conv` workload at seed 1, and a 3-block convnet on [1,8,8] inputs whose
last pooling window covers the whole 2x2 map, with one fine-tune pass after
training.  Each command runs as `python -m feddistill` on this checkout's
`src/` (or `--src`), in a temporary directory.  pytest does not collect this
file.
"""
from __future__ import annotations

import argparse
import collections
import csv
import functools
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


def _feddistill(args: list[str], out_dir: Path, src: Path, tapes: bool = False) -> str:
    """Run one feddistill command on `src`; with `tapes`, return its tape lines."""
    env = dict(os.environ, FEDDISTILL_OUTPUT_DIR=str(out_dir), PYTHONPATH=str(src))
    head = [sys.executable, "-c", _TAPE_WORKER, str(Path(__file__).resolve().parent)] \
        if tapes else [sys.executable, "-m", "feddistill"]
    done = subprocess.run([*head, *args], env=env, check=True, text=True,
                          stdout=subprocess.PIPE if tapes else subprocess.DEVNULL)
    return done.stdout if tapes else ""


# Runs `feddistill.cli.main(argv)` with `tape_call` wrapped; prints the tape
# lines only, after the command, on standard output.
_TAPE_WORKER = """
import sys
sys.path.insert(0, sys.argv[1])
import artifact_digest
sys.exit(artifact_digest.tape_worker(sys.argv[2:]))
"""


def _kernel_name(kernel) -> str:
    """A name for a tape kernel that is the same in every process: its
    qualified name, its bytecode and plain constants, the arguments of a
    partial, and the plain values (numbers, tuples, scalars) its closure
    holds."""
    if isinstance(kernel, functools.partial):
        return f"{_kernel_name(kernel.func)}{kernel.args!r}{sorted(kernel.keywords.items())!r}"
    name = getattr(kernel, "__qualname__", None) or kernel.__name__
    code = getattr(kernel, "__code__", None)
    if code is not None:
        consts = [repr(c) for c in code.co_consts if not hasattr(c, "co_code")]
        name += f"[{code.co_code.hex()} {', '.join(consts)}]"
    cells = [c.cell_contents for c in getattr(kernel, "__closure__", None) or ()]
    plain = [repr(v) for v in cells
             if isinstance(v, (int, float, str, tuple)) or getattr(v, "ndim", None) == 0]
    return f"{getattr(kernel, '__module__', None)}.{name}({', '.join(plain)})"


def _tape_line(key, tape) -> str:
    """`kind  shapes  grad=<mode>  steps=<n>  <hash>` for one recorded tape."""
    kind, shapes, grad_mode = key
    fixed = 1 + tape._n_inputs                  # slot 0 and the inputs keep their numbers
    renamed: dict[int, int] = {}

    def slot(i):
        if i < fixed:
            return i
        if i not in renamed:
            renamed[i] = fixed + len(renamed)
        return renamed[i]

    blob = []
    for kernel, ins, out, dead in tape._steps:
        consts = [(slot(i), tape._template[i].shape, str(tape._template[i].dtype))
                  for i in ins if i >= fixed and tape._template[i] is not None]
        blob.append(f"{_kernel_name(kernel)} {[slot(i) for i in ins]} {consts} -> {slot(out)} "
                    f"free {[slot(i) for i in dead]}")
    blob.append(f"outputs {[(slot(i), copy) for i, copy in tape._outputs]}")
    shape_text = ",".join(f"{'x'.join(map(str, shape)) or '()'}:{dtype}"
                          for shape, dtype in shapes)
    digest = hashlib.sha256("\n".join(blob).encode()).hexdigest()[:16]
    return f"{kind}  {shape_text}  grad={grad_mode}  steps={len(tape._steps)}  {digest}"


def tape_worker(argv: list[str]) -> int:
    """`feddistill.cli.main(argv)` with every module's `tape_call` wrapped:
    each call that records a tape prints its `_tape_line` after the command."""
    import contextlib

    from feddistill import cli, runner, tensor  # noqa: F401  (imports every module)

    original, lines = tensor.tape_call, []

    def wrapped(tapes, *args, **kwargs):
        before = len(tapes)
        out = original(tapes, *args, **kwargs)
        if len(tapes) != before:
            key = next(reversed(tapes))             # the key this call recorded
            lines.append(_tape_line(key, tapes[key]))
        return out

    for module in list(sys.modules.values()):
        if module.__name__.startswith("feddistill") and \
                getattr(module, "tape_call", None) is original:
            module.tape_call = wrapped
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    for line in lines:
        print(line)
    return code


def digests(src: Path = ROOT / "src", cases=None, tapes: bool = False):
    """Yield one `<sha256>  <case>/<step>/<file>` line per artifact, or with
    `tapes` one `<case>/<step>  <tape line>` per recorded tape."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, requests) in CASES.items():
            if cases and name not in cases:
                continue
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
                if tapes and step == "distill":
                    continue
                out = _feddistill(args, out_dir, src, tapes)
                if tapes:
                    for line in out.splitlines():
                        yield f"{name}/{step}  {line}"
                    continue
                for path in _artifacts(out_dir):
                    yield f"{_digest(path)}  {name}/{step}/{path.name}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="print only the lines that differ from FILE; exit 1 if any")
    parser.add_argument("--tapes", action="store_true",
                        help="print one line per recorded tape instead of the artifact hashes")
    parser.add_argument("--src", metavar="DIR", type=Path, default=ROOT / "src",
                        help="the src/ directory to run (default: this checkout's)")
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="run only this config (repeatable; default: all)")
    args = parser.parse_args()
    lines = digests(args.src.resolve(), args.case, args.tapes)
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    expected = Path(args.against).read_text().splitlines()
    got = list(lines)
    expected_count, got_count = collections.Counter(expected), collections.Counter(got)
    diff = [f"-{line}" for line in (expected_count - got_count).elements()]
    diff += [f"+{line}" for line in (got_count - expected_count).elements()]
    if diff:
        print("\n".join(diff))
        return 1
    print(f"all {len(got)} lines identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

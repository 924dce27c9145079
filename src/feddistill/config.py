"""Experiment configuration: a JSON file drives the whole pipeline.

`FIELDS` is the format.  Reading a file rejects non-object sections, unknown
keys, wrong types and failed checks with one `ConfigError` naming every problem
by its JSON path; `ExperimentConfig.problems()` returns the checks that span
fields, so the CLI prints them all."""
from __future__ import annotations

import copy
import json
import math
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .data import idx_image_size, idx_labels
from .distill import DistillConfig
from .errors import ConfigError, ShapeError
from .models import ArchSpec
from .unlearn import RequestAction, parse_request_line


def _at_least(low):
    return lambda v: None if v >= low else f"must be >= {low}, got {v}"


def _one_of(*choices):
    return lambda v: None if v in choices else f"expected one of {'|'.join(choices)}, got {v!r}"


def _alpha(v):
    if v in ("inf", "Inf") or not isinstance(v, str) and v > 0:
        return None
    return f'must be a positive number or "inf", got {json.dumps(v)}'


def _shape(v):
    return None if len(v) == 3 and min(v) >= 1 else f"expected 3 positive sizes, got {v}"


# One row per accepted key: (JSON path, type, default, check).  A float key
# takes any finite JSON number; a check returns None or what is wrong.  A key
# whose default is ... is required; an arch default of None follows the
# dataset section.  ArchSpec.problems() checks the arch rows: library callers
# reach it through init_params.
FIELDS = (
    ("seed", int, ..., None),                       # runs never seed from the clock
    ("output_dir", str, "out", None),               # FEDDISTILL_OUTPUT_DIR overrides it
    ("clients", int, 4, _at_least(1)),
    ("alpha", float | str, "inf", _alpha),          # Dirichlet concentration; "inf" is IID
    ("participation", float, 1.0, lambda v: None if 0 < v <= 1 else f"must be in (0, 1], got {v}"),
    ("partition_per_class", bool, True, None),
    ("precision", str, "float32", _one_of("float32", "float64")),
    ("dataset.kind", str, "blobs", _one_of("blobs", "idx")),
    ("dataset.classes", int, 2, _at_least(2)),
    ("dataset.train_per_class", int, 500, _at_least(1)),
    ("dataset.test_per_class", int, 100, _at_least(1)),
    ("dataset.dim", list[int], [1, 8, 8], _shape),
    ("dataset.separation", float, 10.0, _at_least(0)),
    ("dataset.train_images", str, "", None),
    ("dataset.train_labels", str, "", None),
    ("dataset.test_images", str, "", None),
    ("dataset.test_labels", str, "", None),
    ("dataset.subset_per_class", int, 0, _at_least(0)),   # idx only; 0 keeps everything
    ("arch.kind", str, "mlp", None),
    ("arch.input_shape", list[int], None, None),          # blobs: dataset.dim; idx: the header
    ("arch.class_count", int, None, None),                # blobs: dataset.classes; idx: 10
    ("arch.blocks", int, 3, None),
    ("arch.filters", int, 128, None),
    ("arch.norm", str, "instance", None),
    ("arch.pool", int, 2, None),
    ("arch.hidden", list[int], [64], None),
    ("distill.enabled", bool, True, None),
    ("distill.rounds", int, 200, _at_least(0)),
    ("distill.local_steps", int, 50, _at_least(0)),
    ("distill.syn_steps", int, 1, _at_least(0)),
    ("distill.syn_lr", float, 0.1, _at_least(0)),
    ("distill.model_lr", float, 0.01, _at_least(0)),
    ("distill.real_batch_per_class", int, 256, _at_least(1)),
    ("distill.scale_s", float, 100.0, lambda v: None if v > 0 else f"must be > 0, got {v}"),
    ("distill.fine_tune_steps", int, 0, _at_least(0)),
    ("unlearn.requests", list[str], [], None),            # parsed by problems()
    ("unlearn.unlearn_rounds", int, 1, _at_least(0)),
    ("unlearn.recovery_rounds", int, 2, _at_least(0)),
    ("unlearn.sga_lr", float, 0.01, None),
    ("unlearn.recovery_lr", float, 0.01, None),
    ("unlearn.mix_per_class", int, 10, _at_least(0)),
    ("unlearn.relearn_rounds", int, 2, _at_least(0)),
    ("unlearn.pass_batch_size", int, 32, _at_least(1)),
    ("baselines.retrain", bool, False, None),
    ("baselines.sga_original", bool, False, None),
    ("baselines.sga_unlearn_rounds", int, 2, _at_least(0)),
    ("baselines.sga_recovery_rounds", int, 2, _at_least(0)),
    ("mia.enabled", bool, False, None),
    ("mia.max_pool", int, 256, _at_least(8)),
)
SECTIONS = ("dataset", "arch", "distill", "unlearn", "baselines", "mia")
_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean",
          float | str: 'number or "inf"', list[int]: "list of integers",
          list[str]: "list of strings"}


def _typed(value, kind) -> bool:
    """Whether a JSON value has the row's type: a bool is not an int, an int
    is a finite float, and list elements are typed too."""
    if typing.get_origin(kind) is list:
        return type(value) is list and all(_typed(v, typing.get_args(kind)[0]) for v in value)
    if isinstance(kind, types.UnionType):
        return any(_typed(value, k) for k in typing.get_args(kind))
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def _walk(raw) -> tuple[dict, list[str]]:
    """The value of every FIELDS row by path, defaults filled in, and every
    problem found on the way."""
    if not isinstance(raw, dict):
        return {}, [f"(top level): expected an object, got {_show(raw)}"]
    sections = {name: raw.get(name, {}) for name in SECTIONS}
    errs = [f"{name}: expected an object, got {_show(section)}"
            for name, section in sections.items() if not isinstance(section, dict)]
    scopes = {"": raw, **{n: s for n, s in sections.items() if isinstance(s, dict)}}
    known = {row[0] for row in FIELDS} | set(SECTIONS)
    for head, scope in scopes.items():
        for key in scope:
            path = f"{head}.{key}" if head else key
            if "." in key or path not in known:
                errs.append(f"{path}: unknown key")
    values = {}
    for path, kind, default, check in FIELDS:
        head, _, key = path.rpartition(".")
        if key not in scopes.get(head, {}):
            if default is ...:
                errs.append(f"{path}: required")
            values[path] = copy.copy(default)
            continue
        value = scopes[head][key]
        if not _typed(value, kind):
            errs.append(f"{path}: expected {_NAMES[kind]}, got {_show(value)}")
            continue
        values[path] = float(value) if kind is float else value
        if check and (problem := check(values[path])):
            errs.append(f"{path}: {problem}")
    return values, errs


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


class ExperimentConfig(types.SimpleNamespace):
    """A read config: the top-level keys (`alpha` is math.inf for "inf"), each
    section as a namespace of its keys, `arch` as an ArchSpec and `distill` as
    a DistillConfig; the distill keys `enabled`, `scale_s` and
    `fine_tune_steps` sit here as `distill_enabled`, `scale_s`, `fine_tune_steps`."""

    def actions(self) -> list[RequestAction]:
        return [a for a in map(parse_request_line, self.unlearn.requests) if a is not None]

    def problems(self) -> list[str]:
        """The checks that span fields; the table checked each field on its own."""
        errs = self.arch.problems()
        if self.dataset.kind == "blobs" and self.arch.class_count < self.dataset.classes:
            errs.append(f"arch.class_count: {self.arch.class_count} is below "
                        f"dataset.classes {self.dataset.classes}")
        if self.dataset.kind == "idx":
            for name in ("train_labels", "test_labels"):
                path = getattr(self.dataset, name)
                top = int(idx_labels(path).max(initial=0))
                if self.arch.class_count <= top:
                    errs.append(f"arch.class_count: {self.arch.class_count} is at or below "
                                f"label {top} in dataset.{name} ({path})")
        limits = {"class": self.arch.class_count, "client": self.clients}
        for i, line in enumerate(self.unlearn.requests):
            try:
                action = parse_request_line(line)
            except ShapeError as e:
                errs.append(f"unlearn.requests[{i}]: {e}")
                continue
            for t in action.targets if action else ():
                (kind, target), = t.items()
                if not 0 <= target < limits[kind]:
                    errs.append(f"unlearn.requests[{i}]: {kind} {target} is out of range "
                                f"[0, {limits[kind]})")
        return errs

    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64


def config_from_dict(raw) -> ExperimentConfig:
    v, errs = _walk(raw)
    if not errs and v["dataset.kind"] == "idx":
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            path = v[f"dataset.{name}"]
            if not os.path.isfile(path):
                errs.append(f"dataset.{name}: " + (f"file not found: {path}" if path
                                                   else "required for idx datasets"))
    if errs:
        raise ConfigError(errs)

    def section(name: str) -> dict:
        return {path[len(name) + 1:]: value for path, value in v.items()
                if path.startswith(name + ".")}

    ds = types.SimpleNamespace(**dict(section("dataset"), dim=tuple(v["dataset.dim"])))
    arch = section("arch")
    if arch["input_shape"] is None:
        arch["input_shape"] = ds.dim if ds.kind == "blobs" else \
            (1, *idx_image_size(ds.train_images))
    if arch["class_count"] is None:
        arch["class_count"] = ds.classes if ds.kind == "blobs" else 10
    distill = DistillConfig(
        outer_steps=v["distill.rounds"], inner_steps=v["distill.local_steps"],
        syn_steps=v["distill.syn_steps"], syn_lr=v["distill.syn_lr"],
        model_lr=v["distill.model_lr"],
        real_batch_per_class=v["distill.real_batch_per_class"], seed=v["seed"])
    return ExperimentConfig(
        **{key: v[key] for key in ("seed", "clients", "participation", "partition_per_class",
                                   "precision")},
        output_dir=os.environ.get("FEDDISTILL_OUTPUT_DIR") or v["output_dir"],
        alpha=math.inf if v["alpha"] in ("inf", "Inf") else float(v["alpha"]),
        dataset=ds, arch=ArchSpec(**arch), distill=distill,
        distill_enabled=v["distill.enabled"], scale_s=v["distill.scale_s"],
        fine_tune_steps=v["distill.fine_tune_steps"],
        **{name: types.SimpleNamespace(**section(name)) for name in ("unlearn", "baselines",
                                                                     "mia")})


def read_text(path) -> str:
    """A UTF-8 text file; undecodable bytes are a ConfigError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError([f"{path}: not UTF-8 text (byte {e.start})"]) from None


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(read_text(path))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError([f"config is not valid JSON: {e}"])
    return config_from_dict(raw)


def validate_config(path) -> list[str]:
    """Structural and semantic checks; returns problems instead of raising."""
    try:
        return load_config(path).problems()
    except ConfigError as e:
        return e.problems

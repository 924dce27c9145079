"""Experiment configuration: a JSON file drives the whole pipeline.

Validation returns a list of problems (one per offending field path) instead
of raising, so the CLI can print them all at once.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .distill import DistillConfig
from .errors import ConfigError
from .models import ArchSpec
from .unlearn import RequestAction, parse_request_line


@dataclass
class DatasetSection:
    kind: str                                   # "blobs" | "idx"
    classes: int = 2
    train_per_class: int = 500
    test_per_class: int = 100
    dim: tuple[int, int, int] = (1, 8, 8)
    separation: float = 10.0
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    subset_per_class: int = 0                   # idx only; 0 keeps everything


@dataclass
class UnlearnSection:
    requests: list[str] = field(default_factory=list)
    unlearn_rounds: int = 1
    recovery_rounds: int = 2
    sga_lr: float = 0.01
    recovery_lr: float = 0.01
    mix_per_class: int = 10
    relearn_rounds: int = 2
    pass_batch_size: int = 32


@dataclass
class BaselineSection:
    retrain: bool = False
    sga_original: bool = False
    sga_unlearn_rounds: int = 2
    sga_recovery_rounds: int = 2


@dataclass
class MIASection:
    enabled: bool = False
    max_pool: int = 256


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: str
    dataset: DatasetSection
    clients: int
    alpha: float                                 # math.inf for the IID split
    arch: ArchSpec
    distill: DistillConfig
    distill_enabled: bool = True
    scale_s: float = 100.0
    fine_tune_steps: int = 0
    participation: float = 1.0
    partition_per_class: bool = True
    precision: str = "float32"
    unlearn: UnlearnSection = field(default_factory=UnlearnSection)
    baselines: BaselineSection = field(default_factory=BaselineSection)
    mia: MIASection = field(default_factory=MIASection)

    def actions(self) -> list[RequestAction]:
        out = []
        for line in self.unlearn.requests:
            action = parse_request_line(line)
            if action is not None:
                out.append(action)
        return out

    def problems(self) -> list[str]:
        errs: list[str] = []
        ds = self.dataset
        if ds.kind not in ("blobs", "idx"):
            errs.append(f"dataset.kind: unknown kind {ds.kind!r}")
        elif ds.kind == "blobs":
            if ds.classes < 2:
                errs.append("dataset.classes: need at least 2")
            if ds.train_per_class < 1 or ds.test_per_class < 1:
                errs.append("dataset.train_per_class/test_per_class: must be >= 1")
            if ds.separation < 0:
                errs.append("dataset.separation: must be >= 0")
        else:
            for name in ("train_images", "train_labels", "test_images", "test_labels"):
                path = getattr(ds, name)
                if not path:
                    errs.append(f"dataset.{name}: required for idx datasets")
                elif not os.path.exists(path):
                    errs.append(f"dataset.{name}: file not found: {path}")
        if self.clients < 1:
            errs.append("clients: must be >= 1")
        if self.alpha != math.inf and self.alpha <= 0:
            errs.append(f"alpha: must be positive or \"inf\", got {self.alpha}")
        if not 0 < self.participation <= 1:
            errs.append(f"participation: must be in (0, 1], got {self.participation}")
        if self.scale_s <= 0:
            errs.append(f"scale_s: must be > 0, got {self.scale_s}")
        if self.fine_tune_steps < 0:
            errs.append("fine_tune_steps: must be >= 0")
        if self.precision not in ("float32", "float64"):
            errs.append(f"precision: expected float32|float64, got {self.precision!r}")
        errs.extend(self.arch.problems())
        errs.extend(self.distill.problems())
        limits = {"class": self.arch.class_count, "client": self.clients}
        for i, line in enumerate(self.unlearn.requests):
            try:
                action = parse_request_line(line)
            except Exception as e:
                errs.append(f"unlearn.requests[{i}]: {e}")
                continue
            for t in action.targets if action else ():
                (kind, target), = t.items()
                if not 0 <= target < limits[kind]:
                    errs.append(f"unlearn.requests[{i}]: {kind} {target} is out of range "
                                f"[0, {limits[kind]})")
        if self.unlearn.unlearn_rounds < 0 or self.unlearn.recovery_rounds < 0 \
                or self.unlearn.relearn_rounds < 0:
            errs.append("unlearn: round counts must be >= 0")
        if self.unlearn.mix_per_class < 0:
            errs.append("unlearn.mix_per_class: must be >= 0")
        if self.unlearn.pass_batch_size < 1:
            errs.append("unlearn.pass_batch_size: must be >= 1")
        if self.mia.max_pool < 8:
            errs.append("mia.max_pool: must be >= 8")
        return errs

    def dtype(self):
        import numpy as np

        return np.float32 if self.precision == "float32" else np.float64


def _dataset_from(d: dict) -> DatasetSection:
    return DatasetSection(
        kind=d.get("kind", "blobs"),
        classes=int(d.get("classes", 2)),
        train_per_class=int(d.get("train_per_class", 500)),
        test_per_class=int(d.get("test_per_class", 100)),
        dim=tuple(d.get("dim", (1, 8, 8))),
        separation=float(d.get("separation", 10.0)),
        train_images=d.get("train_images", ""),
        train_labels=d.get("train_labels", ""),
        test_images=d.get("test_images", ""),
        test_labels=d.get("test_labels", ""),
        subset_per_class=int(d.get("subset_per_class", 0)),
    )


def _input_shape_of(ds: DatasetSection) -> tuple[int, int, int]:
    if ds.kind == "blobs":
        return tuple(ds.dim)
    return (1, 28, 28)  # idx images declare their own size; 28x28 is the usual


def config_from_dict(raw: dict) -> ExperimentConfig:
    if "seed" not in raw:
        raise ConfigError(["seed: required (runs must not seed from the clock)"])
    ds = _dataset_from(raw.get("dataset", {}))
    arch_raw = dict(raw.get("arch", {"kind": "mlp"}))
    arch_raw.setdefault("input_shape", _input_shape_of(ds))
    arch_raw.setdefault("class_count", ds.classes if ds.kind == "blobs" else 10)
    arch = ArchSpec.from_dict(arch_raw)
    dist_raw = raw.get("distill", {})
    distill = DistillConfig(
        outer_steps=int(dist_raw.get("rounds", 200)),
        inner_steps=int(dist_raw.get("local_steps", 50)),
        syn_steps=int(dist_raw.get("syn_steps", 1)),
        syn_lr=float(dist_raw.get("syn_lr", 0.1)),
        model_lr=float(dist_raw.get("model_lr", 0.01)),
        real_batch_per_class=int(dist_raw.get("real_batch_per_class", 256)),
        seed=int(raw["seed"]),
    )
    un_raw = raw.get("unlearn", {})
    unlearn = UnlearnSection(
        requests=list(un_raw.get("requests", [])),
        unlearn_rounds=int(un_raw.get("unlearn_rounds", 1)),
        recovery_rounds=int(un_raw.get("recovery_rounds", 2)),
        sga_lr=float(un_raw.get("sga_lr", 0.01)),
        recovery_lr=float(un_raw.get("recovery_lr", 0.01)),
        mix_per_class=int(un_raw.get("mix_per_class", 10)),
        relearn_rounds=int(un_raw.get("relearn_rounds", 2)),
        pass_batch_size=int(un_raw.get("pass_batch_size", 32)),
    )
    base_raw = raw.get("baselines", {})
    baselines = BaselineSection(
        retrain=bool(base_raw.get("retrain", False)),
        sga_original=bool(base_raw.get("sga_original", False)),
        sga_unlearn_rounds=int(base_raw.get("sga_unlearn_rounds", 2)),
        sga_recovery_rounds=int(base_raw.get("sga_recovery_rounds", 2)),
    )
    mia_raw = raw.get("mia", {})
    mia = MIASection(enabled=bool(mia_raw.get("enabled", False)),
                     max_pool=int(mia_raw.get("max_pool", 256)))
    alpha_raw = raw.get("alpha", "inf")
    alpha = math.inf if alpha_raw in ("inf", "Inf", None) else float(alpha_raw)
    output_dir = os.environ.get("FEDDISTILL_OUTPUT_DIR") or raw.get("output_dir", "out")
    return ExperimentConfig(
        seed=int(raw["seed"]),
        output_dir=str(output_dir),
        dataset=ds,
        clients=int(raw.get("clients", 4)),
        alpha=alpha,
        arch=arch,
        distill=distill,
        distill_enabled=bool(dist_raw.get("enabled", True)),
        scale_s=float(dist_raw.get("scale_s", 100.0)),
        fine_tune_steps=int(dist_raw.get("fine_tune_steps", 0)),
        participation=float(raw.get("participation", 1.0)),
        partition_per_class=bool(raw.get("partition_per_class", True)),
        precision=str(raw.get("precision", "float32")),
        unlearn=unlearn,
        baselines=baselines,
        mia=mia,
    )


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as e:
        raise ConfigError([f"config is not valid JSON: {e}"])
    return config_from_dict(raw)


def validate_config(path) -> list[str]:
    """Structural and semantic checks; returns problems instead of raising."""
    try:
        cfg = load_config(path)
    except ConfigError as e:
        return e.problems
    return cfg.problems()

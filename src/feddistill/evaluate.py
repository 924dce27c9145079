"""Accuracy and forgetting metrics, a loss-threshold membership-inference
attack, cost meters, and the retrain / original-data-ascent baselines the
acceptance suite compares against."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write
from .data import LabeledDataset
from .distill import DistillConfig
from .errors import ShapeError
from .federation import ClientState, GlobalModel, RoundRecord, train_federated
from .models import ArchSpec, _chunked_logits, predict
from .seeds import make_rng
from .tensor import ParamSet, Tensor
from .unlearn import ForgetPartition, StageCost, UnlearnEngine, _split_buckets


@dataclass
class StageRecord:
    """One pipeline stage's metrics; accuracies derive from stored counts."""
    stage: str
    rounds: int = 0
    samples: int = 0
    wall_ms: float = 0.0
    per_class_correct: list[int] = field(default_factory=list)
    per_class_total: list[int] = field(default_factory=list)
    forget_classes: list[int] = field(default_factory=list)
    mia_forget_rate: float | None = None

    def _acc_over(self, classes) -> float | None:
        idx = [c for c in classes if c < len(self.per_class_total)]
        total = sum(self.per_class_total[c] for c in idx)
        if total == 0:
            return None
        return sum(self.per_class_correct[c] for c in idx) / total

    def f_set_accuracy(self) -> float | None:
        return self._acc_over(self.forget_classes)

    def r_set_accuracy(self) -> float | None:
        rest = [c for c in range(len(self.per_class_total)) if c not in set(self.forget_classes)]
        return self._acc_over(rest)

    def overall_accuracy(self) -> float | None:
        return self._acc_over(range(len(self.per_class_total)))

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "rounds": self.rounds,
            "samples": self.samples,
            "forget_classes": list(self.forget_classes),
            "per_class_correct": list(self.per_class_correct),
            "per_class_total": list(self.per_class_total),
            "f_set_accuracy": self.f_set_accuracy(),
            "r_set_accuracy": self.r_set_accuracy(),
            "overall_accuracy": self.overall_accuracy(),
            "mia_forget_rate": self.mia_forget_rate,
        }


@dataclass
class ExperimentReport:
    method: str
    seed: int
    stages: list[StageRecord] = field(default_factory=list)
    schema_version: int = 1

    def to_dict(self) -> dict:
        # wall times are deliberately absent: the JSON report must be
        # byte-identical across runs of the same config+seed
        return {
            "schema_version": self.schema_version,
            "method": self.method,
            "seed": self.seed,
            "stages": [s.to_dict() for s in self.stages],
        }

    def write_json(self, path) -> None:
        import json

        with atomic_write(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    def write_csv(self, path) -> None:
        import csv

        def fmt(v):
            return "" if v is None else f"{v:.6f}"

        with atomic_write(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["method", "seed", "stage", "rounds", "samples", "wall_ms",
                             "f_set_accuracy", "r_set_accuracy", "overall_accuracy",
                             "mia_forget_rate"])
            for s in self.stages:
                writer.writerow([self.method, self.seed, s.stage, s.rounds, s.samples,
                                 f"{s.wall_ms:.3f}", fmt(s.f_set_accuracy()),
                                 fmt(s.r_set_accuracy()), fmt(s.overall_accuracy()),
                                 fmt(s.mia_forget_rate)])


@dataclass
class MIAConfig:
    split_seed: int = 0


def accuracy_report(params: ParamSet, spec: ArchSpec, test_set: LabeledDataset,
                    forget_classes) -> StageRecord:
    """Per-class Top-1 counts plus the induced forget/remain split."""
    preds = predict(params, spec, test_set.samples)
    correct = [0] * test_set.class_count
    total = [0] * test_set.class_count
    for c in range(test_set.class_count):
        mask = test_set.labels == c
        total[c] = int(mask.sum())
        correct[c] = int((preds[mask] == c).sum())
    return StageRecord(stage="", per_class_correct=correct, per_class_total=total,
                       forget_classes=sorted(int(c) for c in forget_classes))


def per_sample_losses(params: ParamSet, spec: ArchSpec, samples: np.ndarray,
                      labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample under the model, no graph kept."""
    logits = _chunked_logits(params, spec, samples).astype(np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(samples.shape[0]), labels]


@dataclass
class MIAResult:
    forget_member_rate: float
    fit_balanced_accuracy: float
    eval_balanced_accuracy: float
    threshold: float


def _balanced_accuracy(member_losses, nonmember_losses, threshold) -> float:
    tpr = float((member_losses <= threshold).mean())
    tnr = float((nonmember_losses > threshold).mean())
    return 0.5 * (tpr + tnr)


def _fit_threshold(mem_fit: np.ndarray, non_fit: np.ndarray) -> tuple[float, float]:
    """The loss threshold with the best balanced accuracy on the fit halves,
    and that accuracy.  Candidates are the midpoints of the sorted pooled
    losses plus one beyond each end; ties resolve toward the median loss.

    One sorted sweep scores every candidate: `searchsorted` over each sorted
    half counts the losses at or below it.  A count over the pool size is
    bitwise the mean of the boolean comparison, and a NaN loss or candidate
    compares false, as it does there."""
    pooled = np.sort(np.concatenate([mem_fit, non_fit]))
    mids = 0.5 * (pooled[1:] + pooled[:-1])
    candidates = np.concatenate([[pooled[0] - 1e-9], mids, [pooled[-1] + 1e-9]])
    real = ~np.isnan(candidates)
    mem, non = (np.sort(v[~np.isnan(v)]) for v in (mem_fit, non_fit))
    at_or_below = np.where(real, np.searchsorted(mem, candidates, side="right"), 0)
    above = np.where(real, len(non) - np.searchsorted(non, candidates, side="right"), 0)
    scores = 0.5 * (at_or_below / len(mem_fit) + above / len(non_fit))
    best = scores.max()
    tied = candidates[scores == best]
    median = float(np.median(pooled))
    return float(tied[np.argmin(np.abs(tied - median))]), float(best)


def mia_attack(params: ParamSet, spec: ArchSpec, member_pool: LabeledDataset,
               nonmember_pool: LabeledDataset, forget_pool: LabeledDataset,
               cfg: MIAConfig) -> MIAResult:
    """Loss-threshold attack: fit the threshold that best separates member from
    non-member losses on held-out halves, then report how often the forget
    pool is still classified as "member".

    Threshold ties (flat balanced accuracy) resolve toward the median loss,
    which keeps the reported rate near 50% when the pools are
    indistinguishable.
    """
    if min(len(member_pool), len(nonmember_pool)) < 4 or len(forget_pool) == 0:
        raise ShapeError("degenerate MIA pools; need >= 4 member/non-member and >= 1 forget")
    mem = per_sample_losses(params, spec, member_pool.samples, member_pool.labels)
    non = per_sample_losses(params, spec, nonmember_pool.samples, nonmember_pool.labels)
    fgt = per_sample_losses(params, spec, forget_pool.samples, forget_pool.labels)

    rng = make_rng(cfg.split_seed, "mia-split")
    mem = mem[rng.permutation(len(mem))]
    non = non[rng.permutation(len(non))]
    mem_fit, mem_eval = np.array_split(mem, 2)
    non_fit, non_eval = np.array_split(non, 2)

    threshold, best = _fit_threshold(mem_fit, non_fit)
    return MIAResult(
        forget_member_rate=float((fgt <= threshold).mean()),
        fit_balanced_accuracy=float(best),
        eval_balanced_accuracy=_balanced_accuracy(mem_eval, non_eval, threshold),
        threshold=threshold,
    )


# ---- training helpers and baselines ------------------------------------------


def filtered_clients(clients: list[ClientState], forget_classes: set[int],
                     forget_clients: set[int], master_seed: int) -> list[ClientState]:
    """Client states over the original data minus the forget set, with the
    same per-id RNG stream labels as a fresh training run."""
    from .data import ClassBatchSampler

    out = []
    for client in clients:
        if client.cid in forget_clients:
            continue
        data = client.data.without_classes(forget_classes)
        if len(data) == 0:
            continue
        sampler = ClassBatchSampler(data, make_rng(master_seed, "client", client.cid, "batches"))
        out.append(ClientState(cid=client.cid, data=data, sampler=sampler, syn=None))
    return out


def retrain_baseline(clients: list[ClientState], forget_classes: set[int],
                     forget_clients: set[int], spec: ArchSpec, cfg: DistillConfig,
                     master_seed: int, participation: float = 1.0,
                     dtype=np.float32) -> tuple[GlobalModel, list[RoundRecord], StageCost]:
    """Retrain from scratch on everything outside the forget set (no recovery
    stage); with an empty forget set this is exactly a plain training run."""
    remaining = filtered_clients(clients, forget_classes, forget_clients, master_seed)
    if not remaining:
        raise ShapeError("forget set leaves no training data to retrain on")
    start = time.monotonic()
    model, _, records = train_federated(remaining, spec, cfg, master_seed=master_seed,
                                        participation=participation, distill_enabled=False,
                                        dtype=dtype)
    cost = StageCost("unlearn", rounds=len(records),
                     samples=sum(r.samples for r in records),
                     wall_ms=(time.monotonic() - start) * 1e3)
    return model, records, cost


def original_data_partition(clients: list[ClientState], forget_classes: set[int],
                            forget_clients: set[int], dtype=np.float32) -> ForgetPartition:
    """Forget/keep split over the clients' original samples (not distilled),
    shaped like the distilled partition so the same round machinery applies."""
    buckets = {}
    for client in clients:
        if len(client.data):
            data = client.data
            buckets[client.cid] = {
                c: Tensor(data.samples[data.labels == c].astype(np.dtype(dtype), copy=False),
                          requires_grad=True)
                for c in client.held_classes()}
    return _split_buckets(buckets, forget_classes, forget_clients, forget_classes)


def sga_or_baseline(model: GlobalModel, clients: list[ClientState],
                    forget_classes: set[int], forget_clients: set[int],
                    master_seed: int, unlearn_rounds: int = 2, recovery_rounds: int = 2,
                    sga_lr: float = 0.01, recovery_lr: float = 0.01,
                    dtype=np.float32, pass_batch_size: int = 32, stage_callback=None
                    ) -> tuple[GlobalModel, list[StageCost]]:
    """Same ascent/recovery stages as the distilled path (`UnlearnEngine.run_stages`,
    which calls `stage_callback` after each stage), but every round passes
    over the clients' original data."""
    engine = UnlearnEngine(clients, model.spec, master_seed, dtype=dtype,
                           pass_batch_size=pass_batch_size)
    partition = original_data_partition(clients, forget_classes, forget_clients, dtype=dtype)
    if partition.forget_total() == 0:
        raise ShapeError("forget set is empty")
    return engine.run_stages(model, partition, unlearn_rounds, recovery_rounds, sga_lr,
                             recovery_lr, stage_callback=stage_callback)

"""Federated training loop: local SGD on real data with in-situ gradient reuse
for distillation, sized-weighted aggregation, and partial participation.

Every inner step computes one per-class gradient set on real minibatches.
That same gradient serves twice: as the matching target for the client's
synthetic data, and (averaged over classes, weighted by batch size) as the
local model update.  Matching therefore never perturbs the model trajectory;
disabling it leaves the parameter sequence bitwise unchanged.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .data import ClassBatchSampler, LabeledDataset
from .distill import DistillConfig, SyntheticDataset, class_gradient, init_synthetic, match_step, sgd_step
from .errors import NumericError, ShapeError
from .models import ArchSpec, InitDistribution, init_params
from .seeds import derive_seed, make_rng
from .tensor import ParamSet, Tensor


@dataclass
class ClientState:
    cid: int
    data: LabeledDataset
    sampler: ClassBatchSampler
    syn: SyntheticDataset | None = None
    reuse_count: int = 0

    def held_classes(self) -> list[int]:
        return self.sampler.classes()


@dataclass
class RoundRecord:
    round: int
    client_ids: list[int]
    local_steps: list[int]
    weights: list[float]
    wall_ms: float
    samples: int

    def weights_digest(self) -> str:
        blob = np.asarray(self.weights, dtype=np.float64).tobytes()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class GlobalModel:
    params: ParamSet
    spec: ArchSpec
    round: int = 0


def build_clients(datasets: list[LabeledDataset], master_seed: int, scale_s: float,
                  distill_enabled: bool = True, dtype=np.float32) -> list[ClientState]:
    """One ClientState per dataset; RNG streams and synthetic sets derive from
    (master seed, client id) so client order never matters."""
    clients = []
    for cid, data in enumerate(datasets):
        sampler = ClassBatchSampler(data, make_rng(master_seed, "client", cid, "batches"))
        syn = None
        if distill_enabled and len(data):
            syn = init_synthetic(data, scale_s, derive_seed(master_seed, "client", cid, "syn"),
                                 dtype=dtype)
        clients.append(ClientState(cid=cid, data=data, sampler=sampler, syn=syn))
    return clients


def local_round(client: ClientState, global_params: ParamSet, spec: ArchSpec,
                cfg: DistillConfig, distill_enabled: bool = True,
                dtype=np.float32) -> tuple[ParamSet, int, int]:
    """Run the client's local steps from the given global parameters.

    Returns (local params, steps executed, real samples touched).  The local
    model step always uses the real-data gradient; when distillation is on,
    the same per-class gradients also drive one matching update of the
    client's synthetic buckets.
    """
    if len(client.data) == 0:
        raise ShapeError(f"client {client.cid} has no samples")
    params = global_params.clone()
    samples_touched = 0
    for _ in range(cfg.inner_steps):
        batches: dict[int, Tensor] = {}
        grads: dict[int, ParamSet] = {}
        sizes: dict[int, int] = {}
        for c in client.sampler.classes():
            idx = client.sampler.next_batch(c, cfg.real_batch_per_class)
            batch = Tensor(client.data.samples[idx], dtype=dtype)
            batches[c] = batch
            sizes[c] = batch.shape[0]
            grads[c] = class_gradient(params, spec, batch, c)
            samples_touched += batch.shape[0]
        if distill_enabled and client.syn is not None:
            match_step(params, spec, batches, client.syn, cfg, real_grads=grads)
            client.reuse_count += 1
        total = sum(sizes.values())
        combined = [Tensor(sum(sizes[c] * a for c, a in zip(grads, column)) / total)
                    for column in zip(*[g.arrays() for g in grads.values()])]
        sgd_step(params, params.like(combined), cfg.model_lr)
    return params, cfg.inner_steps, samples_touched


def aggregate(models: list[ParamSet], weights: list[float]) -> ParamSet:
    """Weighted parameter average; weights must be >= 0 and sum to 1."""
    if not models:
        raise ShapeError("nothing to aggregate")
    if len(models) != len(weights):
        raise ShapeError("one weight per model required")
    if any(w < 0 for w in weights):
        raise ShapeError("aggregation weights must be non-negative")
    if abs(sum(weights) - 1.0) > 1e-6:
        raise ShapeError(f"aggregation weights sum to {sum(weights)!r}, expected 1")
    first = models[0]
    for m in models[1:]:
        first.congruent_with(m)
    out = []
    for column in zip(*[m.arrays() for m in models]):
        scale = column[0].dtype.type
        acc = np.zeros_like(column[0])
        for a, w in zip(column, weights):
            acc = acc + scale(w) * a
        out.append(Tensor(acc, requires_grad=True))
    return first.like(out)


def sample_clients(n_clients: int, fraction: float, seed: int, round_k: int) -> list[int]:
    """Uniform subset without replacement, size max(1, round(fraction*N)),
    deterministic per (seed, round)."""
    if not 0 < fraction <= 1:
        raise ValueError("participation fraction must be in (0, 1]")
    count = max(1, int(round(fraction * n_clients)))
    if count >= n_clients:
        return list(range(n_clients))
    rng = make_rng(seed, "participation", round_k)
    chosen = rng.choice(n_clients, size=count, replace=False)
    return sorted(int(c) for c in chosen)


def train_federated(clients: list[ClientState], spec: ArchSpec, cfg: DistillConfig,
                    master_seed: int, participation: float = 1.0,
                    distill_enabled: bool = True, dtype=np.float32
                    ) -> tuple[GlobalModel, dict[int, SyntheticDataset], list[RoundRecord]]:
    """Full federated run: rounds of sample -> local_round -> aggregate.

    Returns the final model, each client's synthetic set, and per-round
    records.  Reproducible bitwise from (clients, cfg, master_seed).
    """
    if not clients:
        raise ShapeError("need at least one client")
    params = init_params(spec, InitDistribution(seed=derive_seed(master_seed, "global-init")),
                         dtype=dtype)
    records: list[RoundRecord] = []
    for k in range(cfg.outer_steps):
        chosen = sample_clients(len(clients), participation, master_seed, k)
        start = time.monotonic()
        locals_: list[ParamSet] = []
        steps: list[int] = []
        samples = 0
        sizes = [len(clients[i].data) for i in chosen]
        for i in chosen:
            try:
                local, n_steps, touched = local_round(
                    clients[i], params, spec, cfg, distill_enabled=distill_enabled, dtype=dtype)
            except NumericError as e:
                raise NumericError(f"round {k}, client {clients[i].cid}: {e}") from e
            locals_.append(local)
            steps.append(n_steps)
            samples += touched
        total = sum(sizes)
        weights = [s / total for s in sizes]
        params = aggregate(locals_, weights)
        records.append(RoundRecord(
            round=k, client_ids=list(chosen), local_steps=steps, weights=weights,
            wall_ms=(time.monotonic() - start) * 1e3, samples=samples))
    model = GlobalModel(params=params, spec=spec, round=cfg.outer_steps)
    syn_sets = {c.cid: c.syn for c in clients if c.syn is not None}
    return model, syn_sets, records


def write_round_csv(path, records: list[RoundRecord]) -> None:
    import csv

    with atomic_write(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "client_ids", "wall_ms", "samples", "weights_digest"])
        for r in records:
            writer.writerow([r.round, " ".join(map(str, r.client_ids)),
                             f"{r.wall_ms:.3f}", r.samples, r.weights_digest()])

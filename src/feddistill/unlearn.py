"""Unlearning on distilled data: gradient-ascent rounds on the forget buckets,
recovery rounds on the remaining buckets mixed with a few original samples,
sequential and batched requests, and relearning from retained buckets.

One "round" is one full pass over the relevant distilled set per involved
client (minibatch steps of `pass_batch_size` rows), followed by size-
weighted aggregation.  The passes of clients whose sets share a shape run
stacked, one loss-gradient replay per minibatch for the whole group.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .federation import ClientState, GlobalModel, aggregate
from .models import ArchSpec, _stack_groups
from .seeds import make_rng
from .tensor import ParamSet, Tensor, by_member

from .distill import _taped_loss_gradient

log = logging.getLogger(__name__)


@dataclass
class UnlearningRequest:
    targets: list[dict]                  # each {"class": id} or {"client": id}
    unlearn_rounds: int = 1
    recovery_rounds: int = 2
    sga_lr: float = 0.01
    recovery_lr: float = 0.01
    mix_per_class: int = 10

    def problems(self, prefix: str = "request") -> list[str]:
        errs = []
        if not self.targets:
            errs.append(f"{prefix}.targets: must not be empty")
        for i, t in enumerate(self.targets):
            if not isinstance(t, dict) or len(t) != 1:
                errs.append(f"{prefix}.targets[{i}]: expected one of class=<id> / client=<id>")
            elif "sample" in t:
                errs.append(f"{prefix}.targets[{i}]: sample-level unlearning is not supported")
            elif not ("class" in t or "client" in t):
                errs.append(f"{prefix}.targets[{i}]: unknown target kind {list(t)[0]!r}")
        if self.unlearn_rounds < 0 or self.recovery_rounds < 0:
            errs.append(f"{prefix}: round counts must be >= 0")
        if self.mix_per_class < 0:
            errs.append(f"{prefix}.mix_per_class: must be >= 0")
        return errs


@dataclass
class RequestAction:
    kind: str            # "unlearn" | "batch" | "relearn"
    targets: list[dict]


def parse_request_line(line: str) -> RequestAction | None:
    """One action per line: `unlearn class=9`, `unlearn client=3`,
    `batch class=5,class=8`, `relearn class=9`.  Blank/comment lines skipped."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    parts = text.split(None, 1)
    if len(parts) != 2 or parts[0] not in ("unlearn", "batch", "relearn"):
        raise ShapeError(f"cannot parse request line {line.rstrip()!r}")
    kind, spec = parts
    targets = []
    for item in spec.split(","):
        item = item.strip()
        if "=" not in item:
            raise ShapeError(f"bad target {item!r} in request line {line.rstrip()!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("class", "client"):
            raise ShapeError(f"unknown target kind {key!r} in request line {line.rstrip()!r}")
        try:
            targets.append({key: int(value)})
        except ValueError:
            raise ShapeError(f"bad {key} id {value.strip()!r} in request line "
                             f"{line.rstrip()!r}") from None
    if kind == "unlearn" and len(targets) != 1:
        raise ShapeError("`unlearn` takes a single target; use `batch` for several")
    return RequestAction(kind=kind, targets=targets)


def parse_request_file(text: str) -> list[RequestAction]:
    actions = []
    for line in text.splitlines():
        action = parse_request_line(line)
        if action is not None:
            actions.append(action)
    return actions


@dataclass
class ClientSplit:
    forget: dict[int, Tensor]
    keep: dict[int, Tensor]
    mix_x: np.ndarray | None = None
    mix_y: np.ndarray | None = None

    def forget_count(self) -> int:
        return sum(t.shape[0] for t in self.forget.values())

    def keep_count(self) -> int:
        n = sum(t.shape[0] for t in self.keep.values())
        if self.mix_x is not None:
            n += self.mix_x.shape[0]
        return n


@dataclass
class ForgetPartition:
    splits: dict[int, ClientSplit]
    forget_classes: set[int]
    forget_clients: set[int]

    def forget_total(self) -> int:
        return sum(s.forget_count() for s in self.splits.values())

    def keep_total(self) -> int:
        return sum(s.keep_count() for s in self.splits.values())


@dataclass
class StageCost:
    stage: str
    rounds: int
    samples: int
    wall_ms: float


def _split_buckets(buckets_by_client: dict[int, dict[int, Tensor]], classes: set[int],
                   client_ids: set[int], excluded: set[int]) -> ForgetPartition:
    """The one forget/keep rule: a client in `client_ids` forgets every bucket;
    any other client forgets the buckets of `classes` and keeps those outside
    `excluded`."""
    splits = {}
    for cid, buckets in buckets_by_client.items():
        if cid in client_ids:
            splits[cid] = ClientSplit(forget=dict(buckets), keep={})
        else:
            splits[cid] = ClientSplit(forget={c: t for c, t in buckets.items() if c in classes},
                                      keep={c: t for c, t in buckets.items() if c not in excluded})
    return ForgetPartition(splits=splits, forget_classes=set(classes),
                           forget_clients=set(client_ids))


class UnlearnEngine:
    """Executes unlearning requests against a trained model and the clients'
    retained synthetic sets.  Remembers what has been forgotten so later
    recovery and relearning exclude / rejoin the right buckets."""

    def __init__(self, clients: list[ClientState], spec: ArchSpec, master_seed: int,
                 dtype=np.float32, pass_batch_size: int = 32):
        self.clients = {c.cid: c for c in clients}
        self.spec = spec
        self.master_seed = master_seed
        self.dtype = np.dtype(dtype)
        self.pass_batch_size = int(pass_batch_size)
        self.forgotten_classes: set[int] = set()
        self.forgotten_clients: set[int] = set()
        self.warnings = 0
        self._request_index = 0

    # ---- target resolution ------------------------------------------------

    def _classes_with_data(self) -> set[int]:
        held = set()
        for client in self.clients.values():
            held.update(client.held_classes())
        return held

    def resolve_targets(self, targets: list[dict]) -> tuple[set[int], set[int]]:
        classes, client_ids = set(), set()
        held = self._classes_with_data()
        for t in targets:
            if "class" in t:
                c = int(t["class"])
                if c not in held:
                    raise ShapeError(f"no client holds data for class {c}")
                classes.add(c)
            elif "client" in t:
                j = int(t["client"])
                if j not in self.clients:
                    raise ShapeError(f"unknown client id {j}")
                if len(self.clients[j].data) == 0:
                    raise ShapeError(f"client {j} holds no data")
                client_ids.add(j)
            elif "sample" in t:
                raise ShapeError("sample-level unlearning is not supported; "
                                 "distilled buckets exist per class, not per sample")
            else:
                raise ShapeError(f"cannot resolve target {t!r}")
        return classes, client_ids

    def eval_forget_classes(self, targets: list[dict]) -> set[int]:
        """Classes whose test samples count as the forget set: explicit class
        targets plus every class held by a target client."""
        return self._with_held_classes(*self.resolve_targets(targets))

    def forgotten_eval_classes(self) -> set[int]:
        """The forget set that is in force now: the forgotten classes plus
        every class held by a client that is still forgotten."""
        return self._with_held_classes(self.forgotten_classes, self.forgotten_clients)

    def _with_held_classes(self, classes: set[int], client_ids: set[int]) -> set[int]:
        out = set(classes)
        for j in client_ids:
            out.update(self.clients[j].held_classes())
        return out

    # ---- partition ----------------------------------------------------------

    def build_forget_partition(self, classes: set[int], client_ids: set[int],
                               mix_per_class: int) -> ForgetPartition:
        """Split every client's synthetic set into forget and keep sides and
        draw the per-class original mix-ins for recovery."""
        buckets = {cid: client.syn.buckets for cid, client in sorted(self.clients.items())
                   if client.syn is not None and cid not in self.forgotten_clients}
        partition = _split_buckets(buckets, classes, client_ids, self.forgotten_classes | classes)
        for cid, split in partition.splits.items():
            if mix_per_class <= 0 or not split.keep:
                continue
            data = self.clients[cid].data
            rng = make_rng(self.master_seed, "mix", self._request_index, cid)
            xs, ys = [], []
            for c in sorted(split.keep):
                pool = np.nonzero(data.labels == c)[0]
                if len(pool) == 0:
                    continue
                take = min(mix_per_class, len(pool))
                chosen = rng.choice(pool, size=take, replace=False)
                chosen.sort()
                xs.append(data.samples[chosen])
                ys.append(np.full(take, c, dtype=np.int64))
            if xs:
                split.mix_x = np.concatenate(xs)
                split.mix_y = np.concatenate(ys)
        return partition

    # ---- rounds --------------------------------------------------------------

    def _batch_of(self, buckets: dict[int, Tensor], mix_x=None, mix_y=None):
        parts, labels = [], []
        for c in sorted(buckets):
            t = buckets[c]
            parts.append(t.data.astype(self.dtype, copy=False))
            labels.append(np.full(t.shape[0], c, dtype=np.int64))
        if mix_x is not None:
            parts.append(mix_x.astype(self.dtype, copy=False))
            labels.append(mix_y)
        return np.concatenate(parts), np.concatenate(labels)

    def _passes(self, params: ParamSet, sets: list[tuple], lr: float, direction: float,
                context: str) -> list[ParamSet]:
        """One pass from `params` over each of `sets`, pass sets of one shape:
        minibatch steps in a fixed order, each sample touched exactly once.
        The sets pass together, stacked on a leading axis, one loss-gradient
        replay per minibatch; each slice is bit for bit its own pass."""
        k = len(sets)
        xs, ys = [np.stack(a) for a in zip(*sets)] if k > 1 else sets[0]
        arrays, b = [t.data for t in params.tensors()], self.pass_batch_size
        for start in range(0, xs.shape[-4], b):
            batch = np.ascontiguousarray(xs[..., start:start + b, :, :, :])
            inputs = arrays + [batch, ys[..., start:start + b]]
            grads = _taped_loss_gradient(params, self.spec, inputs, context, k,
                                         shared=len(arrays) if start == 0 else 0)
            arrays = [p + p.dtype.type(direction * lr) * g for p, g in zip(arrays, grads)]
        return [params.with_data([a[i] for a in arrays]) for i in range(k)] if k > 1 \
            else [params.with_data(arrays)]

    def _round(self, params: ParamSet, sizes: dict[int, int], pass_set, lr: float,
               direction: float, name: str) -> ParamSet:
        """One pass per client of `sizes` (client -> set size) over its set
        `pass_set(cid)`, then aggregation weighted by set size, in client
        order.  Clients pass in groups (`_stack_groups`), each group's sets
        built just before its passes; a non-finite value names the first
        failing client."""
        shapes = {cid: ((n,) + self.spec.input_shape, self.dtype) for cid, n in sizes.items()}
        local: dict[int, ParamSet] = {}
        for group in _stack_groups(self.spec, shapes, self.pass_batch_size):
            local.update(zip(group, by_member(
                lambda cids: self._passes(params, [pass_set(c) for c in cids], lr, direction,
                                          f"{name} client {cids[0]}"), group)))
        total = sum(sizes.values())
        return aggregate([local[cid] for cid in sizes], [n / total for n in sizes.values()])

    def sga_round(self, params: ParamSet, partition: ForgetPartition, lr: float) -> ParamSet:
        """One ascent pass on each client's forget buckets, then aggregation
        weighted by forget-set size."""
        splits = partition.splits
        sizes = {cid: s.forget_count() for cid, s in sorted(splits.items()) if s.forget_count()}
        if not sizes:
            raise ShapeError("forget set is empty; nothing to unlearn")
        return self._round(params, sizes, lambda cid: self._batch_of(splits[cid].forget), lr,
                           +1.0, "unlearning")

    def recovery_round(self, params: ParamSet, partition: ForgetPartition, lr: float) -> ParamSet:
        """One descent pass on each client's keep buckets plus mix-ins, then
        aggregation weighted by that merged set's size."""
        splits = partition.splits
        sizes = {cid: s.keep_count() for cid, s in sorted(splits.items()) if s.keep_count()}
        if not sizes:
            raise ShapeError("recovery set is empty")
        return self._round(params, sizes, lambda cid: self._batch_of(
            splits[cid].keep, splits[cid].mix_x, splits[cid].mix_y), lr, -1.0, "recovery")

    # ---- request execution ------------------------------------------------------

    @staticmethod
    def _stage(stage: str, model: GlobalModel, partition: ForgetPartition, rounds: int,
               round_fn, lr: float, size: int) -> tuple[GlobalModel, StageCost]:
        """`rounds` rounds of `round_fn` over the partition; only they are timed."""
        params = model.params
        start = time.monotonic()
        for _ in range(rounds):
            params = round_fn(params, partition, lr)
        cost = StageCost(stage, rounds, rounds * size, (time.monotonic() - start) * 1e3)
        return GlobalModel(params=params, spec=model.spec, round=model.round), cost

    def run_stages(self, model: GlobalModel, partition: ForgetPartition, unlearn_rounds: int,
                   recovery_rounds: int, sga_lr: float, recovery_lr: float,
                   stage_callback=None) -> tuple[GlobalModel, list[StageCost]]:
        """U ascent rounds on the partition's forget side, then R recovery
        rounds on its keep side; recovery is skipped with a warning when the
        keep side is empty.  When given, `stage_callback(stage_name, model,
        cost)` runs after each stage with the intermediate model (evaluation
        hooks; must not mutate it)."""
        stages = (("unlearn", unlearn_rounds, self.sga_round, sga_lr, partition.forget_total()),
                  ("recover", recovery_rounds, self.recovery_round, recovery_lr,
                   partition.keep_total()))
        current, costs = model, []
        for stage, rounds, round_fn, lr, size in stages:
            if stage == "recover" and rounds and not size:
                log.warning("recovery set is empty after forgetting %s; skipping recovery",
                            sorted(partition.forget_classes | partition.forget_clients))
                self.warnings += 1
                rounds = 0
            current, cost = self._stage(stage, current, partition, rounds, round_fn, lr, size)
            costs.append(cost)
            if stage_callback is not None:
                stage_callback(stage, current, cost)
        return current, costs

    def execute_request(self, model: GlobalModel, request: UnlearningRequest,
                        stage_callback=None) -> tuple[GlobalModel, list[StageCost]]:
        """Forget the request's targets through `run_stages`.  A batch is one
        request over several targets: one unlearning and one recovery stage
        cover all of them.

        Targets that were already forgotten are dropped with a warning; a
        request whose targets were all forgotten is a no-op.
        """
        errs = request.problems()
        if errs:
            raise ShapeError("; ".join(errs))
        classes, client_ids = self.resolve_targets(request.targets)
        repeat_classes = classes & self.forgotten_classes
        repeat_clients = client_ids & self.forgotten_clients
        for c in sorted(repeat_classes):
            log.warning("class %d already unlearned; skipping", c)
            self.warnings += 1
        for j in sorted(repeat_clients):
            log.warning("client %d already unlearned; skipping", j)
            self.warnings += 1
        classes -= repeat_classes
        client_ids -= repeat_clients
        self._request_index += 1

        if not classes and not client_ids:
            return model, [StageCost("unlearn", 0, 0, 0.0), StageCost("recover", 0, 0, 0.0)]
        partition = self.build_forget_partition(classes, client_ids, request.mix_per_class)

        self.forgotten_classes |= classes
        self.forgotten_clients |= client_ids
        return self.run_stages(model, partition, request.unlearn_rounds,
                               request.recovery_rounds, request.sga_lr, request.recovery_lr,
                               stage_callback)

    # ---- relearning ---------------------------------------------------------------

    def relearn(self, model: GlobalModel, targets: list[dict], rounds: int,
                lr: float = 0.01) -> tuple[GlobalModel, StageCost]:
        """Recovery rounds over the rejoined distilled sets (the targets'
        retained buckets together with everything not currently forgotten)."""
        classes, client_ids = self.resolve_targets(targets)
        for c in sorted(classes - self.forgotten_classes):
            log.warning("class %d was never unlearned; relearning is a refresh", c)
            self.warnings += 1
        for j in sorted(client_ids - self.forgotten_clients):
            log.warning("client %d was never unlearned; relearning is a refresh", j)
            self.warnings += 1

        rejoin = (set(self.clients) - self.forgotten_clients) | client_ids
        buckets = {cid: self.clients[cid].syn.buckets for cid in sorted(rejoin)
                   if self.clients[cid].syn is not None}
        partition = _split_buckets(buckets, set(), set(), self.forgotten_classes - classes)
        if rounds and not partition.keep_total():
            raise ShapeError("no retained buckets to relearn from")
        model, cost = self._stage("relearn", model, partition, rounds, self.recovery_round, lr,
                                  partition.keep_total())
        self.forgotten_classes -= classes
        self.forgotten_clients -= client_ids
        return model, cost

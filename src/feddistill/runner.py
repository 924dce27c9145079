"""Config-driven pipeline: build the world deterministically, train with
in-situ distillation, execute unlearning requests, run baselines, and persist
checkpoints plus reports.

Artifact layout under the output directory:
    model.qdmd                  trained global model
    model_final.qdmd            model after all requests
    synthetic_client<i>.qdsy    per-client distilled set
    rounds.csv                  per-round training records
    report_<method>_seed<s>.json / .csv
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_model, load_synthetic, save_model, save_synthetic
from .config import ExperimentConfig, load_config, read_text
from .data import LabeledDataset, dirichlet_partition, load_idx, synth_blobs
from .distill import fine_tune
from .errors import ConfigError, DataFormatError
from .evaluate import (
    ExperimentReport,
    MIAConfig,
    StageRecord,
    accuracy_report,
    mia_attack,
    retrain_baseline,
    sga_or_baseline,
)
from .federation import GlobalModel, build_clients, train_federated, write_round_csv
from .seeds import make_rng
from .unlearn import RequestAction, StageCost, UnlearnEngine, UnlearningRequest, parse_request_file

log = logging.getLogger(__name__)


@dataclass
class RunArtifacts:
    output_dir: Path
    reports: dict[str, ExperimentReport] = field(default_factory=dict)
    paths: list[Path] = field(default_factory=list)    # only run_distill_only fills it


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    ds = cfg.dataset
    if ds.kind == "blobs":
        total = synth_blobs(ds.classes, ds.train_per_class + ds.test_per_class,
                            ds.dim, ds.separation, seed=cfg.seed)
        train_idx, test_idx = [], []
        for c in range(ds.classes):
            rows = np.nonzero(total.labels == c)[0]
            train_idx.extend(rows[:ds.train_per_class])
            test_idx.extend(rows[ds.train_per_class:])
        train = total.subset(np.array(train_idx), source="blobs/train")
        test = total.subset(np.array(test_idx), source="blobs/test")
        return train, test
    classes = cfg.arch.class_count
    train = load_idx(ds.train_images, ds.train_labels, classes, source="idx/train")
    test = load_idx(ds.test_images, ds.test_labels, classes, source="idx/test")
    if ds.subset_per_class:
        def trim(d: LabeledDataset, tag: str) -> LabeledDataset:
            keep = []
            for c in range(d.class_count):
                rows = np.nonzero(d.labels == c)[0]
                keep.extend(rows[:ds.subset_per_class])
            return d.subset(np.sort(np.array(keep)), source=f"{d.source}/{tag}")

        train = trim(train, f"first{ds.subset_per_class}")
        test = trim(test, f"first{ds.subset_per_class}")
    return train, test


def _subsample(data: LabeledDataset, limit: int, seed: int, *labels) -> LabeledDataset:
    if len(data) <= limit:
        return data
    rng = make_rng(seed, "mia-pool", *labels)
    idx = rng.choice(len(data), size=limit, replace=False)
    idx.sort()
    return data.subset(idx)


def _mia_pools(cfg: ExperimentConfig, clients, test: LabeledDataset,
               forget_classes: set[int], forget_clients: set[int]):
    member_parts, forget_parts = [], []
    for client in clients:
        if client.cid in forget_clients:
            forget_parts.append(client.data)
            continue
        member_parts.append(client.data.without_classes(forget_classes))
        held = client.data.only_classes(forget_classes)
        if len(held):
            forget_parts.append(held)

    def _concat(parts, tag):
        parts = [p for p in parts if len(p)]
        if not parts:
            return None
        return LabeledDataset(np.concatenate([p.samples for p in parts]),
                              np.concatenate([p.labels for p in parts]),
                              test.class_count, source=tag)

    member = _concat(member_parts, "mia/member")
    forget = _concat(forget_parts, "mia/forget")
    nonmember = test.without_classes(forget_classes)
    if member is None or forget is None or len(nonmember) == 0:
        return None
    cap = cfg.mia.max_pool
    return (_subsample(member, cap, cfg.seed, "member"),
            _subsample(nonmember, cap, cfg.seed, "nonmember"),
            _subsample(forget, cap, cfg.seed, "forget"))


def _evaluate_stage(stage: str, model: GlobalModel, test: LabeledDataset,
                    forget_eval: set[int], cost=None, pools=None,
                    mia_seed: int = 0) -> StageRecord:
    record = accuracy_report(model.params, model.spec, test, forget_eval)
    record.stage = stage
    if cost is not None:
        record.rounds = cost.rounds
        record.samples = cost.samples
        record.wall_ms = cost.wall_ms
    if pools is not None:
        result = mia_attack(model.params, model.spec, pools[0], pools[1], pools[2],
                            MIAConfig(split_seed=mia_seed))
        record.mia_forget_rate = result.forget_member_rate
    return record


def _request_from(action: RequestAction, cfg: ExperimentConfig) -> UnlearningRequest:
    un = cfg.unlearn
    return UnlearningRequest(targets=action.targets,
                             unlearn_rounds=un.unlearn_rounds,
                             recovery_rounds=un.recovery_rounds,
                             sga_lr=un.sga_lr, recovery_lr=un.recovery_lr,
                             mix_per_class=un.mix_per_class)


def _checked_config(config_path) -> ExperimentConfig:
    cfg = load_config(config_path)
    problems = cfg.problems()
    if problems:
        raise ConfigError(problems)
    return cfg


def _build_world(cfg: ExperimentConfig, distill_enabled: bool):
    """The test set and the clients of the config's world (same seeds every time)."""
    train, test = build_datasets(cfg)
    parts, _ = dirichlet_partition(train, cfg.clients, cfg.alpha, cfg.seed,
                                   per_class_over_clients=cfg.partition_per_class)
    clients = build_clients(parts, master_seed=cfg.seed, scale_s=cfg.scale_s,
                            distill_enabled=distill_enabled, dtype=cfg.dtype())
    return test, clients


def _serve_actions(engine: UnlearnEngine, model: GlobalModel, actions: list[RequestAction],
                   cfg: ExperimentConfig, test: LabeledDataset, report: ExperimentReport,
                   pools=None) -> tuple[GlobalModel, set[int]]:
    """Apply the actions in order, appending one evaluated stage per stage run.
    Returns the final model and the classes that count as forgotten at the end."""

    def record(stage, current, cost, eval_classes):
        report.stages.append(_evaluate_stage(stage, current, test, eval_classes, cost=cost,
                                             pools=pools, mia_seed=cfg.seed))

    for action in actions:
        if action.kind == "relearn":
            relearn_classes = engine.eval_forget_classes(action.targets)
            model, cost = engine.relearn(model, action.targets, cfg.unlearn.relearn_rounds,
                                         lr=cfg.unlearn.recovery_lr)
            # the relearned classes are the F-Set this stage reports on
            record("relearn", model, cost, relearn_classes)
            continue
        # the F-set in force, from the engine: a relearned client's classes
        # that are still forgotten as class targets stay in it
        eval_now = engine.forgotten_eval_classes() | engine.eval_forget_classes(action.targets)
        model, _ = engine.execute_request(
            model, _request_from(action, cfg),
            stage_callback=lambda stage, current, cost: record(stage, current, cost, eval_now))
    return model, engine.forgotten_eval_classes()


def run_experiment(config_path) -> RunArtifacts:
    """Execute the full pipeline for a config file; see module docstring for
    the artifact layout.  Raises ConfigError / NumericError / OSError for the
    CLI to map onto exit codes."""
    cfg = _checked_config(config_path)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = RunArtifacts(output_dir=out)
    dtype = cfg.dtype()

    test, clients = _build_world(cfg, cfg.distill_enabled)
    model, _, records = train_federated(
        clients, cfg.arch, cfg.distill, master_seed=cfg.seed,
        participation=cfg.participation, distill_enabled=cfg.distill_enabled, dtype=dtype)

    actions = cfg.actions()
    first_targets = next((a.targets for a in actions if a.kind in ("unlearn", "batch")), None)
    engine = UnlearnEngine(clients, cfg.arch, master_seed=cfg.seed, dtype=dtype,
                           pass_batch_size=cfg.unlearn.pass_batch_size)
    pools = None
    initial_forget: set[int] = set()
    if cfg.mia.enabled and first_targets:
        classes, cids = engine.resolve_targets(first_targets)
        initial_forget = engine.eval_forget_classes(first_targets)
        pools = _mia_pools(cfg, clients, test, initial_forget, cids)

    report = ExperimentReport(method="distilled", seed=cfg.seed)
    train_cost = StageCost("train", rounds=len(records),
                           samples=sum(r.samples for r in records),
                           wall_ms=sum(r.wall_ms for r in records))
    report.stages.append(_evaluate_stage("train", model, test, initial_forget,
                                         cost=train_cost, pools=pools, mia_seed=cfg.seed))

    if cfg.fine_tune_steps and cfg.distill_enabled:
        start = time.monotonic()
        touched_before = sum(c.syn.real_samples_touched for c in clients if c.syn)
        for client in clients:
            if client.syn is not None and len(client.data):
                fine_tune(client.syn, client.data, cfg.arch, cfg.fine_tune_steps,
                          cfg.distill, dtype=dtype)
        ft_cost = StageCost(
            "fine_tune", rounds=cfg.fine_tune_steps,
            samples=sum(c.syn.real_samples_touched for c in clients if c.syn) - touched_before,
            wall_ms=(time.monotonic() - start) * 1e3)
        report.stages.append(_evaluate_stage("fine_tune", model, test, initial_forget,
                                             cost=ft_cost))

    save_model(out / "model.qdmd", model.params, cfg.arch)
    for client in clients:
        if client.syn is not None:
            save_synthetic(out / f"synthetic_client{client.cid}.qdsy", client.syn)
    write_round_csv(out / "rounds.csv", records)

    model, eval_classes = _serve_actions(engine, model, actions, cfg, test, report, pools)
    save_model(out / "model_final.qdmd", model.params, cfg.arch)
    artifacts.reports["distilled"] = report

    # the baselines forget what is still forgotten after every action, relearns included
    forget_classes, forget_clients = engine.forgotten_classes, engine.forgotten_clients
    if cfg.baselines.retrain and (forget_classes or forget_clients):
        re_model, _, cost = retrain_baseline(clients, forget_classes, forget_clients,
                                             cfg.arch, cfg.distill, master_seed=cfg.seed,
                                             participation=cfg.participation, dtype=dtype)
        re_report = ExperimentReport(method="retrain_original", seed=cfg.seed)
        re_report.stages.append(_evaluate_stage("unlearn", re_model, test, eval_classes,
                                                cost=cost, pools=pools, mia_seed=cfg.seed))
        artifacts.reports["retrain_original"] = re_report

    if cfg.baselines.sga_original and (forget_classes or forget_clients):
        sga_model = GlobalModel(params=load_model(out / "model.qdmd", cfg.arch),
                                spec=cfg.arch, round=model.round)
        sga_report = ExperimentReport(method="sga_original", seed=cfg.seed)

        def record(stage, current, cost):
            sga_report.stages.append(_evaluate_stage(stage, current, test, eval_classes,
                                                     cost=cost, pools=pools,
                                                     mia_seed=cfg.seed))

        sga_or_baseline(
            sga_model, clients, forget_classes, forget_clients, master_seed=cfg.seed,
            unlearn_rounds=cfg.baselines.sga_unlearn_rounds,
            recovery_rounds=cfg.baselines.sga_recovery_rounds,
            sga_lr=cfg.unlearn.sga_lr, recovery_lr=cfg.unlearn.recovery_lr, dtype=dtype,
            pass_batch_size=cfg.unlearn.pass_batch_size, stage_callback=record)
        artifacts.reports["sga_original"] = sga_report

    for method, rep in artifacts.reports.items():
        rep.write_json(out / f"report_{method}_seed{cfg.seed}.json")
        rep.write_csv(out / f"report_{method}_seed{cfg.seed}.csv")
    return artifacts


def run_distill_only(config_path) -> RunArtifacts:
    """Standalone distillation: per client, run the restart-based loops on its
    local data and save the synthetic checkpoints."""
    from .distill import distill_standalone

    cfg = _checked_config(config_path)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = RunArtifacts(output_dir=out)
    dtype = cfg.dtype()
    train, _ = build_datasets(cfg)
    parts, _ = dirichlet_partition(train, cfg.clients, cfg.alpha, cfg.seed,
                                   per_class_over_clients=cfg.partition_per_class)
    for cid, data in enumerate(parts):
        if len(data) == 0:
            continue
        syn = distill_standalone(data, cfg.arch, cfg.distill, s=cfg.scale_s, dtype=dtype)
        path = out / f"synthetic_client{cid}.qdsy"
        save_synthetic(path, syn)
        artifacts.paths.append(path)
    return artifacts


def run_unlearn_only(config_path, requests_path) -> RunArtifacts:
    """Execute a request file against the checkpoints of an earlier `run`. Each call
    restarts from `model.qdmd` and the saved `.qdsy` files, so two calls do not
    compose, and it overwrites `model_final.qdmd` and the unlearn reports."""
    cfg = _checked_config(config_path)
    out = Path(cfg.output_dir)
    model_path = out / "model.qdmd"
    if not model_path.exists():
        raise DataFormatError(f"{model_path}: missing; run the `run` stage first")
    actions = parse_request_file(read_text(requests_path))

    test, clients = _build_world(cfg, distill_enabled=False)
    for client in clients:
        syn_path = out / f"synthetic_client{client.cid}.qdsy"
        if syn_path.exists():
            client.syn = load_synthetic(syn_path, cfg.arch)
    model = GlobalModel(params=load_model(model_path, cfg.arch), spec=cfg.arch)

    engine = UnlearnEngine(clients, cfg.arch, master_seed=cfg.seed, dtype=cfg.dtype(),
                           pass_batch_size=cfg.unlearn.pass_batch_size)
    report = ExperimentReport(method="distilled_unlearn", seed=cfg.seed)
    model, _ = _serve_actions(engine, model, actions, cfg, test, report)

    save_model(out / "model_final.qdmd", model.params, cfg.arch)
    report.write_json(out / f"report_distilled_unlearn_seed{cfg.seed}.json")
    report.write_csv(out / f"report_distilled_unlearn_seed{cfg.seed}.csv")
    return RunArtifacts(output_dir=out, reports={"distilled_unlearn": report})


def summarize_reports(directory) -> str:
    """Collect report JSONs from a run directory into a plain-text table."""
    import json

    rows = []
    for path in sorted(Path(directory).glob("report_*.json")):
        data = json.loads(path.read_text())
        for stage in data["stages"]:
            def pct(v):
                return "--" if v is None else f"{100 * v:6.2f}%"

            rows.append(f"{data['method']:<20} {stage['stage']:<10} "
                        f"rounds={stage['rounds']:<4} samples={stage['samples']:<8} "
                        f"F-Set={pct(stage['f_set_accuracy'])} "
                        f"R-Set={pct(stage['r_set_accuracy'])} "
                        f"MIA={pct(stage['mia_forget_rate'])}")
    if not rows:
        return f"no report files under {directory}"
    header = f"{'method':<20} {'stage':<10}"
    return "\n".join([header] + rows)

"""Deterministic federated learning simulator with in-situ dataset distillation
and distilled-data unlearning."""

from .data import LabeledDataset, PartitionPlan, class_index, dirichlet_partition, load_idx, synth_blobs
from .distill import (
    DistillConfig,
    SyntheticDataset,
    distill_standalone,
    fine_tune,
    grad_distance,
    init_synthetic,
    match_step,
)
from .errors import (
    ConfigError,
    DataFormatError,
    FedDistillError,
    GraphError,
    NumericError,
    ShapeError,
)
from .evaluate import ExperimentReport, MIAConfig, accuracy_report, mia_attack
from .federation import ClientState, GlobalModel, aggregate, build_clients, sample_clients, train_federated
from .models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from .tensor import ParamSet, Tensor, grad, hypergrad, no_grad
from .unlearn import UnlearnEngine, UnlearningRequest, parse_request_file

__all__ = [
    "ArchSpec",
    "ClientState",
    "ConfigError",
    "DataFormatError",
    "DistillConfig",
    "ExperimentReport",
    "FedDistillError",
    "GlobalModel",
    "GraphError",
    "InitDistribution",
    "LabeledDataset",
    "MIAConfig",
    "NumericError",
    "ParamSet",
    "PartitionPlan",
    "ShapeError",
    "SyntheticDataset",
    "Tensor",
    "UnlearnEngine",
    "UnlearningRequest",
    "accuracy_report",
    "aggregate",
    "build_clients",
    "class_index",
    "cross_entropy",
    "dirichlet_partition",
    "distill_standalone",
    "fine_tune",
    "forward",
    "grad",
    "grad_distance",
    "hypergrad",
    "init_params",
    "init_synthetic",
    "load_idx",
    "match_step",
    "mia_attack",
    "no_grad",
    "parse_request_file",
    "sample_clients",
    "synth_blobs",
    "train_federated",
]

__version__ = "0.1.0"

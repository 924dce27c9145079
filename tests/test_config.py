"""The config format: the table's defaults, the committed and generated
configs, and a property test that no mutation of a good config makes
`validate_config` raise."""
from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from feddistill.config import FIELDS, load_config, validate_config
from feddistill.distill import DistillConfig
from feddistill.models import ArchSpec

ROOT = Path(__file__).resolve().parents[1]
BLOBS_SMALL = json.loads((ROOT / "configs" / "blobs_small.json").read_text())


def test_the_table_has_one_row_per_key():
    paths = [path for path, *_ in FIELDS]
    assert len(paths) == len(set(paths)) == 49


def test_library_defaults_agree_with_the_table():
    table = {path: default for path, _, default, _ in FIELDS}
    arch = {f.name: f.default for f in dataclasses.fields(ArchSpec)}
    for key in ("blocks", "filters", "norm", "pool"):
        assert table[f"arch.{key}"] == arch[key]
    assert tuple(table["arch.hidden"]) == arch["hidden"]
    distill = DistillConfig()
    assert (table["distill.rounds"], table["distill.local_steps"], table["distill.syn_steps"],
            table["distill.syn_lr"], table["distill.model_lr"],
            table["distill.real_batch_per_class"]) == \
        (distill.outer_steps, distill.inner_steps, distill.syn_steps, distill.syn_lr,
         distill.model_lr, distill.real_batch_per_class)


def test_an_integer_is_a_number(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "alpha": 2, "participation": 1}))
    cfg = load_config(path)
    assert (cfg.alpha, cfg.participation) == (2.0, 1.0)
    assert isinstance(cfg.alpha, float) and isinstance(cfg.participation, float)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_and_benchmark_configs_validate(tmp_path):
    configs = {path.name: json.loads(path.read_text())
               for path in sorted((ROOT / "configs").glob("*.json"))}
    for name, generate in _workloads().CONFIGS.items():
        for seed in (1, 2, 3):
            configs[f"{name}-{seed}"] = generate(seed)
    assert len(configs) >= 10
    for name, raw in configs.items():
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert validate_config(path) == [], name


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(data, config):
    """Delete a key or element, insert an unknown one, or put any JSON value
    somewhere in `config`."""
    path = data.draw(st.sampled_from(list(_paths(config))))
    action = data.draw(st.sampled_from(["delete", "insert", "replace"]))
    if not path:
        return data.draw(JSON_VALUES) if action == "replace" else config
    parent = config
    for step in path[:-1]:
        parent = parent[step]
    node = parent[path[-1]]
    if action == "delete":
        del parent[path[-1]]
    elif action == "insert" and isinstance(node, dict):
        node[data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
    elif action == "insert" and isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), data.draw(JSON_VALUES))
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    return config


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_mutated_configs_validate_without_raising(tmp_path_factory, data):
    config = copy.deepcopy(BLOBS_SMALL)
    for _ in range(data.draw(st.integers(1, 4))):
        config = _mutate(data, config)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(config))
    problems = validate_config(path)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)

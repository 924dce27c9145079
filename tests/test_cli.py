from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from feddistill import runner
from feddistill.cli import main
from feddistill.config import validate_config


def _config(tmp_path: Path, **overrides) -> Path:
    raw = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "dataset": {"kind": "blobs", "classes": 3, "train_per_class": 60,
                    "test_per_class": 30, "dim": [1, 2, 2], "separation": 10.0},
        "clients": 2,
        "alpha": "inf",
        "arch": {"kind": "mlp", "hidden": [8]},
        "distill": {"enabled": True, "rounds": 4, "local_steps": 2, "syn_lr": 0.1,
                    "model_lr": 0.1, "real_batch_per_class": 16, "scale_s": 20.0},
        "unlearn": {"requests": ["unlearn class=1"], "sga_lr": 0.1, "recovery_lr": 0.1,
                    "mix_per_class": 3},
        "baselines": {"retrain": True, "sga_original": True},
        "mia": {"enabled": True, "max_pool": 64},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", str(_config(tmp_path))]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_field_paths(tmp_path, capsys):
    path = _config(tmp_path, alpha=-1)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_validate_convnet_divisibility_suggestion(tmp_path, capsys):
    path = _config(tmp_path, arch={"kind": "convnet", "blocks": 3, "filters": 4,
                                   "input_shape": [1, 28, 28], "class_count": 3})
    assert main(["validate", str(path)]) == 2
    assert "blocks=2" in capsys.readouterr().err


def test_validate_missing_seed_via_file(tmp_path):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"dataset": {"kind": "blobs"}}))
    problems = validate_config(path)
    assert any("seed" in p for p in problems)


def test_run_smoke_produces_artifacts(tmp_path, capsys):
    config = _config(tmp_path)
    assert main(["run", str(config)]) == 0
    out = tmp_path / "out"
    for name in ("model.qdmd", "model_final.qdmd", "rounds.csv",
                 "synthetic_client0.qdsy", "report_distilled_seed7.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report_distilled_seed7.json").read_text())
    assert [s["stage"] for s in report["stages"]] == ["train", "unlearn", "recover"]
    for stage in report["stages"]:
        for key in ("f_set_accuracy", "r_set_accuracy", "overall_accuracy"):
            value = stage[key]
            assert value is None or 0.0 <= value <= 1.0


def test_run_twice_byte_identical_reports(tmp_path):
    config = _config(tmp_path)
    assert main(["run", str(config)]) == 0
    report = tmp_path / "out" / "report_distilled_seed7.json"
    first = report.read_bytes()
    assert main(["run", str(config)]) == 0
    assert report.read_bytes() == first
    retrain = tmp_path / "out" / "report_retrain_original_seed7.json"
    assert retrain.exists()


def test_unlearn_subcommand_requires_checkpoints(tmp_path, capsys):
    config = _config(tmp_path)
    reqs = tmp_path / "reqs.txt"
    reqs.write_text("unlearn class=0\n")
    assert main(["unlearn", str(config), "--requests", str(reqs)]) == 4
    assert "run" in capsys.readouterr().err


def test_unlearn_subcommand_on_saved_checkpoints(tmp_path):
    config = _config(tmp_path)
    assert main(["run", str(config)]) == 0
    reqs = tmp_path / "reqs.txt"
    reqs.write_text("unlearn class=0\nrelearn class=0\n")
    assert main(["unlearn", str(config), "--requests", str(reqs)]) == 0
    report = json.loads((tmp_path / "out" / "report_distilled_unlearn_seed7.json").read_text())
    assert [s["stage"] for s in report["stages"]] == ["unlearn", "recover", "relearn"]


def test_distill_subcommand(tmp_path, capsys):
    config = _config(tmp_path)
    assert main(["distill", str(config)]) == 0
    assert (tmp_path / "out" / "synthetic_client0.qdsy").exists()
    assert (tmp_path / "out" / "synthetic_client1.qdsy").exists()


def test_report_subcommand(tmp_path, capsys):
    config = _config(tmp_path)
    assert main(["run", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out")]) == 0
    text = capsys.readouterr().out
    assert "distilled" in text and "train" in text


def test_numeric_abort_exit_code(tmp_path, capsys):
    # overlapping classes + an absurd rate: the loss must go non-finite
    config = _config(
        tmp_path,
        dataset={"kind": "blobs", "classes": 3, "train_per_class": 60, "test_per_class": 30,
                 "dim": [1, 2, 2], "separation": 0.0},
        distill={"enabled": False, "rounds": 30, "local_steps": 10, "model_lr": 1e30,
                 "real_batch_per_class": 16, "scale_s": 20.0})
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric abort" in err and "round" in err


def test_a_non_finite_grouped_match_update_exits_3(tmp_path, capsys):
    # the pixel step overflows, so the next grouped match replay fails
    config = _config(
        tmp_path,
        distill={"enabled": True, "rounds": 3, "local_steps": 2, "syn_lr": 1e38,
                 "model_lr": 0.1, "real_batch_per_class": 16, "scale_s": 20.0},
        baselines={"retrain": False, "sga_original": False})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(config)]) == 3
    err = capsys.readouterr().err
    assert "numeric abort: round 0, client 1: non-finite values in class 0 gradient" in err


@pytest.mark.parametrize("command", ["run", "distill"])
def test_an_allocation_failure_exits_5_naming_the_command(tmp_path, monkeypatch, capsys, command):
    # the blobs world is the first large allocation of a run; fail it without allocating
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 224. GiB for an array with shape "
                          "(100000, 100000, 3) and data type float64")

    monkeypatch.setattr(runner, "synth_blobs", unable)
    assert main([command, str(_config(tmp_path))]) == 5
    captured = capsys.readouterr()
    assert captured.err.strip() == (f"out of memory in {command}: Unable to allocate 224. GiB "
                                    "for an array with shape (100000, 100000, 3) and data type "
                                    "float64")
    assert "Traceback" not in captured.out + captured.err


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("FEDDISTILL_OUTPUT_DIR", str(override))
    config = _config(tmp_path)
    assert main(["run", str(config)]) == 0
    assert (override / "model.qdmd").exists()


SERVED = ["unlearn class=1", "relearn class=1", "batch class=0,class=2"]


@pytest.fixture(scope="module")
def served_run(tmp_path_factory):
    """One `run` whose checkpoints later `unlearn` calls serve requests from."""
    tmp_path = tmp_path_factory.mktemp("served")
    config = _config(tmp_path, unlearn={"requests": SERVED, "sga_lr": 0.1,
                                        "recovery_lr": 0.1, "mix_per_class": 3},
                     baselines={})
    assert main(["run", str(config)]) == 0
    return tmp_path, config


def test_report_prints_one_row_per_stage(served_run, capsys):
    out = served_run[0] / "out"
    expected = []
    for path in sorted(out.glob("report_*.json")):
        report = json.loads(path.read_text())
        expected += [[report["method"], stage["stage"]] for stage in report["stages"]]
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["method", "stage"] and len(expected) >= 6
    assert [row.split()[:2] for row in rows] == expected


def test_report_on_an_empty_directory(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"no report files under {tmp_path}\n"


def test_unlearn_subcommand_reproduces_the_run_stages(served_run):
    tmp_path, config = served_run
    reqs = tmp_path / "reqs.txt"
    reqs.write_text("\n".join(SERVED) + "\n")
    assert main(["unlearn", str(config), "--requests", str(reqs)]) == 0
    out = tmp_path / "out"
    run = json.loads((out / "report_distilled_seed7.json").read_text())["stages"]
    served = json.loads((out / "report_distilled_unlearn_seed7.json").read_text())["stages"]
    assert [s["stage"] for s in run] == ["train", "unlearn", "recover", "relearn",
                                         "unlearn", "recover"]
    for stage in run[1:] + served:
        stage.pop("mia_forget_rate")
    assert served == run[1:]


def test_each_unlearn_run_restarts_from_the_saved_checkpoints(served_run):
    tmp_path, config = served_run
    out = tmp_path / "out"
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("unlearn class=2\n")
    second.write_text("unlearn class=1\n")

    def unlearn(reqs):
        assert main(["unlearn", str(config), "--requests", str(reqs)]) == 0
        # the report JSON holds no wall times, so its bytes repeat
        return ((out / "report_distilled_unlearn_seed7.json").read_bytes(),
                (out / "model_final.qdmd").read_bytes())

    alone = unlearn(second)
    assert unlearn(first) != alone
    assert unlearn(second) == alone   # class 2 is not forgotten any more


@pytest.mark.parametrize("command, request_line, message", [
    ("unlearn", "frobnicate class=1", "cannot parse request line"),
    ("unlearn", "unlearn class=9", "class 9"),
    ("run", "unlearn class=3", "unlearn.requests[0]: class 3"),
])
def test_unservable_requests_exit_2(served_run, tmp_path, capsys, command, request_line,
                                    message):
    if command == "run":
        config = _config(tmp_path, unlearn={"requests": [request_line]})
        argv = ["run", str(config)]
    else:
        config = served_run[1]
        reqs = tmp_path / "reqs.txt"
        reqs.write_text(request_line + "\n")
        argv = ["unlearn", str(config), "--requests", str(reqs)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and message in err and "Traceback" not in err
    if command == "run":
        assert not (tmp_path / "out" / "model.qdmd").exists()   # rejected before training


def test_baselines_keep_a_class_that_was_relearned(tmp_path):
    config = _config(tmp_path, unlearn={"requests": ["unlearn class=1", "relearn class=1",
                                                     "unlearn class=2"],
                                        "sga_lr": 0.1, "recovery_lr": 0.1, "mix_per_class": 3},
                     baselines={"retrain": True})
    assert main(["run", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report_retrain_original_seed7.json").read_text())
    stage = report["stages"][0]
    assert stage["forget_classes"] == [2]
    assert stage["per_class_correct"][1] >= 0.9 * stage["per_class_total"][1]


def test_relearning_a_client_keeps_the_classes_still_forgotten(tmp_path):
    config = _config(tmp_path,
                     dataset={"kind": "blobs", "classes": 4, "train_per_class": 60,
                              "test_per_class": 30, "dim": [1, 2, 2], "separation": 10.0},
                     clients=4, alpha=1.0,
                     distill={"enabled": True, "rounds": 3, "local_steps": 2,
                              "real_batch_per_class": 16, "scale_s": 20.0},
                     unlearn={"requests": ["unlearn client=1", "batch class=0,class=3",
                                           "relearn class=0", "relearn client=1"],
                              "sga_lr": 0.1, "recovery_lr": 0.1, "mix_per_class": 3})
    assert main(["run", str(config)]) == 0
    for method in ("sga_original", "retrain_original"):
        report = json.loads((tmp_path / "out" / f"report_{method}_seed7.json").read_text())
        assert [s["forget_classes"] for s in report["stages"]] == [[3]] * len(report["stages"])


def test_sga_original_scores_each_stage_on_its_own_model(tmp_path):
    from feddistill.checkpoint import load_model
    from feddistill.config import load_config
    from feddistill.evaluate import accuracy_report, sga_or_baseline
    from feddistill.federation import GlobalModel
    from feddistill.runner import _build_world

    config = _config(tmp_path, baselines={"sga_original": True})
    assert main(["run", str(config)]) == 0
    out = tmp_path / "out"
    stages = json.loads((out / "report_sga_original_seed7.json").read_text())["stages"]
    assert [s["stage"] for s in stages] == ["unlearn", "recover"]

    cfg = load_config(config)
    test, clients = _build_world(cfg, distill_enabled=False)
    model = GlobalModel(params=load_model(out / "model.qdmd", cfg.arch), spec=cfg.arch)
    unlearned, _ = sga_or_baseline(
        model, clients, {1}, set(), master_seed=cfg.seed,
        unlearn_rounds=cfg.baselines.sga_unlearn_rounds, recovery_rounds=0,
        sga_lr=cfg.unlearn.sga_lr, recovery_lr=cfg.unlearn.recovery_lr, dtype=cfg.dtype(),
        pass_batch_size=cfg.unlearn.pass_batch_size)
    expected = accuracy_report(unlearned.params, cfg.arch, test, {1})
    assert stages[0]["per_class_correct"] == list(expected.per_class_correct)
    assert stages[0]["f_set_accuracy"] == expected.f_set_accuracy()


def _first_entry_header(raw: bytes) -> int:
    # QDMD: magic, version, 32-byte arch digest, entry count, then the first
    # entry's name length and name, then its role/precision/rank bytes
    (name_len,) = struct.unpack_from("<H", raw, 44)
    return 46 + name_len


def _set_byte(offset_of, value):
    def corrupt(raw: bytes) -> bytes:
        offset = offset_of(raw)
        return raw[:offset] + bytes([value]) + raw[offset + 1:]
    return corrupt


@pytest.mark.parametrize("name, corrupt, message", [
    ("model.qdmd", _set_byte(_first_entry_header, 9),
     "entry 0 (layer0.weight): unknown role code 9 at byte 59"),
    ("model.qdmd", _set_byte(lambda raw: _first_entry_header(raw) + 1, 3),
     "entry 0 (layer0.weight): unsupported precision byte 3 at byte 60"),
    ("model.qdmd", _set_byte(lambda raw: 46, 0xFF), "entry 0: name at byte 46 is not UTF-8"),
    ("model.qdmd", lambda raw: raw + b"junk", "4 trailing bytes"),
    ("model.qdmd", lambda raw: raw[:-4], "truncated"),
    ("synthetic_client0.qdsy", lambda raw: raw + b"junk", "4 trailing bytes"),
    ("model.qdmd", lambda raw: raw[:46] + b"layer0.xeight" + raw[59:],
     "entry 0 at byte 46: 'layer0.xeight' (linear, shape [4, 8]) is not 'layer0.weight'"),
    ("synthetic_client0.qdsy", lambda raw: raw[:9] + b"\xff" * 12 + raw[21:],
     "truncated while reading class 0 tensor at byte 49"),
    ("synthetic_client0.qdsy", lambda raw: raw[:33] + bytes(4) + raw[37:],
     "class 0 listed twice, again at byte 33"),
    ("synthetic_client0.qdsy", lambda raw: raw[:25] + struct.pack("<I", 7) + raw[29:],
     "class 7 at byte 25 lies outside [0, 3)"),
    ("synthetic_client0.qdsy", lambda raw: raw[:9] + struct.pack("<III", 2, 1, 2) + raw[21:],
     "sample shape [2, 1, 2] at byte 9 is not the architecture's [1, 2, 2]"),
], ids=["role-code", "precision", "name", "qdmd-trailing", "qdmd-truncated", "qdsy-trailing",
        "qdmd-entry-name", "qdsy-huge-shape", "qdsy-duplicate-class", "qdsy-class-out-of-range",
        "qdsy-sample-shape"])
def test_corrupt_checkpoints_exit_4(served_run, tmp_path, monkeypatch, capsys, name, corrupt,
                                    message):
    out = tmp_path / "out"
    shutil.copytree(served_run[0] / "out", out)
    (out / name).write_bytes(corrupt((out / name).read_bytes()))
    monkeypatch.setenv("FEDDISTILL_OUTPUT_DIR", str(out))
    reqs = tmp_path / "reqs.txt"
    reqs.write_text("unlearn class=1\n")
    capsys.readouterr()
    assert main(["unlearn", str(served_run[1]), "--requests", str(reqs)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("poisoned, named", [((1,), 1), ((0, 1), 0)], ids=["second", "both"])
def test_a_nan_in_a_stacked_recovery_group_exits_3(served_run, tmp_path, monkeypatch, capsys,
                                                   poisoned, named):
    # both clients' recovery sets have one shape, so their passes replay stacked;
    # a NaN in a class-0 bucket (the first tensor, at byte 49) names the first
    # failing client in client order
    out = tmp_path / "out"
    shutil.copytree(served_run[0] / "out", out)
    for cid in poisoned:
        path = out / f"synthetic_client{cid}.qdsy"
        raw = path.read_bytes()
        path.write_bytes(raw[:49] + struct.pack("<f", float("nan")) + raw[53:])
    monkeypatch.setenv("FEDDISTILL_OUTPUT_DIR", str(out))
    reqs = tmp_path / "reqs.txt"
    reqs.write_text("unlearn class=1\n")
    capsys.readouterr()
    assert main(["unlearn", str(served_run[1]), "--requests", str(reqs)]) == 3
    err = capsys.readouterr().err
    assert f"non-finite values in recovery client {named}" in err and "Traceback" not in err


CONVNET = {"kind": "convnet", "blocks": 1, "filters": 4}


def _idx_dataset(tmp_path: Path, image_magic: int = 0x803, labels=(0, 1) * 4,
                 label_header: bytes | None = None) -> dict:
    """A 16x16 IDX dataset, one image per label (8 images in two classes by
    default), used for train and test."""
    n = len(labels)
    images, label_file = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", image_magic, n, 16, 16) + bytes(n * 16 * 16))
    label_file.write_bytes((label_header or struct.pack(">II", 0x801, n)) + bytes(labels))
    return {"kind": "idx", "train_images": str(images), "train_labels": str(label_file),
            "test_images": str(images), "test_labels": str(label_file)}


@pytest.mark.parametrize("content, message", [
    ({"seed": "abc"}, 'seed: expected integer, got "abc"'),
    ({"seed": 1.5}, "seed: expected integer, got 1.5"),
    ({"dataset": []}, "dataset: expected an object, got []"),
    ({"clients": None}, "clients: expected integer, got null"),
    ({"clients": True}, "clients: expected integer, got true"),
    ({"alpha": "x"}, 'alpha: must be a positive number or "inf", got "x"'),
    ({"alpha": None}, 'alpha: expected number or "inf", got null'),
    ({"arch": {"kind": "mlp", "hidden": "ab"}}, "arch.hidden: expected list of integers"),
    ({"arch": dict(CONVNET, pool=0)}, "arch.pool: must be >= 1, got 0"),
    ({"arch": dict(CONVNET, pool=-1)}, "arch.pool: must be >= 1, got -1"),
    ({"arch": {"kind": "mlp", "class_count": 2}}, "arch.class_count: 2 is below dataset.classes 3"),
    ({"distill": {"local_step": 1}}, "distill.local_step: unknown key"),
    ({"distill": {"rounds": 2.7}}, "distill.rounds: expected integer, got 2.7"),
    ({"baselines": {"retrain": "no"}}, 'baselines.retrain: expected boolean, got "no"'),
    ({"dataset": {"dim": [1, 2, 2.5]}}, "dataset.dim: expected list of integers"),
    ({"colour": "red"}, "colour: unknown key"),
    (b"[1, 2]", "(top level): expected an object, got [1, 2]"),
    (b"[" * 100_000, "config is not valid JSON: maximum recursion depth exceeded"),
    (b'{"seed": 1, "output_dir": "\xff"}', "config.json: not UTF-8 text (byte 27)"),
], ids=["seed-str", "seed-float", "dataset-list", "clients-null", "clients-bool", "alpha-str",
        "alpha-null", "hidden-str", "pool-0", "pool-negative", "class-count-low", "key-typo",
        "rounds-float", "bool-str", "dim-float", "unknown-top-key", "top-level-list", "deep-json",
        "not-utf8"])
def test_malformed_configs_exit_2(tmp_path, capsys, content, message):
    if isinstance(content, bytes):
        path = tmp_path / "config.json"
        path.write_bytes(content)
    else:
        path = _config(tmp_path, **content)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("request_bytes, message", [
    (b"unlearn class=abc\n", "bad class id 'abc' in request line 'unlearn class=abc'"),
    (b"unlearn class=\n", "bad class id '' in request line 'unlearn class='"),
    (b"unlearn client=1.5\n", "bad client id '1.5' in request line 'unlearn client=1.5'"),
    (b"unlearn class=1 \xff\n", "reqs.txt: not UTF-8 text (byte 16)"),
], ids=["id-str", "id-empty", "id-float", "not-utf8"])
def test_malformed_request_files_exit_2(served_run, tmp_path, capsys, request_bytes, message):
    reqs = tmp_path / "reqs.txt"
    reqs.write_bytes(request_bytes)
    capsys.readouterr()
    assert main(["unlearn", str(served_run[1]), "--requests", str(reqs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and message in err and "Traceback" not in err


def test_idx_input_shape_comes_from_the_header(tmp_path, capsys):
    from feddistill.config import load_config

    path = _config(tmp_path, dataset=_idx_dataset(tmp_path), unlearn={})
    assert main(["validate", str(path)]) == 0
    cfg = load_config(path)
    assert cfg.arch.input_shape == (1, 16, 16) and cfg.arch.class_count == 10


def test_idx_header_with_a_bad_magic_exits_4(tmp_path, capsys):
    path = _config(tmp_path, dataset=_idx_dataset(tmp_path, image_magic=0x1234), unlearn={})
    assert main(["validate", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "images.idx: bad magic 0x00001234" in err


def test_idx_image_header_larger_than_the_file_exits_4(tmp_path, capsys):
    dataset = _idx_dataset(tmp_path)
    with open(dataset["train_images"], "r+b") as f:
        f.write(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF))
    path = _config(tmp_path, dataset=dataset, unlearn={})
    assert main(["run", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert (f"{tmp_path / 'images.idx'}: truncated while reading 4294967295 images of "
            f"4294967295x4294967295 at byte 16") in err


@pytest.mark.parametrize("labels, arch", [
    (range(8), {"kind": "mlp", "hidden": [8], "class_count": 5}),
    ((0, 10) * 4, {"kind": "mlp", "hidden": [8]}),
], ids=["count-5-labels-0-7", "default-count-label-10"])
def test_idx_class_count_at_or_below_a_label_exits_2(tmp_path, capsys, labels, arch):
    path = _config(tmp_path, dataset=_idx_dataset(tmp_path, labels=labels), arch=arch,
                   unlearn={})
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid: arch.class_count:") and "Traceback" not in err
        assert str(tmp_path / "labels.idx") in err
    assert not (tmp_path / "out" / "model.qdmd").exists()


@pytest.mark.parametrize("header, message", [
    (struct.pack(">II", 0x1234, 8), "labels.idx: bad magic 0x00001234"),
    (struct.pack(">II", 0x801, 9), "labels.idx: truncated while reading 9 labels"),
], ids=["bad-magic", "truncated"])
def test_idx_label_file_read_by_validate_exits_4(tmp_path, capsys, header, message):
    path = _config(tmp_path, dataset=_idx_dataset(tmp_path, label_header=header), unlearn={})
    assert main(["validate", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_idx_label_file_with_trailing_bytes_exits_4(tmp_path, capsys, command):
    dataset = _idx_dataset(tmp_path, labels=(0, 1) * 8)
    with open(dataset["train_labels"], "ab") as f:
        f.write(b"\x00\x01\x02")
    path = _config(tmp_path, dataset=dataset, unlearn={})
    assert main([command, str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert f"{tmp_path / 'labels.idx'}: 3 trailing bytes after 16 labels, at byte 24" in err
    assert not (tmp_path / "out" / "model.qdmd").exists()


def test_idx_datasets_take_the_arch_class_count(tmp_path):
    from feddistill.config import load_config
    from feddistill.runner import build_datasets

    path = _config(tmp_path, dataset=_idx_dataset(tmp_path, labels=(0, 10) * 4),
                   arch={"kind": "mlp", "hidden": [8], "class_count": 12}, unlearn={})
    assert validate_config(path) == []
    train, test = build_datasets(load_config(path))
    assert train.class_count == test.class_count == 12

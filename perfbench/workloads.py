"""Workload inputs, generated from the workload seed alone.

Stdlib only: the controller imports this module without importing numpy.
The program under test receives nothing but what these functions return:
an experiment config (written to a JSON file) or a list of request lines.
"""
from __future__ import annotations

import random

# Request kinds of the stream, repeated.  The forgotten-class count walks
# 2 1 3 2 3 2 1 2 1 0, so the stream never runs out of classes to forget, and
# 60 % of the requests are relearns: the median latency falls inside the
# relearn mode and p90 inside the unlearn-plus-recovery mode, away from the
# gap between them.  A fixed cycle gives every seed the same mix of work;
# the seed picks the classes.
STREAM_CYCLE = ("batch", "relearn", "batch", "relearn", "unlearn",
                "relearn", "relearn", "unlearn", "relearn", "relearn")


def fl_mlp_config(seed: int) -> dict:
    """The committed blobs_small world (3 classes, MLP, 4 IID clients) with
    its `unlearn class=1` request and both baselines.

    Rounds stay at 25: from about 40 rounds on, the distilled model retains
    the forgotten class on some seeds and not on others, so the F-set
    accuracy would differ from seed to seed by more than any bound."""
    return {
        "seed": seed,
        "output_dir": "out/fl_mlp",
        "dataset": {"kind": "blobs", "classes": 3, "train_per_class": 300,
                    "test_per_class": 100, "dim": [1, 4, 4], "separation": 10.0},
        "clients": 4,
        "alpha": "inf",
        "participation": 1.0,
        "arch": {"kind": "mlp", "hidden": [16]},
        "distill": {"enabled": True, "rounds": 25, "local_steps": 5, "syn_lr": 0.1,
                    "model_lr": 0.1, "real_batch_per_class": 64, "scale_s": 100.0},
        "unlearn": {"requests": ["unlearn class=1"], "unlearn_rounds": 1,
                    "recovery_rounds": 2, "sga_lr": 0.1, "recovery_lr": 0.1,
                    "mix_per_class": 10},
        "baselines": {"retrain": True, "sga_original": True},
        "mia": {"enabled": True, "max_pool": 200},
    }


def conv_world_config(seed: int, requests: list[str]) -> dict:
    """The convnet world: 10 blob classes of 200 train and 50 test samples,
    [1,16,16] inputs, a 2-block convnet with 16 filters, 4 IID clients.

    Separation 40 and model_lr 0.5 train the model to about 100 % R-set
    accuracy in 3 rounds on every seed tried; sga_lr 0.3 with recovery_lr
    0.02 then forgets the target class and recovers the rest."""
    return {
        "seed": seed,
        "output_dir": "out/conv",
        "dataset": {"kind": "blobs", "classes": 10, "train_per_class": 200,
                    "test_per_class": 50, "dim": [1, 16, 16], "separation": 40.0},
        "clients": 4,
        "alpha": "inf",
        "participation": 1.0,
        "arch": {"kind": "convnet", "blocks": 2, "filters": 16},
        "distill": {"enabled": True, "rounds": 3, "local_steps": 5, "syn_lr": 0.1,
                    "model_lr": 0.5, "real_batch_per_class": 32, "scale_s": 20.0},
        "unlearn": {"requests": requests, "unlearn_rounds": 1, "recovery_rounds": 2,
                    "sga_lr": 0.3, "recovery_lr": 0.02, "mix_per_class": 10,
                    "relearn_rounds": 2},
        "baselines": {"retrain": False, "sga_original": False},
        "mia": {"enabled": True, "max_pool": 256},
    }


def fl_conv_config(seed: int) -> dict:
    """The convnet world with one `unlearn class=c` request, c drawn from the
    seed; MIA on, no baselines."""
    target = random.Random(f"fl_conv:{seed}").randrange(10)
    return conv_world_config(seed, [f"unlearn class={target}"])


def stream_world_config(seed: int) -> dict:
    """The world the request stream runs against: the convnet world, trained
    once during set-up; the stream replaces its request list.

    Recovery runs at lr 0.1 here: at fl_conv's 0.02 the model collapses to
    chance within about 20 requests of the stream, and every later accuracy
    report would measure only that collapse."""
    cfg = conv_world_config(seed, [])
    cfg["unlearn"]["recovery_lr"] = 0.1
    return cfg


def request_stream(seed: int, count: int, classes: int = 10) -> list[str]:
    """A closed-loop stream of `count` request lines for one caller.

    `unlearn` and `batch` name classes that are not forgotten, and `relearn`
    names a forgotten one, so every request does work."""
    rng = random.Random(f"unlearn_stream:{seed}")
    forgotten: list[int] = []
    lines = []
    for i in range(count):
        kind = STREAM_CYCLE[i % len(STREAM_CYCLE)]
        free = [c for c in range(classes) if c not in forgotten]
        if kind == "relearn":
            c = rng.choice(forgotten)
            forgotten.remove(c)
            lines.append(f"relearn class={c}")
        elif kind == "batch":
            a, b = sorted(rng.sample(free, 2))
            forgotten.extend([a, b])
            lines.append(f"batch class={a},class={b}")
        else:
            c = rng.choice(free)
            forgotten.append(c)
            lines.append(f"unlearn class={c}")
    return lines


# workload name -> its config generator; the order is the order of BENCHMARK.json
CONFIGS = {"fl_mlp": fl_mlp_config, "fl_conv": fl_conv_config,
           "unlearn_stream": stream_world_config}
WORKLOADS = tuple(CONFIGS)

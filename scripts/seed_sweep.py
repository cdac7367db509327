#!/usr/bin/env python3
"""Five-seed comparison of the implicit (theta=0.5) and explicit (theta=0)
networks on both benchmark tasks; prints per-seed results and medians.

This is the script behind the headline numbers: the regression task
compares final/initial training MSE and validation MSE, the spiral task
validation accuracy, under identical budgets for the two architectures.
Every run is a bundled config from ``configs/`` with only theta and the
seed replaced (and the epoch count, with ``--epochs``). ``COMPARISONS``,
``load``, ``regression_run`` and ``spiral_run`` are the only definition of
the comparison: acceptance criteria 5 and 6 import them and apply their
thresholds to the per-seed results.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from implicitnet.cli import build_data, load_experiment
from implicitnet.network import evaluate, init_model, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Per task, the (config, theta) of the implicit and of the explicit network.
COMPARISONS = {
    "regression": (("ex1_trapezoidal.json", 0.5), ("ex1_trapezoidal.json", 0.0)),
    "spirals": (("ex2_trapezoidal.json", 0.5), ("ex2_resnet.json", 0.0)),
}


def load(name, theta, epochs):
    """A bundled config at ``theta``, its epochs replaced when ``epochs`` is given."""
    spec, cfg, data_cfg, _ = load_experiment(CONFIGS / name)
    cfg = replace(cfg, epochs=cfg.epochs if epochs is None else epochs)
    return replace(spec, theta=theta), cfg, build_data(data_cfg)


def regression_run(spec, cfg, data, seed):
    train_set, val_set = data
    m = init_model(spec, seed)
    initial = evaluate(m, train_set.inputs, train_set.targets, cfg.loss)[0]
    rec = train(m, train_set, val_set, replace(cfg, seed=seed))
    if rec.diverged:
        return initial, np.inf, np.inf
    final = evaluate(m, train_set.inputs, train_set.targets, cfg.loss)[0]
    return initial, final, rec.val_loss[-1]


def spiral_run(spec, cfg, data, seed):
    train_set, val_set = data
    rec = train(init_model(spec, seed), train_set, val_set, replace(cfg, seed=seed))
    return 0.0 if rec.diverged else rec.val_accuracy[-1]


def header(task, runs):
    """The table's title line, from the implicit run's loaded config."""
    spec, cfg, _ = runs[0]
    return (
        f"== {task}: depth {spec.depth}, width {spec.hidden_dim}, lr {cfg.learning_rate}, "
        f"batch {cfg.batch_size}, {cfg.epochs} epochs =="
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--task", choices=["regression", "spirals", "both"], default="both")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=None)
    args = ap.parse_args()
    for flag in ("seeds", "epochs"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            ap.error(f"--{flag} must be >= 1, got {value}")

    if args.task in ("regression", "both"):
        runs = [load(name, theta, args.epochs) for name, theta in COMPARISONS["regression"]]
        print(header("regression", runs))
        for spec, cfg, data in runs:
            finals, vals = [], []
            for seed in range(args.seeds):
                t0 = time.perf_counter()
                initial, final, val = regression_run(spec, cfg, data, seed)
                finals.append(final)
                vals.append(val)
                print(
                    f"  theta={spec.theta} seed={seed}: train MSE {initial:.4f} -> {final:.5f}, "
                    f"val {val:.5f} ({time.perf_counter() - t0:.0f}s)"
                )
            print(f"  theta={spec.theta} medians: train {np.median(finals):.5f}, val {np.median(vals):.5f}")

    if args.task in ("spirals", "both"):
        runs = [load(name, theta, args.epochs) for name, theta in COMPARISONS["spirals"]]
        print(header("spirals", runs))
        for spec, cfg, data in runs:
            accs = []
            for seed in range(args.seeds):
                t0 = time.perf_counter()
                acc = spiral_run(spec, cfg, data, seed)
                accs.append(acc)
                print(f"  theta={spec.theta} seed={seed}: val accuracy {acc:.4f} ({time.perf_counter() - t0:.0f}s)")
            print(f"  theta={spec.theta} median accuracy: {np.median(accs):.4f}")


if __name__ == "__main__":
    main()

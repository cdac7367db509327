"""Workload table and set-up shared by the benchmark's entry points.

Importing this module pins BLAS to one thread and puts the checkout's
``src/`` first on ``sys.path``, so the benchmark always measures the
package built from the source next to it, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# BLAS reads its thread count once, when NumPy loads, so pin it before any
# NumPy import. Every workload is one process and one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "implicitnet").is_dir():
    raise SystemExit(f"error: no package source at {SRC / 'implicitnet'}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from implicitnet import cli, datasets, network  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """A shipped config, trained in trials of ``epochs`` epochs each."""

    config: str
    epochs: int
    reversible: bool = False


# Trial lengths keep one trial near one second on a 2-core x86 host.
WORKLOADS = {
    # Headline implicit model: the nonlinear block solve at B=4 dominates.
    "regression-tape": Workload("configs/ex1_trapezoidal.json", epochs=10),
    # Only workload that rebuilds states backward instead of keeping tapes.
    "spirals-reversible": Workload("configs/ex2_trapezoidal.json", epochs=5, reversible=True),
    # Explicit baseline: no solves, so per-layer Python overhead dominates.
    "resnet-deep": Workload("configs/ex1_resnet.json", epochs=5),
}


@dataclass
class SetUp:
    spec: network.ModelSpec
    cfg: network.TrainConfig
    train_set: datasets.LabeledSet
    val_set: datasets.LabeledSet
    model: network.Model


def build_data(data_cfg: dict):
    """Train and validation sets named by a loaded config's data section."""
    if data_cfg["name"] == "regression":
        return datasets.make_regression(data_cfg["seed"], data_cfg["n_train"], data_cfg["n_val"])
    return datasets.make_spirals(data_cfg["n_total"])


def set_up(name: str) -> SetUp:
    """Load the workload's config, build its data and init a model from the config's seed."""
    w = WORKLOADS[name]
    spec, cfg, data_cfg, _ = cli.load_experiment(ROOT / w.config)
    train_set, val_set = build_data(data_cfg)
    cfg = replace(cfg, epochs=w.epochs, reversible=cfg.reversible or w.reversible)
    return SetUp(spec, cfg, train_set, val_set, network.init_model(spec, cfg.seed))

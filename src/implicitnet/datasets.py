"""Benchmark dataset generators and CSV export.

Two deterministic desk-scale tasks:

* ``make_regression`` -- fit f(x) = sin(2 pi x) * exp(-x^2 / 2) on [-1, 1]
  from 100 uniformly sampled training points, validated on an equispaced
  grid of 200 points.
* ``make_spirals`` -- two interleaved Archimedean spirals (1.5 turns,
  radius 0.2 to 1.0, the second spiral rotated by pi), 513 noise-free
  points split by taking every other point along each spiral as validation
  (256 points) and the rest as training (257 points).

CSV files carry the header ``x0,...,y0,...`` and 17-significant-digit
decimals, so ``numpy.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)``
reads every float back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import numkit
from .errors import InvalidCountError


class SetKind(Enum):
    REGRESSION = "regression"
    BINARY = "binary"


@dataclass
class LabeledSet:
    """Row-per-sample arrays: inputs (N, d) and targets (N, m).

    A 1-D array is one column, one sample per entry; a scalar is one sample.
    """

    inputs: np.ndarray
    targets: np.ndarray
    kind: SetKind

    def __post_init__(self):
        self.inputs = _rows(self.inputs)
        self.targets = _rows(self.targets)
        if len(self.inputs) != len(self.targets):
            raise InvalidCountError(
                f"{len(self.inputs)} inputs vs {len(self.targets)} targets"
            )

    def __len__(self) -> int:
        return len(self.inputs)


def _rows(values) -> np.ndarray:
    """``values`` as a float array with one row per sample."""
    a = np.asarray(values, dtype=float)
    return a[:, None] if a.ndim == 1 else np.atleast_2d(a)


def target_fn(x):
    """The regression target sin(2 pi x) * exp(-x^2 / 2)."""
    x = np.asarray(x, dtype=float)
    return np.sin(2.0 * np.pi * x) * np.exp(-0.5 * x * x)


def make_regression(seed: int, n_train: int = 100, n_val: int = 200):
    """Seeded training sample on [-1, 1] plus a fixed equispaced grid."""
    if n_train < 1 or n_val < 1:
        raise InvalidCountError("n_train and n_val must be >= 1")
    rng = numkit.make_rng(seed)
    x_train = rng.uniform(-1.0, 1.0, size=n_train)
    if n_val == 1:
        x_val = np.array([-1.0])
    else:
        x_val = -1.0 + 2.0 * np.arange(n_val) / (n_val - 1)
    train = LabeledSet(x_train[:, None], target_fn(x_train)[:, None], SetKind.REGRESSION)
    val = LabeledSet(x_val[:, None], target_fn(x_val)[:, None], SetKind.REGRESSION)
    return train, val


def _spiral_point(cls: int, j: int, count: int) -> tuple[float, float]:
    t = j / (count - 1)
    phi = 3.0 * math.pi * t + cls * math.pi
    r = 0.2 + 0.8 * t
    return r * math.cos(phi), r * math.sin(phi)


def make_spirals(n_total: int = 513):
    """Two labeled spirals; alternate points along each arm are held out.

    Class 0 gets ceil(n/2) points, class 1 the rest; point j of class c
    sits at angle 3 pi t + c pi and radius 0.2 + 0.8 t with t = j/(N_c - 1).
    The combined listing interleaves the classes point by point; points
    with odd within-arm index j form the validation set, even j the
    training set, so both splits cover both classes along the full arms.
    """
    if n_total < 4:
        raise InvalidCountError(f"need at least 4 points, got {n_total}")
    n0 = (n_total + 1) // 2
    n1 = n_total - n0

    train_pts, train_lab, val_pts, val_lab = [], [], [], []
    for j in range(n0):
        for cls, count in ((0, n0), (1, n1)):
            if j >= count:
                continue
            point = _spiral_point(cls, j, count)
            if j % 2 == 1:
                val_pts.append(point)
                val_lab.append([float(cls)])
            else:
                train_pts.append(point)
                train_lab.append([float(cls)])

    train = LabeledSet(np.array(train_pts), np.array(train_lab), SetKind.BINARY)
    val = LabeledSet(np.array(val_pts), np.array(val_lab), SetKind.BINARY)
    return train, val


def to_csv(labeled: LabeledSet, path) -> None:
    """Write ``x0,..,y0,..`` rows with 17 significant digits."""
    d = labeled.inputs.shape[1]
    m = labeled.targets.shape[1]
    header = ",".join([f"x{i}" for i in range(d)] + [f"y{i}" for i in range(m)])
    lines = [header]
    for xi, yi in zip(labeled.inputs, labeled.targets):
        lines.append(",".join(f"{v:.17g}" for v in np.concatenate([xi, yi])))
    Path(path).write_text("\n".join(lines) + "\n")

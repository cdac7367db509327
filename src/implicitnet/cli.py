"""Command-line driver.

Subcommands: ``stability`` (phase diagrams and spectral-radius sweep),
``gradcheck`` (finite-difference audit of the custom backward pass),
``train`` (JSON-configured experiment run), ``dataset`` (CSV generators).

Exit codes: 0 success, 1 I/O or parse failure, 2 invalid flags or unknown
dataset name, 3 failed gradient check, 4 diverged training run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import datasets, numkit, stabilitylab, svg
from .errors import ImplicitNetError, ParseError
from .implicitblock import ActivationKind
from .network import (
    ModelSpec,
    TrainConfig,
    evaluate,
    gradcheck,
    init_model,
    param_count,
    read_setting,
    read_settings,
    save_model,
    train,
)
from .stabilitylab import SchemeKind, TestSystem, integrate, spectral_report

SPECTRA_SAMPLES = 301
SPECTRA_MAX_H_OMEGA = 3.0
CLASSIFICATION_GRID = 61
CLASSIFICATION_EXTENT = 1.2


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _require(setting: str, value, ok: bool, rule: str) -> None:
    """Reject an out-of-range setting or flag with a one-line error naming it."""
    if not ok:
        raise ParseError(f"{setting} must be {rule}, got {value}")


def _check_seed(setting: str, seed: int) -> None:
    """Seeds feed ``numpy.random.default_rng``, which takes no negative value."""
    _require(setting, seed, seed >= 0, ">= 0")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------- stability


def cmd_stability(args) -> int:
    for flag in ("omega", "h", "y0", "z0"):
        value = getattr(args, flag)
        _require(f"--{flag}", value, math.isfinite(value), "finite")
    _require("--omega", args.omega, args.omega > 0, "positive")
    _require("--steps", args.steps, args.steps >= 1, ">= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.scheme == "all":
        schemes = list(SchemeKind)
    else:
        schemes = [SchemeKind(args.scheme)]
    system = TestSystem(args.omega)

    for scheme in schemes:
        traj = integrate(scheme, system, args.y0, args.z0, args.h, args.steps)
        ys, zs = traj.states[:, 0], traj.states[:, 1]
        energies = stabilitylab.energy(system, ys, zs)
        rows = [
            f"{k},{_fmt(ys[k])},{_fmt(zs[k])},{_fmt(energies[k])}"
            for k in range(len(ys))
        ]
        if traj.diverged:
            rows.append("divergent,,,")
        _write_csv(out / f"phase_{scheme.value}.csv", "step,y,z,energy", rows)
        if args.svg:
            svg.write_polylines(
                out / f"phase_{scheme.value}.svg",
                [(ys, zs)],
                title=f"{scheme.value}  (omega={args.omega:g}, h={args.h:g})",
            )

    grid = np.linspace(0.0, SPECTRA_MAX_H_OMEGA, SPECTRA_SAMPLES)
    rows = [
        f"{_fmt(hw)},{scheme.value},{_fmt(spectral_report(scheme, hw).spectral_radius)}"
        for scheme in schemes
        for hw in grid
    ]
    _write_csv(out / "spectra.csv", "h_omega,scheme,rho", rows)
    return 0


# ----------------------------------------------------------------- gradcheck


def cmd_gradcheck(args) -> int:
    _require("--width", args.width, args.width >= 1, ">= 1")
    _require("--depth", args.depth, args.depth >= 0, ">= 0")
    _require("--theta", args.theta, 0.0 <= args.theta <= 1.0, "in [0, 1]")
    _require("--tol", args.tol, math.isfinite(args.tol), "finite")
    _require("--tol", args.tol, args.tol > 0, "positive")
    _check_seed("--seed", args.seed)
    spec = ModelSpec(
        input_dim=2,
        hidden_dim=args.width,
        output_dim=1,
        depth=args.depth,
        theta=args.theta,
        activation=ActivationKind.TANH,
        paper_param_grad=args.paper_param_grad,
    )
    rng = numkit.make_rng(args.seed)
    model = init_model(spec, rng)
    sample = (rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 1))
    report = gradcheck(model, sample, tol=args.tol)
    status = "pass" if report.passed else "FAIL"
    print(
        f"gradcheck {status}: max relative error {report.max_rel_err:.3e} "
        f"at {report.worst_coord} ({report.coords_checked} coordinates, tol {args.tol:g})"
    )
    for group, err, coord in report.failing_groups(args.tol):
        print(f"  {group}: {err:.3e} at {coord}")
    return 0 if report.passed else 3


# --------------------------------------------------------------------- train

_DATA_DEFAULTS = {
    "regression": {"seed": 1234, "n_train": 100, "n_val": 200},
    "spirals": {"n_total": 513},
}


def load_experiment(path):
    """Parse an experiment file into ``(ModelSpec, TrainConfig, data dict, output dir)``.

    Unknown keys anywhere are rejected, and every value must have its
    setting's JSON type (see ``network.read_setting``).
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - {"model", "train", "data", "output"}
    if unknown:
        raise ParseError(f"unknown top-level key(s): {sorted(unknown)}")
    for name in ("model", "train", "data"):
        if name not in doc:
            raise ParseError(f"missing config section {name!r}")

    spec = read_settings(ModelSpec, "model", doc["model"])
    cfg = read_settings(TrainConfig, "train", doc["train"])

    data = doc["data"]
    if not isinstance(data, dict) or "name" not in data:
        raise ParseError("section 'data' must be an object with a 'name' key")
    name = data["name"]
    defaults = _DATA_DEFAULTS.get(name) if isinstance(name, str) else None
    if defaults is None:
        raise ParseError(f"unknown dataset name {name!r}")
    unknown = set(data) - set(defaults) - {"name"}
    if unknown:
        raise ParseError(f"unknown key(s) in section 'data': {sorted(unknown)}")
    data_cfg = dict(defaults, name=name)
    for key, default in defaults.items():
        if key in data:
            data_cfg[key] = read_setting("data", key, type(default), data[key])
    if "seed" in data_cfg:
        _check_seed("data.seed", data_cfg["seed"])

    if "output" not in doc or not isinstance(doc["output"], str):
        raise ParseError("config needs an 'output' string (directory path)")
    return spec, cfg, data_cfg, doc["output"]


def build_data(data_cfg: dict):
    """Train and validation sets named by ``load_experiment``'s data dict."""
    if data_cfg["name"] == "regression":
        return datasets.make_regression(
            data_cfg["seed"], data_cfg["n_train"], data_cfg["n_val"]
        )
    return datasets.make_spirals(data_cfg["n_total"])


def _write_history(path: Path, record, with_accuracy: bool) -> None:
    header = "epoch,train_loss,val_loss"
    if with_accuracy:
        header += ",val_accuracy"
    rows = []
    for e, (tl, vl) in enumerate(zip(record.train_loss, record.val_loss), start=1):
        row = f"{e},{_fmt(tl)},{_fmt(vl)}"
        if with_accuracy:
            row += f",{_fmt(record.val_accuracy[e - 1])}"
        rows.append(row)
    _write_csv(path, header, rows)


def _write_predictions(path: Path, model, val_set) -> None:
    from .network import _forward_arrays

    if val_set.kind is datasets.SetKind.REGRESSION:
        xs = val_set.inputs
        out, _, _ = _forward_arrays(model, xs.T, keep_tapes=False)
        rows = [
            f"{_fmt(xs[i, 0])},{_fmt(out[0, i])},{_fmt(val_set.targets[i, 0])}"
            for i in range(len(xs))
        ]
        _write_csv(path, "x,prediction,target", rows)
        return
    axis = np.linspace(-CLASSIFICATION_EXTENT, CLASSIFICATION_EXTENT, CLASSIFICATION_GRID)
    xx, yy = np.meshgrid(axis, axis)
    grid = np.stack([xx.ravel(), yy.ravel()])
    out, _, _ = _forward_arrays(model, grid, keep_tapes=False)
    rows = [
        f"{_fmt(grid[0, i])},{_fmt(grid[1, i])},{_fmt(out[0, i])}"
        for i in range(grid.shape[1])
    ]
    _write_csv(path, "x0,x1,probability", rows)


def cmd_train(args) -> int:
    spec, cfg, data_cfg, out_dir = load_experiment(args.config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    train_set, val_set = build_data(data_cfg)
    model = init_model(spec, cfg.seed)
    print(f"block parameters: {param_count(model, blocks_only=True)}")
    print(f"total parameters: {param_count(model)}")

    record = train(model, train_set, val_set, cfg)

    with_acc = record.val_accuracy is not None
    _write_history(out / "history.csv", record, with_acc)
    save_model(model, out / "model.json")
    if not record.diverged:
        _write_predictions(out / "predictions.csv", model, val_set)
    if args.svg and record.train_loss:
        epochs = np.arange(1, len(record.train_loss) + 1)
        svg.write_polylines(
            out / "loss_curves.svg",
            [(epochs, record.train_loss), (epochs, record.val_loss)],
            title="loss per epoch",
            labels=["train", "validation"],
        )

    if record.diverged:
        print(f"training diverged: {record.failure}")
        print("history written up to the failing epoch")
        return 4
    final_loss, final_acc = evaluate(model, val_set.inputs, val_set.targets, cfg.loss)
    msg = f"finished {len(record.train_loss)} epochs, validation loss {final_loss:.6g}"
    if final_acc is not None:
        msg += f", validation accuracy {final_acc:.4f}"
    print(msg)
    return 0


# ------------------------------------------------------------------- dataset


def cmd_dataset(args) -> int:
    _check_seed("--seed", args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.name == "regression":
        train_set, val_set = datasets.make_regression(args.seed)
    else:
        train_set, val_set = datasets.make_spirals()
    datasets.to_csv(train_set, out / f"{args.name}_train.csv")
    datasets.to_csv(val_set, out / f"{args.name}_val.csv")
    print(f"wrote {len(train_set)} train and {len(val_set)} val rows to {out}")
    return 0


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicitnet",
        description="Implicit residual networks and the one-step scheme stability lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="phase diagrams and spectral-radius sweep")
    p.add_argument(
        "--scheme",
        default="all",
        choices=[s.value for s in SchemeKind] + ["all"],
    )
    p.add_argument("--omega", type=float, default=50.0)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--z0", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("gradcheck", help="finite-difference audit of backward")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--paper-param-grad", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="run a JSON-configured experiment")
    p.add_argument("config")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("dataset", help="write benchmark datasets as CSV")
    p.add_argument("--name", required=True, choices=["regression", "spirals"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=cmd_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ImplicitNetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bitwise account of the package: one JSON object with a sha256 per part.

The parts are:

- ``train/<run>/history.csv`` and ``train/<run>/model.json``: the files a
  3-epoch ``implicitnet train`` writes, for the four bundled configs and
  for ``ex2_trapezoidal`` with reversible training (``ex2_reversible``);
- ``loss_and_grad/<run>/<when>/total`` and ``.../grads``: the total loss
  and the gradient bytes on the first ``batch_size`` rows of the run's
  training set, at its ``initial`` model and at the ``trained`` one that
  ``model.json`` holds;
- ``gradcheck/<flags>``: the lines ``implicitnet gradcheck`` prints.

Plain counts of each 3-epoch training follow under ``counts/<run>/``:
``solve_many`` calls and systems, F evaluations and ``reconstruct_input``
calls, counted by patching module attributes.

The package is the one on ``sys.path``, so
``PYTHONPATH=<checkout>/src scripts/fingerprint.py`` accounts for any
checkout against this one's configs. ``--against FILE`` compares with an
earlier output instead of printing: it lists each part that differs and
exits 1 if any does. The digests hold per BLAS build, as ``runs/`` does.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from implicitnet import cli, implicitblock, network, numkit

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPOCHS = 3

# Run name -> (config, reversible).
RUNS = {
    "ex1_trapezoidal": ("ex1_trapezoidal.json", False),
    "ex1_resnet": ("ex1_resnet.json", False),
    "ex2_trapezoidal": ("ex2_trapezoidal.json", False),
    "ex2_resnet": ("ex2_resnet.json", False),
    "ex2_reversible": ("ex2_trapezoidal.json", True),
}
GRADCHECKS = ([], ["--theta", "0"], ["--paper-param-grad", "--depth", "2"], ["--seed", "3", "--width", "6", "--depth", "6"])


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def counting():
    """Count solver work while the block runs; yields the live counts."""
    counts = {"solve_many.calls": 0, "solve_many.systems": 0, "f_evals": 0, "reconstruct_input.calls": 0}
    solve_many, reconstruct_input = numkit.solve_many, implicitblock.reconstruct_input
    apply = implicitblock.ActivationKind.apply

    def counted_solve_many(mats, *args, **kwargs):
        counts["solve_many.calls"] += 1
        counts["solve_many.systems"] += len(mats)
        return solve_many(mats, *args, **kwargs)

    def counted_reconstruct_input(*args, **kwargs):
        counts["reconstruct_input.calls"] += 1
        return reconstruct_input(*args, **kwargs)

    def counted_apply(act, *args, **kwargs):
        counts["f_evals"] += 1
        return apply(act, *args, **kwargs)

    with (
        mock.patch.object(numkit, "solve_many", counted_solve_many),
        mock.patch.object(implicitblock, "reconstruct_input", counted_reconstruct_input),
        mock.patch.object(implicitblock.ActivationKind, "apply", counted_apply),
    ):
        yield counts


def account_run(run: str, config: str, reversible: bool, tmp: Path) -> dict:
    doc = json.loads((CONFIGS / config).read_text())
    doc["train"].update(epochs=EPOCHS, reversible=reversible)
    doc["output"] = str(tmp / run)
    path = tmp / f"{run}.json"
    path.write_text(json.dumps(doc))
    with counting() as counts, contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["train", str(path)]) != 0:
            raise SystemExit(f"error: training {run} failed")
    out = {f"train/{run}/{name}": sha((tmp / run / name).read_bytes()) for name in ("history.csv", "model.json")}

    spec, cfg, data_cfg, _ = cli.load_experiment(path)
    train_set, _ = cli.build_data(data_cfg)
    rows = slice(0, cfg.batch_size)
    batch = list(zip(train_set.inputs[rows], train_set.targets[rows]))
    models = {"initial": network.init_model(spec, cfg.seed), "trained": network.load_model(tmp / run / "model.json")}
    for when, model in models.items():
        total, grads = network.loss_and_grad(model, batch, cfg)
        out[f"loss_and_grad/{run}/{when}/total"] = sha(np.float64(total).tobytes())
        out[f"loss_and_grad/{run}/{when}/grads"] = sha(b"".join(g.tobytes() for g in grads))
    out.update({f"counts/{run}/{name}": value for name, value in counts.items()})
    return out


def account() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run, (config, reversible) in RUNS.items():
            out.update(account_run(run, config, reversible, Path(tmp)))
    for flags in GRADCHECKS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.main(["gradcheck", *flags])
        out[f"gradcheck/{' '.join(flags) or 'defaults'}"] = sha(text.getvalue().encode())
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", metavar="FILE", help="an earlier output; list the parts that differ from it")
    args = ap.parse_args()
    before = json.loads(Path(args.against).read_text()) if args.against else None
    now = account()
    if before is None:
        print(json.dumps(now, indent=1))
        return 0
    differ = [key for key in sorted(before.keys() | now.keys()) if before.get(key) != now.get(key)]
    for key in differ:
        print(f"{key}: {before.get(key)} -> {now.get(key)}")
    print(f"{len(differ)} of {len(before.keys() | now.keys())} parts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Seeded random sweep of single-block forward solves; prints one JSON object.

Each block draws, from one stream seeded with ``SEED``: width n in
{5, 6}, batch B in {1, 4, 32}, theta in {0.5, 1}, h in {0.2, 0.6, 1}, one
of the four activations, raw or skew-symmetric weights at 0.5-4 times
Glorot's scale, bias ~ U(-0.5, 0.5) and input x ~ N(0, 1). A block counts as solved when
``implicitblock.forward`` returns and ``block_fn`` confirms that
``max |y - x - h(1-theta)F(x) - h theta F(y)| <= SOLVER_TOL``.

The object gives the solved counts per activation and in the paper's
regime (theta = 0.5, skew-symmetric weights, h <= 0.6), the F evaluations
of the solved blocks, the median F evaluations per failure, and the
indices of the failed blocks. The first k blocks of a sweep are the whole
sweep at ``--blocks k``.

The package is the one on ``sys.path``, so
``PYTHONPATH=<checkout>/src scripts/block_sweep.py`` sweeps any checkout.
``--against FILE`` compares with an earlier output of the same block
count instead of printing it: it lists each block that only one
side solves, prints both sides' solved counts, F evaluations of the
solved blocks and median F evaluations per failure, and exits 1 if a
block solved there is not solved here.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from implicitnet import numkit
from implicitnet.errors import SolverDivergedError
from implicitnet.implicitblock import (
    SOLVER_TOL,
    ActivationKind,
    BlockStack,
    ImplicitBlockConfig,
    WeightMode,
    block_fn,
    forward,
)

SEED = 0
ACTIVATIONS = list(ActivationKind)
MODES = [WeightMode.RAW, WeightMode.SKEW_SYMMETRIC]


def draw_blocks(count: int):
    """Yield ``(cfg, params, x, scale)`` for each block of the sweep; ``params`` is a stack of one."""
    rng = numkit.make_rng(SEED)
    for _ in range(count):
        n, batch = int(rng.choice([5, 6])), int(rng.choice([1, 4, 32]))
        theta, h = float(rng.choice([0.5, 1.0])), float(rng.choice([0.2, 0.6, 1.0]))
        act, mode = ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))], MODES[int(rng.integers(2))]
        scale = float(rng.uniform(0.5, 4.0))
        params = BlockStack([scale * numkit.glorot_uniform(rng, n, n)], [rng.uniform(-0.5, 0.5, n)], mode)
        yield ImplicitBlockConfig(theta=theta, h=h, activation=act), params, rng.standard_normal((n, batch)), scale


def describe(cfg, params, x, scale) -> str:
    return (
        f"{cfg.activation.value} {params.mode.value} n={params.width} B={x.shape[1]} "
        f"theta={cfg.theta} h={cfg.h} scale={scale:.2f}"
    )


def solve(cfg, params, x) -> tuple[bool, int]:
    """Whether ``forward`` solves the block, and the F evaluations it took."""
    evals = 0
    apply = ActivationKind.apply

    def counted(act, u):
        nonlocal evals
        evals += 1
        return apply(act, u)

    ActivationKind.apply = counted
    try:
        y, _ = forward(cfg, params, x)
    except SolverDivergedError:
        return False, evals
    finally:
        ActivationKind.apply = apply
    act, h, theta = cfg.activation, cfg.h, cfg.theta
    r = y - x - h * (1.0 - theta) * block_fn(params, act, x) - h * theta * block_fn(params, act, y)
    return bool(np.abs(r).max() <= SOLVER_TOL), evals


def sweep(count: int) -> dict:
    solved = dict.fromkeys([act.value for act in ACTIVATIONS], 0)
    regime = {"blocks": 0, "solved": 0}
    solved_evals, failure_evals, failed = 0, [], []
    for i, (cfg, params, x, _) in enumerate(draw_blocks(count)):
        ok, evals = solve(cfg, params, x)
        in_regime = cfg.theta == 0.5 and params.mode is WeightMode.SKEW_SYMMETRIC and cfg.h <= 0.6
        regime["blocks"] += in_regime
        if ok:
            solved[cfg.activation.value] += 1
            regime["solved"] += in_regime
            solved_evals += evals
        else:
            failure_evals.append(evals)
            failed.append(i)
    return {
        "blocks": count,
        "solved": {**solved, "all": sum(solved.values())},
        "papers_regime": regime,
        "f_evals_solved": solved_evals,
        "median_f_evals_per_failure": float(np.median(failure_evals)) if failure_evals else None,
        "failed": failed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--blocks", type=int, default=1500, help="blocks to sweep (default 1500)")
    ap.add_argument("--against", metavar="FILE", help="an earlier output; list the blocks only one side solves")
    args = ap.parse_args()
    if args.blocks < 1:
        ap.error(f"--blocks must be >= 1, got {args.blocks}")
    before = json.loads(Path(args.against).read_text()) if args.against else None
    if before is not None and before["blocks"] != args.blocks:
        ap.error(f"{args.against} sweeps {before['blocks']} blocks")
    now = sweep(args.blocks)
    if before is None:
        print(json.dumps(now, indent=1))
        return 0
    lost, gained = set(now["failed"]) - set(before["failed"]), set(before["failed"]) - set(now["failed"])
    for i, block in enumerate(draw_blocks(args.blocks)):
        if i in lost or i in gained:
            print(f"block {i} solved {'there only' if i in lost else 'here only'}: {describe(*block)}")
    print(f"{len(lost)} lost, {len(gained)} gained; solved {before['solved']['all']} -> {now['solved']['all']}")
    print(f"F evaluations of solved blocks {before['f_evals_solved']} -> {now['f_evals_solved']}")
    print(
        f"median F evaluations per failure {before['median_f_evals_per_failure']} "
        f"-> {now['median_f_evals_per_failure']}"
    )
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())

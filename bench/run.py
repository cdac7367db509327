"""Training benchmark: shortened training of the shipped configs.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. Each workload is a closed
loop in one process and one thread, with BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics. The workload's config is
first trained as shipped, from its own seeds, for one trial of a fixed
epoch count; that trial gives ``final_val_loss`` and the warm model. Timed
trials then continue training copies of the warm model, each with a
shuffle seeded from ``--seed``, until ``--seconds`` have passed. Epochs are
timed from the outside: ``train`` calls ``evaluate`` once per epoch, so an
epoch ends when ``evaluate`` returns.

Why this shape: random inits change the solver work per epoch by up to
2.4x on regression-tape, so a run keyed to one init would time the init
more than the code; and the first epochs from some inits and shuffles
diverge (loss blow-up at the configs' fixed learning rates), which the
warm start steps past. The host this was tuned on switches between a fast
and a slow state about 2x apart, for seconds to minutes at a time, so any
single percentile of a run's epoch times jumps between the two; the mean
moves least. The gated timing is therefore the throughput over all timed
epochs, and the median and p90 epoch times are reported alongside,
ungated.

``--trace 1`` warms up as above, then trains one timed trial untraced and
traced in turn, with every layer's public functions wrapped (see
``tracer.py``), and reports the per-layer metrics. Its work is fixed, so
two runs with one seed give equal counts.

Both modes check the results, count failed operations (an operation is
one epoch or one correctness check), write a results file under
``bench/out/`` and print, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from unittest import mock

import workloads  # first: pins BLAS threads and selects the checkout's src/

import numpy as np
import tracer
from implicitnet import implicitblock, network, numkit
from implicitnet.errors import ImplicitNetError

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# Fresh interpreters timed per run for setup_s, half before and half after
# training, so they meet the host in more than one state; the median is
# reported.
SETUP_PROBES = 8
# Slices of the host reference loop timed before and after the workload.
REFERENCE_SLICES = 3
# Untraced/traced pairs of one trial timed for trace.overhead_pct.
OVERHEAD_PAIRS = 3
# Reconstruction may drift this many solver tolerances (acceptance criterion 7).
ROUND_TRIP_TOLS = 10.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "step_peak_kib": "KiB",
    "final_val_loss": "loss",
    "success_rate": "fraction",
}


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def epochs(self, record: network.TrainRecord, epochs: int) -> None:
        """One operation per requested epoch; missing or non-finite epochs fail."""
        losses = record.train_loss + record.val_loss
        done = len(record.val_loss) if all(map(math.isfinite, losses)) else 0
        self.attempted += epochs
        self.failed += epochs - done


class EpochClock:
    """Marks the end of every epoch at the return of ``network.evaluate``."""

    def __init__(self):
        self.marks: list[float] = []

    def installed(self):
        evaluate = network.evaluate

        def timed(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            self.marks.append(perf_counter())
            return result

        return mock.patch.object(network, "evaluate", timed)


# ---------------------------------------------------------------- environment


def reference_slice_ms() -> float:
    """One slice of the fixed host loop: 20,000 x tanh(W @ V), 6x6 by 6x32.

    Recorded next to every run so readers can tell host drift from program
    drift. It is a label only and rescales no metric.
    """
    rng = np.random.default_rng(0)
    w, v = rng.standard_normal((6, 6)), rng.standard_normal((6, 32))
    t0 = perf_counter()
    for _ in range(20_000):
        np.tanh(w @ v)
    return (perf_counter() - t0) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_sha() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ[var] for var in workloads.BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
        "seed": seed,
    }


# ------------------------------------------------------------ measured pieces


def setup_seconds(name: str, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters (see ``setup_probe.py``)."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), name]
    return [
        float(subprocess.run(probe, capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(count)
    ]


def _one_batch(s: workloads.SetUp, seed: int) -> np.ndarray:
    """Row indices of one training batch, drawn from ``seed``."""
    return numkit.make_rng(seed).permutation(len(s.train_set))[: s.cfg.batch_size]


def step_peak_kib(s: workloads.SetUp, seed: int) -> float:
    """tracemalloc peak over one ``loss_and_grad`` at the workload's batch size."""
    idx = _one_batch(s, seed)
    batch = list(zip(s.train_set.inputs[idx], s.train_set.targets[idx]))
    network.loss_and_grad(s.model, batch, s.cfg)  # fill first-call caches
    tracemalloc.start()
    try:
        network.loss_and_grad(s.model, batch, s.cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def check_blocks(s: workloads.SetUp, model: network.Model, seed: int, tally: Tally) -> None:
    """Check every block on one training batch from outside the solver.

    Each output must satisfy the block equation to ``solver_tol``, using
    ``block_fn``; on reversible workloads ``reconstruct_input`` must also
    give the input back to ``ROUND_TRIP_TOLS`` tolerances.
    """
    cfg = model.spec.block_config()
    h, theta, act, tol = cfg.h, cfg.theta, cfg.activation, cfg.solver_tol
    checks = len(model.blocks) * (2 if s.cfg.reversible else 1)
    try:
        _, tapes = network.model_forward(model, s.train_set.inputs[_one_batch(s, seed)].T)
    except ImplicitNetError:
        for _ in range(checks):
            tally.add(False)
        return
    for blk, tape in zip(model.blocks, tapes):
        residual = (
            tape.y
            - tape.x
            - h * (1.0 - theta) * implicitblock.block_fn(blk, act, tape.x)
            - h * theta * implicitblock.block_fn(blk, act, tape.y)
        )
        tally.add(float(np.abs(residual).max()) <= tol)
        if s.cfg.reversible:
            try:
                back = implicitblock.reconstruct_input(cfg, blk, tape.y)
            except ImplicitNetError:
                tally.add(False)
                continue
            tally.add(float(np.abs(back - tape.x).max()) <= ROUND_TRIP_TOLS * tol)


# ---------------------------------------------------------------------- modes


def shuffle_seed(seed: int, trial: int) -> int:
    """Shuffle seed of one timed trial, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def warm_start(tally: Tally, s: workloads.SetUp) -> float:
    """Train the set-up model as the config ships it; returns the final validation loss.

    This first trial is the quality guard: it runs from the config's own
    seeds, so its answer depends on the code alone. The model it leaves is
    where every timed trial starts.
    """
    record = network.train(s.model, s.train_set, s.val_set, s.cfg)
    tally.epochs(record, s.cfg.epochs)
    return record.val_loss[-1] if record.val_loss else sys.float_info.max


def trial(tally: Tally, s: workloads.SetUp, seed: int, index: int) -> network.Model:
    """Train a copy of the warm model for one trial with a seeded shuffle."""
    model = copy.deepcopy(s.model)
    cfg = replace(s.cfg, seed=shuffle_seed(seed, index))
    tally.epochs(network.train(model, s.train_set, s.val_set, cfg), cfg.epochs)
    return model


def measure(name: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics from untraced runs; returns (metrics, details)."""
    setup_s = setup_seconds(name, SETUP_PROBES // 2)
    s = workloads.set_up(name)
    final_val_loss = warm_start(tally, s)
    peak_kib = step_peak_kib(s, seed)

    clock = EpochClock()
    epoch_s: list[float] = []
    trials = 0
    deadline = perf_counter() + seconds
    with clock.installed():
        while trials == 0 or perf_counter() < deadline:
            clock.marks = [perf_counter()]
            model = trial(tally, s, seed, trials)
            epoch_s.extend(np.diff(clock.marks))
            trials += 1
    check_blocks(s, model, seed, tally)
    setup_s += setup_seconds(name, SETUP_PROBES - SETUP_PROBES // 2)

    epoch_ms = np.asarray(epoch_s) * 1e3
    metrics = {
        "setup_s": statistics.median(setup_s),
        "train_samples_per_s": len(epoch_s) * len(s.train_set) / sum(epoch_s),
        "step_peak_kib": peak_kib,
        "final_val_loss": final_val_loss,
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }
    details = {
        "trials": trials,
        "epochs_per_trial": s.cfg.epochs,
        "timed_epochs": len(epoch_ms),
        "ungated": {
            "epoch_ms_p50": [float(np.percentile(epoch_ms, 50)), "ms"],
            "epoch_ms_p90": [float(np.percentile(epoch_ms, 90)), "ms"],
        },
        "epoch_ms": epoch_ms.tolist(),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def measure_traced(name: str, seed: int, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics from one traced trial; returns (metrics, details)."""
    spans = tracer.Tracer()
    with spans.installed():
        s = workloads.set_up(name)
    warm_start(tally, s)

    # Untraced and traced copies of one trial alternate, and the fastest of
    # each gives the overhead; only the first traced copy keeps its spans.
    untraced_s, traced_s = [], []
    for rep in range(OVERHEAD_PAIRS):
        t0 = perf_counter()
        trial(tally, s, seed, 0)
        untraced_s.append(perf_counter() - t0)
        with (spans if rep == 0 else tracer.Tracer()).installed():
            t0 = perf_counter()
            model = trial(tally, s, seed, 0)
            traced_s.append(perf_counter() - t0)
    check_blocks(s, model, seed, tally)

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
    spans.write(span_file)
    overhead_pct = 100.0 * (min(traced_s) - min(untraced_s)) / min(untraced_s)
    details = {
        "epochs": s.cfg.epochs,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(spans.spans),
        "span_file": str(span_file.relative_to(workloads.ROOT)),
    }
    return tracer.layer_metrics(spans.spans, overhead_pct), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment(args.seed)
    tally = Tally()
    reference_ms = [reference_slice_ms() for _ in range(REFERENCE_SLICES)]
    if args.trace:
        metrics, details = measure_traced(args.workload, args.seed, tally)
    else:
        metrics, details = measure(args.workload, args.seed, args.seconds, tally)
    reference_ms += [reference_slice_ms() for _ in range(REFERENCE_SLICES)]

    correct = tally.failed == 0
    doc = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "reference_loop_ms": reference_ms,
        "details": details,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    print(f"  reference loop ms per slice: {' '.join(f'{t:.1f}' for t in reference_ms)}")
    for key, value in details.items():
        if key not in ("epoch_ms", "ungated"):
            print(f"  {key}: {value}")
    print(f"  error_rate: {doc['error_rate']:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    for key, (value, unit) in details.get("ungated", {}).items():
        print(f"  {key:<44} {value:>14.6g} {unit} (not gated)")
    print(f"  results: {out_file.relative_to(workloads.ROOT)}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

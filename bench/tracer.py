"""Outside-in tracing of the package's layers.

The tracer replaces the public functions of each layer with wrappers that
record a span (name, start, end, parent) around every call, keeps the spans
in memory and writes them out when the run ends. The package itself is not
changed: callers reach these functions through module attributes, so
patching the attributes is enough.

``ActivationKind.apply`` is wrapped as a counter, not a span: each call is
one evaluation of F and is charged to the innermost open span, which makes
``f_evals_per_call`` of a block solve equal its solver sweeps plus one.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter
from unittest import mock

import numpy as np

import workloads
from implicitnet import cli, implicitblock, network, numkit
from implicitnet.errors import SingularMatrixError

# Per-layer metrics of the traced run: span name -> statistics reported.
LAYER_METRICS = {
    "implicitblock.forward": ("calls", "self_ms", "self_pct", "us_p50", "f_evals_per_call"),
    "implicitblock.reconstruct_input": ("calls", "self_ms", "self_pct", "us_p50", "f_evals_per_call"),
    "implicitblock.backward": ("calls", "self_ms", "self_pct", "us_p50"),
    "implicitblock.make_tape": ("calls", "self_ms"),
    "numkit.solve_many": ("calls", "systems", "singular", "self_ms", "self_pct"),
    "numkit.lu_solve": ("calls",),
    "network.train": ("self_ms",),
    "network.regularizer": ("calls", "self_ms"),
    "network.evaluate": ("calls", "ms_p50"),
    "cli.load_experiment": ("ms",),
    "datasets.build": ("ms",),
    "network.init_model": ("ms",),
}
STAT_UNITS = {
    "calls": "count",
    "systems": "count",
    "singular": "count",
    "self_ms": "ms",
    "self_pct": "%",
    "us_p50": "us",
    "ms_p50": "ms",
    "ms": "ms",
    "f_evals_per_call": "count/call",
}
OVERHEAD = "trace.overhead_pct"

# Field order of one span record.
NAME, START, END, PARENT, F_EVALS, SYSTEMS, RAISED = range(7)

# (module, attribute) of each traced function; the span is named
# "<module>.<attribute>". ``workloads.build_data`` is the dataset layer.
TRACED = (
    (cli, "load_experiment"),
    (workloads, "build_data"),
    (network, "init_model"),
    (network, "train"),
    (network, "evaluate"),
    (network, "regularizer"),
    (implicitblock, "forward"),
    (implicitblock, "backward"),
    (implicitblock, "reconstruct_input"),
    (implicitblock, "make_tape"),
    (numkit, "solve_many"),
    (numkit, "lu_solve"),
)
SPAN_NAMES = {"workloads.build_data": "datasets.build"}


def _stack_depth(mats, *_args) -> int:
    """Linear systems in one ``solve_many`` call."""
    return int(np.shape(mats)[0]) if np.ndim(mats) == 3 else 1


# Functions whose spans also count the linear systems they solve.
SYSTEM_COUNTS = {"numkit.solve_many": _stack_depth}


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, systems=None):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0, systems(*args) if systems else 0, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[RAISED] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                self._open.pop()

        return traced

    def count_evals(self, apply):
        def counted(act, u):
            if self._open:
                self.spans[self._open[-1]][F_EVALS] += 1
            return apply(act, u)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block.

        A function the package no longer has is skipped; its metrics then
        read zero calls.
        """
        with contextlib.ExitStack() as stack:
            for module, attr in TRACED:
                if not hasattr(module, attr):
                    continue
                full = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                name = SPAN_NAMES.get(full, full)
                stack.enter_context(mock.patch.object(module, attr, self.wrap(name, getattr(module, attr), SYSTEM_COUNTS.get(name))))
            apply = implicitblock.ActivationKind.apply
            stack.enter_context(mock.patch.object(implicitblock.ActivationKind, "apply", self.count_evals(apply)))
            yield self

    def write(self, path) -> None:
        """One JSON header line naming the fields, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "f_evals", "systems", "raised"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self time, per-call durations and counts.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "f_evals": 0, "systems": 0, "singular": 0}
    )
    for rec, child in zip(spans, child_s):
        dur = rec[END] - rec[START]
        s = out[rec[NAME]]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child
        s["durations"].append(dur)
        s["f_evals"] += rec[F_EVALS]
        s["systems"] += rec[SYSTEMS]
        s["singular"] += rec[RAISED] == SingularMatrixError.__name__
    return out


def layer_metrics(spans: list[list], overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Shares are of the time spent inside ``network.train`` spans.
    """
    summary = summarize(spans)
    train_s = summary["network.train"]["total_s"]
    out = {}
    for name, stats in LAYER_METRICS.items():
        s = summary[name]
        calls = s["calls"]
        values = {
            "calls": calls,
            "systems": s["systems"],
            "singular": s["singular"],
            "self_ms": s["self_s"] * 1e3,
            "self_pct": 100.0 * s["self_s"] / train_s if train_s else 0.0,
            "us_p50": float(np.median(s["durations"])) * 1e6 if calls else 0.0,
            "ms_p50": float(np.median(s["durations"])) * 1e3 if calls else 0.0,
            "ms": s["total_s"] * 1e3,
            "f_evals_per_call": s["f_evals"] / calls if calls else 0.0,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = (values[stat], STAT_UNITS[stat])
    out[OVERHEAD] = (overhead_pct, "%")
    return out

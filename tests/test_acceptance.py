"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 5 and 6 train real models over five seeds each and dominate the
runtime of the suite (a few minutes); everything is seeded and bitwise
deterministic, so their outcomes are exactly reproducible. They run the
comparison that ``scripts/seed_sweep.py`` defines (its configs, thetas and
per-seed scoring) and apply their own thresholds to its results.
"""

import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from implicitnet import numkit
from implicitnet.cli import load_experiment
from implicitnet.errors import SolverDivergedError
from implicitnet.implicitblock import (
    ActivationKind,
    BlockStack,
    ImplicitBlockConfig,
    WeightMode,
    backward,
    forward,
    reconstruct_input,
)
from implicitnet.network import (
    LossKind,
    ModelSpec,
    TrainFailure,
    TrainRecord,
    _loss_and_grad_arrays,
    evaluate,
    init_model,
    param_count,
)
from implicitnet.stabilitylab import SchemeKind, TestSystem, energy, integrate, spectral_report

# Criteria 5 and 6 run the seed sweep's own comparison code.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from seed_sweep import CONFIGS, COMPARISONS, load, regression_run, spiral_run  # noqa: E402


def sweep(task, run, seeds):
    """``run``'s result per seed, for each arm (implicit, explicit) of ``COMPARISONS[task]``."""
    arms = [load(name, theta, epochs=None) for name, theta in COMPARISONS[task]]
    return [[run(*arm, seed) for seed in seeds] for arm in arms]


def report(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_spectral_radius_formulas():
    with Timer() as t:
        grid = np.linspace(0.0, 3.0, 301)
        worst = 0.0
        for x in grid:
            x = float(x)
            expected = {
                SchemeKind.FORWARD_EULER: math.sqrt(1.0 + x * x),
                SchemeKind.BACKWARD_EULER: 1.0 / math.sqrt(1.0 + x * x),
                SchemeKind.TRAPEZOIDAL: 1.0,
            }
            for scheme, want in expected.items():
                got = spectral_report(scheme, x).spectral_radius
                worst = max(worst, abs(got - want))
            rho_v = spectral_report(SchemeKind.VERLET, x).spectral_radius
            if x <= 2.0:
                worst = max(worst, abs(rho_v - 1.0))
            else:
                assert rho_v > 1.0, f"Verlet not unstable at h*omega={x}"
    ok = worst <= 1e-10 and t.elapsed < 1.0
    report(1, ok, f"max radius error {worst:.2e}, {t.elapsed:.2f}s")


def test_criterion_2_phase_diagram_regimes():
    with Timer() as t:
        sys = TestSystem(50.0)
        h, steps = 0.01, 2000

        def energies(traj):
            return energy(sys, traj.states[:, 0], traj.states[:, 1])

        fe = integrate(SchemeKind.FORWARD_EULER, sys, 0.0, 0.02, h, steps)
        fe_ok = bool(np.all(np.diff(energies(fe)) > 0))

        be = integrate(SchemeKind.BACKWARD_EULER, sys, 0.0, 0.02, h, steps)
        be_ok = bool(np.all(np.diff(energies(be)) < 0))

        tr = integrate(SchemeKind.TRAPEZOIDAL, sys, 0.0, 0.02, h, steps)
        tr_dev = float(np.abs(energies(tr) / energies(tr)[0] - 1.0).max())
        tr_ok = not tr.diverged and tr_dev <= 1e-10

        v_stable = integrate(SchemeKind.VERLET, sys, 0.0, 0.02, h, steps)
        bound = 10.0 * math.sqrt(energy(sys, 0.0, 0.02))
        v_ok = not v_stable.diverged and float(np.abs(v_stable.states).max()) <= bound

        v_unstable = integrate(SchemeKind.VERLET, sys, 0.0, 0.02, 0.05, 1000)
        vu_ok = v_unstable.diverged and v_unstable.steps < 1000
    ok = fe_ok and be_ok and tr_ok and v_ok and vu_ok and t.elapsed < 1.0
    report(
        2,
        ok,
        f"FE grow {fe_ok}, BE shrink {be_ok}, TR dev {tr_dev:.1e}, "
        f"Verlet bounded {v_ok} / divergent {vu_ok}, {t.elapsed:.2f}s",
    )


def _block_grad_max_err(cfg, params, x, probe, fd_step=1e-6):
    """Max relative FD error over grad_x, grad_a, grad_b for probe @ y."""

    def value():
        y, _ = forward(cfg, params, x)
        return float(probe @ y)

    y, tape = forward(cfg, params, x)
    gx, ga, gb = backward(cfg, params, tape, probe)
    worst = 0.0
    for arr, grad in ((params.a[0], ga), (params.b[0], gb), (x, gx)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            save = arr[idx]
            arr[idx] = save + fd_step
            up = value()
            arr[idx] = save - fd_step
            down = value()
            arr[idx] = save
            num = (up - down) / (2 * fd_step)
            worst = max(worst, abs(float(np.asarray(grad)[idx]) - num) / (1.0 + abs(num)))
    return worst


def test_criterion_3_gradient_exactness():
    with Timer() as t:
        combos = list(
            itertools.product((1, 3, 5), (0.0, 0.25, 0.5, 0.75), (0.05, 0.1, 0.5))
        )
        rng = numkit.make_rng(20240613)
        picks = rng.choice(len(combos), size=20, replace=False)
        worst = 0.0
        for i, pick in enumerate(picks):
            n, theta, h = combos[int(pick)]
            act = ActivationKind.TANH if i % 2 == 0 else ActivationKind.IDENTITY
            mode = WeightMode.SKEW_SYMMETRIC if i % 3 == 0 else WeightMode.RAW
            params = BlockStack(
                [numkit.glorot_uniform(rng, n, n)], [rng.uniform(-0.5, 0.5, n)], mode
            )
            if theta > 0:
                norm = np.abs(params.effective_weight()[0]).sum(axis=1).max()
                if h * theta * norm > 0.5:
                    params.a[...] *= 0.5 / (h * theta * norm)
            cfg = ImplicitBlockConfig(theta=theta, h=h, activation=act)
            err = _block_grad_max_err(cfg, params, rng.standard_normal(n), rng.standard_normal(n))
            worst = max(worst, err)
        sweep_ok = worst <= 1e-5

        # Reduced published weight-gradient formula must fail on the same kind
        # of instance, and the scalar case must reproduce the analytic values.
        scal = BlockStack(np.array([[[0.5]]]), np.zeros((1, 1)))
        cfg = ImplicitBlockConfig(theta=0.5, h=1.0, activation=ActivationKind.IDENTITY)
        y, tape = forward(cfg, scal, np.array([1.0]))
        gx, ga, _ = backward(cfg, scal, tape, np.array([1.0]))
        scalar_ok = abs(gx[0] - 5.0 / 3.0) <= 1e-9 and abs(ga[0, 0] - 16.0 / 9.0) <= 1e-9

        cfg_paper = ImplicitBlockConfig(
            theta=0.5, h=1.0, activation=ActivationKind.IDENTITY, paper_param_grad=True
        )
        err_paper = _block_grad_max_err(cfg_paper, scal, np.array([1.0]), np.array([1.0]))
        paper_fails = err_paper > 0.1
    ok = sweep_ok and scalar_ok and paper_fails and t.elapsed < 30.0
    report(
        3,
        ok,
        f"sweep max rel err {worst:.2e}, scalar 5/3 & 16/9 {scalar_ok}, "
        f"reduced-formula err {err_paper:.3f} > 0.1, {t.elapsed:.1f}s",
    )


def test_criterion_4_parameter_counts():
    deep, _, _, _ = load_experiment(CONFIGS / "ex1_resnet.json")
    shallow, _, _, _ = load_experiment(CONFIGS / "ex1_trapezoidal.json")
    c_deep = param_count(init_model(deep, 0), blocks_only=True)
    c_shallow = param_count(init_model(shallow, 0), blocks_only=True)
    ok = c_deep == 3000 and c_shallow == 300
    report(4, ok, f"depth-100 width-5 blocks {c_deep}, depth-10 width-5 blocks {c_shallow}")


EX1_SEEDS = range(5)


def test_criterion_5_regression_stability_claim():
    with Timer() as t:
        implicit, explicit = sweep("regression", regression_run, EX1_SEEDS)
        initial, final, val_imp = zip(*implicit)
        implicit_clean = all(math.isfinite(f) for f in final)
        ratio = float(np.median(final) / np.median(initial)) if implicit_clean else math.inf
        implicit_ok = implicit_clean and ratio <= 0.1

        med_imp = float(np.median(val_imp))
        # The explicit network of the same depth and budget.
        med_exp = float(np.median([val for _, _, val in explicit]))
        explicit_ok = med_exp >= 2.0 * med_imp
    ok = implicit_ok and explicit_ok and t.elapsed < 300.0
    report(
        5,
        ok,
        f"implicit MSE ratio {ratio:.4f} (<=0.1), no divergence {implicit_clean}, "
        f"explicit val {med_exp:.4f} vs 2x implicit {2 * med_imp:.4f}, {t.elapsed:.0f}s",
    )


def test_criterion_6_spirals_comparative_claim():
    with Timer() as t:
        acc_imp, acc_exp = (float(np.median(accs)) for accs in sweep("spirals", spiral_run, range(5)))
    ok = acc_imp >= acc_exp and acc_imp >= 0.75 and t.elapsed < 600.0
    report(
        6,
        ok,
        f"median accuracy implicit {acc_imp:.4f} vs explicit {acc_exp:.4f}, "
        f"threshold 0.75, {t.elapsed:.0f}s",
    )


def test_diverged_runs_fail_the_comparison(monkeypatch, capsys):
    """A run that stops early scores (initial, inf, inf) or accuracy 0.0, and fails criterion 5."""
    failure = TrainFailure(1, 1, SolverDivergedError("no convergence"))
    monkeypatch.setattr("seed_sweep.train", lambda *args: TrainRecord([], [], None, failure))

    spec, cfg, (train_set, val_set) = load(*COMPARISONS["regression"][0], epochs=None)
    initial = evaluate(init_model(spec, 0), train_set.inputs, train_set.targets, cfg.loss)[0]
    assert regression_run(spec, cfg, (train_set, val_set), 0) == (initial, math.inf, math.inf)
    assert spiral_run(*load(*COMPARISONS["spirals"][0], epochs=None), 0) == 0.0

    with pytest.raises(AssertionError):
        test_criterion_5_regression_stability_claim()
    assert "no divergence False" in capsys.readouterr().out


def test_criterion_7_reversible_training_equivalence():
    with Timer() as t:
        spec = ModelSpec(
            input_dim=1,
            hidden_dim=5,
            output_dim=1,
            depth=10,
            theta=0.5,
            activation=ActivationKind.TANH,
            weight_mode=WeightMode.SKEW_SYMMETRIC,
        )
        m = init_model(spec, 7)
        rng = numkit.make_rng(99)
        worst_grad = 0.0
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, (1, 8))
            tt = rng.uniform(-1.0, 1.0, (1, 8))
            _, _, g_tape, _ = _loss_and_grad_arrays(m, x, tt, LossKind.SQUARED_ERROR, False)
            _, _, g_rev, _ = _loss_and_grad_arrays(m, x, tt, LossKind.SQUARED_ERROR, True)
            for a, b in zip(g_tape, g_rev):
                denom = 1.0 + float(np.abs(a).max())
                worst_grad = max(worst_grad, float(np.abs(a - b).max()) / denom)
        grads_ok = worst_grad <= 1e-6

        # per-layer inversion round trip
        cfg = spec.block_config()
        worst_rt = 0.0
        for blk in m.blocks:
            x = rng.uniform(-1.0, 1.0, 5)
            y, _ = forward(cfg, blk, x)
            back = reconstruct_input(cfg, blk, y)
            worst_rt = max(worst_rt, float(np.abs(back - x).max()))
        rt_ok = worst_rt <= 10.0 * cfg.solver_tol
    ok = grads_ok and rt_ok and t.elapsed < 30.0
    report(
        7,
        ok,
        f"grad dev {worst_grad:.2e} (<=1e-6), round trip {worst_rt:.2e} "
        f"(<=1e-9), {t.elapsed:.1f}s",
    )


def test_criterion_8_linear_block_closed_form():
    with Timer() as t:
        rng = numkit.make_rng(4242)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 9))
            theta = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.05, 0.6))
            params = BlockStack(
                [numkit.glorot_uniform(rng, n, n)], [rng.uniform(-0.5, 0.5, n)]
            )
            norm = np.abs(params.a[0]).sum(axis=1).max()
            if h * theta * norm > 0.5:
                params.a[...] *= 0.5 / (h * theta * norm)
            cfg = ImplicitBlockConfig(theta=theta, h=h, activation=ActivationKind.IDENTITY)
            x = rng.standard_normal(n)
            y, _ = forward(cfg, params, x)
            w = params.effective_weight()[0]
            lhs = np.eye(n) - theta * h * w
            rhs = (np.eye(n) + (1.0 - theta) * h * w) @ x + h * params.b[0]
            expected = np.linalg.solve(lhs, rhs)
            worst = max(
                worst,
                float(np.abs(y - expected).max()) / (1.0 + float(np.abs(expected).max())),
            )
    ok = worst <= 1e-12 and t.elapsed < 1.0
    report(8, ok, f"max closed-form deviation {worst:.2e}, {t.elapsed:.2f}s")

import contextlib
import dataclasses
import gc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitnet import implicitblock, network, numkit
from implicitnet.cli import build_data, load_experiment
from implicitnet.errors import (
    DimensionMismatchError,
    SingularMatrixError,
    SolverDivergedError,
)
from implicitnet.implicitblock import (
    SWEEP_RATE,
    ActivationKind,
    BlockParams,
    BlockStack,
    ImplicitBlockConfig,
    TapeEntry,
    WeightMode,
    backward,
    block_fn,
    forward,
    make_tape,
    pull_back_rebuilt,
    pull_back_stack,
    reconstruct_input,
    solve_stack,
)


REPO = Path(__file__).resolve().parent.parent


def scalar_block(w=0.5, theta=0.5, h=1.0, **kw):
    params = BlockParams(np.array([[w]]), np.zeros(1))
    cfg = ImplicitBlockConfig(theta=theta, h=h, activation=ActivationKind.IDENTITY, **kw)
    return cfg, params


@pytest.fixture
def f_evals(monkeypatch):
    """A list that grows by one entry per evaluation of an activation."""
    calls = []
    apply = ActivationKind.apply

    def counted(act, u):
        calls.append(1)
        return apply(act, u)

    monkeypatch.setattr(ActivationKind, "apply", counted)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by the number of systems of each ``solve_many`` call."""
    calls = []
    solve_many = numkit.solve_many

    def counted(mats, rhs):
        calls.append(len(mats))
        return solve_many(mats, rhs)

    monkeypatch.setattr(numkit, "solve_many", counted)
    return calls


@pytest.fixture
def reads(monkeypatch):
    """A list that grows by one entry per residual read of the sweeps."""
    calls = []
    residual = implicitblock._residual

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(implicitblock, "_residual", counted)
    return calls


@contextlib.contextmanager
def exact_solves():
    """Check every pair ``(z, F(z))`` that ``_solve_fixed_point`` returns.

    ``F(z)`` must be bitwise what ``act(W z + b)`` makes from the returned
    ``z``, and the pair must meet ``SOLVER_TOL`` by the residual that the
    sweeps or Newton compute from it. Yields a list that grows by one entry
    per checked pair.
    """
    pairs = []
    solve = implicitblock._solve_fixed_point

    def checked(act, w, b, c, alpha, *args):
        z, fz = solve(act, w, b, c, alpha, *args)
        assert np.array_equal(fz, act.apply(implicitblock._affine(w, b, z)))
        swept = np.abs(np.multiply(fz, alpha) + c - z).max()
        newton = np.abs(z - c - alpha * fz).max()
        assert swept <= implicitblock.SOLVER_TOL or newton <= implicitblock.SOLVER_TOL, (swept, newton)
        pairs.append(1)
        return z, fz

    with mock.patch.object(implicitblock, "_solve_fixed_point", checked):
        yield pairs


def random_block(rng, n, mode=WeightMode.RAW, act=ActivationKind.TANH, theta=0.5, h=0.1, scale_to=None):
    a = numkit.glorot_uniform(rng, n, n)
    b = rng.uniform(-0.5, 0.5, n)
    params = BlockParams(a, b, mode)
    if scale_to is not None and theta > 0:
        w = params.effective_weight()
        norm = np.abs(w).sum(axis=1).max()
        if h * theta * norm > scale_to:
            params.a *= scale_to / (h * theta * norm)
    cfg = ImplicitBlockConfig(theta=theta, h=h, activation=act)
    return cfg, params


class TestActivationApply:
    REFERENCE = {
        ActivationKind.IDENTITY: lambda u: u.copy(),
        ActivationKind.RELU: lambda u: np.maximum(u, 0.0),
        ActivationKind.TANH: np.tanh,
        # The two branches keep exp from overflowing on either side.
        ActivationKind.SIGMOID: lambda u: np.where(
            u >= 0, 1.0 / (1.0 + np.exp(-np.abs(u))), np.exp(-np.abs(u)) / (1.0 + np.exp(-np.abs(u)))
        ),
    }

    @pytest.mark.parametrize("act", list(ActivationKind))
    def test_writes_over_its_argument(self, act):
        u = numkit.make_rng(3).uniform(-800.0, 800.0, (4, 5))
        u[0, :3] = [-1.5, 0.0, 2.0]
        expected = self.REFERENCE[act](u)
        got = act.apply(u)
        assert got is u
        assert np.array_equal(u, expected)


class TestEffectiveWeight:
    def skew(self, a):
        return BlockParams(a, np.zeros(len(a)), WeightMode.SKEW_SYMMETRIC).effective_weight()

    def test_hand_case(self):
        np.testing.assert_array_equal(self.skew([[1.0, 2.0], [3.0, 4.0]]), [[0.0, -1.0], [1.0, 0.0]])

    def test_symmetric_gives_zero(self):
        a = np.array([[2.0, 5.0], [5.0, -1.0]])
        np.testing.assert_array_equal(self.skew(a), np.zeros((2, 2)))

    def test_skew_input_doubles(self):
        a = np.array([[0.0, 3.0], [-3.0, 0.0]])
        np.testing.assert_array_equal(self.skew(a), 2 * a)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_quadratic_form_vanishes(self, seed, n):
        rng = numkit.make_rng(seed)
        w = self.skew(rng.standard_normal((n, n)))
        assert np.abs(w + w.T).max() == 0.0
        for _ in range(5):
            v = rng.standard_normal(n)
            assert abs(v @ w @ v) <= 1e-12 * (v @ v) * max(np.abs(w).max(), 1.0)

    def test_stack_allocates_only_its_result(self, peak_kib):
        # Subtracting the transposed view directly buffered a hidden copy
        # of the whole stack, doubling the allocation.
        rng = numkit.make_rng(5)
        stack = BlockStack(rng.standard_normal((100, 6, 6)), np.zeros((100, 6)), WeightMode.SKEW_SYMMETRIC)
        w = stack.effective_weight()
        assert np.array_equal(w, stack.a - stack.a.swapaxes(1, 2))
        assert peak_kib(stack.effective_weight) <= w.nbytes / 1024 + 1.0


class TestBlockFn:
    def test_zero_map(self):
        p = BlockParams(np.zeros((2, 2)), np.zeros(2))
        np.testing.assert_array_equal(
            block_fn(p, ActivationKind.IDENTITY, np.array([3.0, -1.0])), [0.0, 0.0]
        )

    def test_scalar_affine(self):
        p = BlockParams(np.array([[0.5]]), np.zeros(1))
        np.testing.assert_array_equal(block_fn(p, ActivationKind.IDENTITY, np.array([1.0])), [0.5])

    def test_tanh_values(self):
        p = BlockParams(np.eye(2), np.zeros(2))
        out = block_fn(p, ActivationKind.TANH, np.array([0.0, 10.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.9999999958776927, abs=1e-15)

    def test_skew_mode_uses_skew_weight(self):
        p = BlockParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), WeightMode.SKEW_SYMMETRIC)
        out = block_fn(p, ActivationKind.IDENTITY, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_dimension_mismatch(self):
        p = BlockParams(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            block_fn(p, ActivationKind.TANH, np.ones(3))


def jacobian_x(params, act, v):
    """dF/dv at the state ``v`` as backward uses it: ``sx[:, 0, None] * w`` of a tape."""
    tape = make_tape(ImplicitBlockConfig(theta=0.5, h=1.0, activation=act), params, v, v)
    return tape.sx[:, 0, None] * tape.w


class TestBlockJacobian:
    def test_identity_activation_gives_weight(self):
        rng = numkit.make_rng(0)
        a = rng.standard_normal((3, 3))
        p = BlockParams(a, rng.standard_normal(3))
        np.testing.assert_array_equal(jacobian_x(p, ActivationKind.IDENTITY, rng.standard_normal(3)), a)

    def test_relu_dead_region_is_zero(self):
        p = BlockParams(np.eye(2), np.array([-5.0, -5.0]))
        j = jacobian_x(p, ActivationKind.RELU, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(j, np.zeros((2, 2)))

    @pytest.mark.parametrize("act", [ActivationKind.TANH, ActivationKind.SIGMOID])
    def test_matches_finite_differences(self, act):
        rng = numkit.make_rng(3)
        p = BlockParams(rng.standard_normal((4, 4)) * 0.6, rng.standard_normal(4) * 0.3)
        v = rng.standard_normal(4)
        j = jacobian_x(p, act, v)
        eps = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = eps
            col = (block_fn(p, act, v + e) - block_fn(p, act, v - e)) / (2 * eps)
            assert np.abs(j[:, k] - col).max() <= 1e-7


class TestForward:
    def test_theta_zero_is_explicit_step_bitwise(self):
        rng = numkit.make_rng(1)
        cfg, p = random_block(rng, 4, theta=0.0)
        x = rng.standard_normal(4)
        y, tape = forward(cfg, p, x)
        expected = x + cfg.h * block_fn(p, cfg.activation, x)
        assert np.array_equal(y, expected)
        assert tape.x is not y

    @pytest.mark.parametrize("shape", [(4,), (4, 5)])
    def test_theta_zero_evaluates_f_once(self, f_evals, shape):
        rng = numkit.make_rng(1)
        cfg, p = random_block(rng, 4, theta=0.0)
        _, tape = forward(cfg, p, rng.standard_normal(shape))
        assert len(f_evals) == 1
        assert tape.sy is None

    def test_scalar_fixed_point(self):
        cfg, p = scalar_block()
        y, _ = forward(cfg, p, np.array([1.0]))
        assert y[0] == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_zero_map_returns_input(self, f_evals, solves):
        # F is zero, so the start x + h F(x) is already the root. Every
        # block evaluates F at x and at the start and makes no linear
        # solve: identity and ReLU blocks read the start's residual in
        # Newton, tanh blocks in their first sweep. With a negative bias a
        # ReLU block's F is zero too.
        zero = BlockParams(np.zeros((3, 3)), np.zeros(3))
        cases = [(act, zero) for act in (ActivationKind.IDENTITY, ActivationKind.TANH, ActivationKind.RELU)]
        cases.append((ActivationKind.RELU, BlockParams(np.zeros((3, 3)), np.full(3, -0.5))))
        for act, p in cases:
            cfg = ImplicitBlockConfig(theta=0.7, h=0.3, activation=act)
            for x in (np.array([0.4, -1.2, 2.0]), numkit.make_rng(5).standard_normal((3, 4))):
                f_evals.clear()
                y, _ = forward(cfg, p, x)
                np.testing.assert_allclose(y, x, atol=1e-12)
                assert len(f_evals) == 2, (act, x.shape)
                assert solves == [], (act, x.shape)

    def test_residual_bound_holds(self):
        rng = numkit.make_rng(2)
        for n in (1, 3, 5):
            for theta in (0.25, 0.5, 0.75, 1.0):
                cfg, p = random_block(rng, n, theta=theta, h=0.4, scale_to=0.5)
                x = rng.standard_normal(n)
                y, _ = forward(cfg, p, x)
                r = y - x - cfg.h * (1 - theta) * block_fn(p, cfg.activation, x) \
                    - cfg.h * theta * block_fn(p, cfg.activation, y)
                assert np.abs(r).max() <= cfg.solver_tol

    @pytest.mark.parametrize("act, expected", [
        (ActivationKind.TANH, 0),
        (ActivationKind.RELU, 1),
        (ActivationKind.SIGMOID, 0),
        (ActivationKind.IDENTITY, 1),
    ])
    def test_nonlinear_block_starts_from_the_explicit_step(self, solves, act, expected):
        # h theta ||W||_inf <= 0.1: every sweep shrinks the residual at least
        # tenfold. Every block starts from x + h F(x), which needs no linear
        # solve. Tanh and sigmoid blocks then sweep to the tolerance and
        # Newton never runs; identity and ReLU blocks go to Newton straight
        # from the start, and one Newton step lands on the root.
        rng = numkit.make_rng(3)
        cfg, p = random_block(rng, 6, WeightMode.SKEW_SYMMETRIC, act, theta=0.5, h=0.5, scale_to=0.1)
        x = rng.standard_normal((6, 32))
        y, _ = forward(cfg, p, x)
        assert len(solves) == expected
        r = y - x - 0.5 * cfg.h * (block_fn(p, act, x) + block_fn(p, act, y))
        assert np.abs(r).max() <= cfg.solver_tol

    def test_random_blocks_in_the_papers_regime_all_solve(self):
        # theta = 0.5, skew-symmetric weights and h <= 0.6, as the bundled
        # trapezoidal configs use, with weights up to four times Glorot's
        # scale: every block must solve from the explicit start.
        rng = numkit.make_rng(2026)
        acts = [ActivationKind.TANH, ActivationKind.RELU, ActivationKind.SIGMOID]
        for _ in range(60):
            n, batch = int(rng.choice([5, 6])), int(rng.choice([1, 4, 32]))
            h, act = float(rng.choice([0.2, 0.6])), acts[int(rng.integers(3))]
            a = rng.uniform(0.5, 4.0) * numkit.glorot_uniform(rng, n, n)
            p = BlockParams(a, rng.uniform(-0.5, 0.5, n), WeightMode.SKEW_SYMMETRIC)
            cfg = ImplicitBlockConfig(theta=0.5, h=h, activation=act)
            x = rng.standard_normal((n, batch))
            y, _ = forward(cfg, p, x)
            r = y - x - 0.5 * h * (block_fn(p, act, x) + block_fn(p, act, y))
            assert np.abs(r).max() <= cfg.solver_tol, (n, batch, h, act)

    # A NaN Armijo constant fails every sufficient-decrease test. An
    # identity block's one full Newton step lands on the root and is taken
    # on the tolerance test alone, so the constant is never read: each solve
    # is one stacked solve and three F evaluations (F(x), F at the start and
    # F at the step).
    @pytest.mark.parametrize("armijo_c", [implicitblock.ARMIJO_C, float("nan")])
    def test_linear_block_matches_closed_form(self, monkeypatch, f_evals, solves, armijo_c):
        monkeypatch.setattr(implicitblock, "ARMIJO_C", armijo_c)
        rng = numkit.make_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            cfg, p = random_block(rng, n, act=ActivationKind.IDENTITY, theta=0.5, h=0.3, scale_to=0.5)
            w = p.effective_weight()
            x = rng.standard_normal(n)
            f_evals.clear()
            solves.clear()
            y, _ = forward(cfg, p, x)
            assert (len(solves), len(f_evals)) == (1, 3)
            lhs = np.eye(n) - cfg.theta * cfg.h * w
            rhs = (np.eye(n) + (1 - cfg.theta) * cfg.h * w) @ x + cfg.h * p.b
            expected = np.linalg.solve(lhs, rhs)
            assert np.abs(y - expected).max() <= 1e-12 * (1 + np.abs(expected).max())

    def test_singular_early_newton_recovers_when_consistent(self, solves):
        # Identity activation, W = diag(2, 0.2), theta = 0.5, h = 1: the
        # Newton matrix I - h theta W = diag(0, 0.9) is exactly singular, but
        # with x_1 = 0 the equation is still solvable. The start x + h F(x)
        # misses in its second row, so the early Newton meets the singular
        # matrix at once; the fallback sweeps contract at 0.1 per sweep and
        # solve it without Newton.
        p = BlockParams(np.diag([2.0, 0.2]), np.zeros(2))
        cfg = ImplicitBlockConfig(theta=0.5, h=1.0, activation=ActivationKind.IDENTITY)
        y, _ = forward(cfg, p, np.array([0.0, 1.0]))
        assert solves == [1]
        assert y[0] == 0.0
        assert abs(y[1] - 1.1 / 0.9) <= cfg.solver_tol

    def test_inconsistent_equation_diverges(self, f_evals):
        # y = x + x + y has no solution for x != 0.
        cfg, p = scalar_block(w=2.0)
        with pytest.raises(SolverDivergedError):
            forward(cfg, p, np.array([1.0]))
        # Neither the sweeps nor Newton may spin through SOLVER_MAX_ITER once
        # they stop making progress; the Newton matrix 1 - h theta W is
        # singular here, so Newton gives up at once.
        assert len(f_evals) <= 10

    def test_newton_finishes_slow_relu_sweeps(self, f_evals):
        # theta = 0.5, ReLU, skew weights and a large step: the activation
        # pattern changes between x and y, so the explicit start misses
        # and the sweeps contract at only 0.43-0.59 per sweep (checked
        # below). Sweeping from that start to the tolerance takes 30 F
        # evaluations here; Newton from the start takes 4: F(x), F at the
        # start and two full Newton steps.
        rng = numkit.make_rng(1)
        p = BlockParams(rng.standard_normal((4, 4)), rng.uniform(-0.5, 0.5, 4), WeightMode.SKEW_SYMMETRIC)
        h = 2.4 / np.abs(p.effective_weight()).sum(axis=1).max()
        cfg = ImplicitBlockConfig(theta=0.5, h=h, activation=ActivationKind.RELU)
        x = rng.standard_normal((4, 8))
        y, _ = forward(cfg, p, x)
        assert len(f_evals) <= 4
        base = x + 0.5 * h * block_fn(p, cfg.activation, x)
        assert np.abs(y - base - 0.5 * h * block_fn(p, cfg.activation, y)).max() <= cfg.solver_tol
        z, diffs = x, []
        for _ in range(8):
            z_next = base + 0.5 * h * block_fn(p, cfg.activation, z)
            diffs.append(np.abs(z_next - z).max())
            z = z_next
        assert min(d1 / d0 for d0, d1 in zip(diffs, diffs[1:])) > SWEEP_RATE

    def test_failed_early_newton_falls_back_to_sweeps(self, solves):
        # Raw ReLU weights at 3.89 times Glorot's scale, theta = 1, h = 0.6:
        # the three early Newton steps from the start x + h F(x) miss the
        # tolerance, so the solve makes that start again, sweeps from it and
        # hands over to Newton under the SWEEP_RATE rule, which solves it in
        # one more step.
        rng = numkit.make_rng(3)
        p = BlockParams(3.89 * numkit.glorot_uniform(rng, 5, 5), rng.uniform(-0.5, 0.5, 5))
        cfg = ImplicitBlockConfig(theta=1.0, h=0.6, activation=ActivationKind.RELU)
        x = rng.standard_normal((5, 1))
        y, _ = forward(cfg, p, x)
        assert len(solves) == implicitblock.EARLY_NEWTON_STEPS + 1
        assert np.abs(y - x - cfg.h * block_fn(p, cfg.activation, y)).max() <= cfg.solver_tol

    def test_fixed_point_contraction_rate(self):
        rng = numkit.make_rng(6)
        cfg, p = random_block(rng, 4, act=ActivationKind.TANH, theta=0.5, h=0.5, scale_to=0.45)
        x = rng.standard_normal(4)
        rate = cfg.h * cfg.theta * np.abs(p.effective_weight()).sum(axis=1).max()
        assert rate < 1.0
        base = x + cfg.h * (1 - cfg.theta) * block_fn(p, cfg.activation, x)
        y = x.copy()
        diffs = []
        for _ in range(12):
            y_next = base + cfg.h * cfg.theta * block_fn(p, cfg.activation, y)
            diffs.append(np.abs(y_next - y).max())
            y = y_next
        for k in range(1, len(diffs)):
            assert diffs[k] <= 1.01 * (rate**k) * diffs[0] + 1e-15

    def test_batched_columns_match_single_calls(self):
        rng = numkit.make_rng(8)
        cfg, p = random_block(rng, 3, theta=0.5, h=0.3)
        xb = rng.standard_normal((3, 6))
        yb, tape = forward(cfg, p, xb)
        assert tape.sx.shape == tape.sy.shape == (3, 6)
        for i in range(6):
            yi, _ = forward(cfg, p, xb[:, i])
            assert np.abs(yb[:, i] - yi).max() <= 1e-9


class TestSweepRuns:
    """The sweeps read the residual once per run, and only a read accepts."""

    def test_blown_up_training_returns_only_exact_pairs(self):
        # ex1_trapezoidal from init and shuffle seed 374 blows up in its
        # first epoch, with states up to 1e16 in ReLU blocks whose early
        # Newton misses and which then sweep. There a sweep moves the
        # pre-activation by less than the tolerance while z still moves by
        # more: accepted on that estimate, two solves returned residuals of
        # 1.0 and 1.7e10.
        spec, cfg, data_cfg, _ = load_experiment(REPO / "configs" / "ex1_trapezoidal.json")
        train_set, val_set = build_data(data_cfg)
        with exact_solves() as pairs:
            rec = network.train(network.init_model(spec, 374), train_set, val_set, dataclasses.replace(cfg, seed=374))
        assert isinstance(rec.failure.error, SolverDivergedError)
        assert pairs

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(list(ActivationKind)),
        st.sampled_from([0.5, 1.0]),
        st.sampled_from(list(WeightMode)),
        st.integers(0, 18),
        st.integers(0, 2**32 - 1),
    )
    def test_every_returned_pair_is_exact(self, act, theta, mode, exponent, seed):
        # Weights at 0.5-4 times Glorot's scale, h = 0.2 and inputs of
        # scale 1 to 1e18, forward and back: a solve may fail, but every
        # pair it returns is exact. About one draw in twelve has an
        # identity or ReLU block sweep at a scale where an estimate would
        # accept a pair whose residual misses the tolerance.
        rng = numkit.make_rng(seed)
        n, batch = int(rng.choice([5, 6])), int(rng.choice([1, 4, 32]))
        a = rng.uniform(0.5, 4.0) * numkit.glorot_uniform(rng, n, n)
        p = BlockParams(a, rng.uniform(-0.5, 0.5, n), mode)
        cfg = ImplicitBlockConfig(theta=theta, h=0.2, activation=act)
        x = 10.0**exponent * rng.standard_normal((n, batch))
        with exact_solves(), np.errstate(over="ignore", invalid="ignore"):
            try:
                y, _ = forward(cfg, p, x)
                reconstruct_input(cfg, p, y)
            except SolverDivergedError:
                pass

    def test_warm_spirals_block_reads_three_residuals(self, f_evals, reads):
        # Block 3 of the spirals model (n = 6, B = 32, theta = 0.5,
        # h = 0.2, tanh) once warm: the start's read, the rate read one
        # sweep later and the read that ends the one predicted run. The run
        # is longer than the prediction by RUN_MARGIN, which costs at most
        # two F evaluations over a rule that reads after every sweep.
        spec, cfg, data_cfg, _ = load_experiment(REPO / "configs" / "ex2_trapezoidal.json")
        train_set, val_set = build_data(data_cfg)
        m = network.init_model(spec, cfg.seed)
        network.train(m, train_set, val_set, dataclasses.replace(cfg, epochs=5, reversible=True))
        _, tapes = network.model_forward(m, train_set.inputs[:32].T)
        block_cfg, p, x = m.spec.block_config(), m.blocks[3], tapes[3].x.copy()
        assert (block_cfg.theta, block_cfg.h, x.shape) == (0.5, 0.2, (6, 32))
        per_sweep = 1 + self.sweeps_read_one_by_one(block_cfg, p, x)
        f_evals.clear()
        reads.clear()
        forward(block_cfg, p, x)
        assert len(reads) <= 3
        assert len(f_evals) <= per_sweep + 2, (len(f_evals), per_sweep)

    @staticmethod
    def sweeps_read_one_by_one(cfg, p, x):
        """The sweeps a solve takes from ``x + h F(x)`` if it reads after every sweep."""
        fx = block_fn(p, cfg.activation, x)
        c = x + cfg.coef_x * fx
        z = x + cfg.coef_h * fx
        for k in range(1, implicitblock.SOLVER_MAX_ITER + 2):
            z_next = c + cfg.coef_y * block_fn(p, cfg.activation, z)
            if np.abs(z_next - z).max() <= cfg.solver_tol:
                return k
            z = z_next
        raise AssertionError("the sweeps did not converge")

    def test_slow_run_hands_over_after_the_rate_read(self, reads, solves):
        # tanh is nearly the identity near 0, so with alpha W = 0.6 I the
        # sweeps contract at about 0.6 per sweep, above SWEEP_RATE: the
        # start's read and the rate read one sweep later are the only
        # reads, and Newton finishes the solve.
        p = BlockParams(1.2 * np.eye(3), np.zeros(3))
        cfg = ImplicitBlockConfig(theta=0.5, h=1.0, activation=ActivationKind.TANH)
        x = np.array([0.05, -0.02, 0.01])
        y, _ = forward(cfg, p, x)
        assert len(reads) == 2
        assert solves
        r = y - x - 0.5 * (block_fn(p, cfg.activation, x) + block_fn(p, cfg.activation, y))
        assert np.abs(r).max() <= cfg.solver_tol


class TestSolveStack:
    """``solve_stack`` runs every block in one loop, into a tape or into two
    state rows that take turns."""

    @staticmethod
    def stack(depth, theta, seed=11, n=4, mode=WeightMode.RAW):
        rng = numkit.make_rng(seed)
        cfg = ImplicitBlockConfig(theta=theta, h=0.3, activation=ActivationKind.TANH)
        blocks = BlockStack(rng.uniform(-0.8, 0.8, (depth, n, n)), rng.uniform(-0.5, 0.5, (depth, n)), mode)
        return cfg, blocks, rng.standard_normal((n, 5))

    # Depth 3 goes back to the first state row, so both rows take a turn.
    # Without a tape, skew-symmetric weights are made one block at a time
    # at theta = 0.5 and all at once at theta = 0, where nothing is solved.
    @pytest.mark.parametrize("mode", [WeightMode.RAW, WeightMode.SKEW_SYMMETRIC])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_no_tape_forward_equals_tape_forward_bitwise(self, theta, depth, mode):
        cfg, blocks, x = self.stack(depth, theta, mode=mode)
        y_tape, tape = solve_stack(cfg, blocks, x, True)
        y_rows, none = solve_stack(cfg, blocks, x, False)
        assert none is None
        assert np.array_equal(y_tape, y_rows)
        assert np.array_equal(y_tape, tape.y[-1])
        assert (tape.sy is None) == (theta == 0.0)
        assert np.array_equal(tape.w, blocks.effective_weight())
        # Each block's output is its forward on the block's own input.
        for i in range(depth):
            y, _ = forward(cfg, blocks[i], tape.x[i])
            assert np.array_equal(y, tape.y[i])

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_last_state_keeps_no_tape_or_row_alive(self, theta):
        cfg, blocks, x = self.stack(3, theta)
        y, tape = solve_stack(cfg, blocks, x, True)
        states = weakref.ref(tape.y.base)
        del tape
        gc.collect()
        assert states() is None
        y, _ = solve_stack(cfg, blocks, x, False)
        assert y.base is None

    def test_failed_solve_names_its_layer_only_in_a_stack(self):
        # Identity activation, h theta W = 1: block 1's equation is
        # inconsistent for nonzero input, block 0's is the identity map.
        cfg = ImplicitBlockConfig(theta=0.5, h=2.0, activation=ActivationKind.IDENTITY)
        blocks = BlockStack(np.array([[[0.0]], [[1.0]]]), np.zeros((2, 1)))
        x = np.ones((1, 1))
        with pytest.raises(SolverDivergedError) as err:
            solve_stack(cfg, blocks, x, False)
        assert err.value.layer == 1
        with pytest.raises(SolverDivergedError) as err:
            forward(cfg, blocks[1], x)
        assert err.value.layer is None


class TestPullBackStack:
    """``pull_back_stack`` is the one backward loop; the reversible path runs
    it on stacks of one, block by block, into each block's own rows."""

    @staticmethod
    def stack(depth, theta, mode=WeightMode.SKEW_SYMMETRIC, paper=False, n=4, batch=5, h=0.3):
        rng = numkit.make_rng(13)
        cfg = ImplicitBlockConfig(theta=theta, h=h, activation=ActivationKind.TANH, paper_param_grad=paper)
        blocks = BlockStack(rng.uniform(-0.8, 0.8, (depth, n, n)), rng.uniform(-0.5, 0.5, (depth, n)), mode)
        x, g = rng.standard_normal((2, n, batch))
        return cfg, blocks, x, g

    @pytest.mark.parametrize("mode", [WeightMode.RAW, WeightMode.SKEW_SYMMETRIC])
    @pytest.mark.parametrize("theta, paper", [(0.0, False), (0.5, False), (0.5, True)])
    def test_stacks_of_one_compose_to_the_whole_stack(self, theta, paper, mode):
        depth = 3
        cfg, blocks, x, g = self.stack(depth, theta, mode, paper)
        _, whole = solve_stack(cfg, blocks, x, True)
        _, parts = solve_stack(cfg, blocks, x, True)
        grad_x, gw, gb = pull_back_stack(cfg, whole, g)
        routes = 2 if theta > 0.0 and not paper else 1
        assert gw.shape == (routes,) + blocks.a.shape and gb.shape == (routes,) + blocks.b.shape
        assert whole.w is None  # the tape is consumed

        rows_w, rows_b = np.full_like(gw, np.nan), np.full_like(gb, np.nan)
        for i in range(depth - 1, -1, -1):
            one = parts.block(i)
            sy = None if one.sy is None else one.sy[None]
            one = TapeEntry(one.x[None], one.y[None], one.sx[None], sy, one.w[None])
            g, one_w, one_b = pull_back_stack(cfg, one, g)
            # A stack of one makes the rows of its own block and no others.
            assert one_w.shape == (routes, 1) + blocks.a.shape[1:] and one_b.shape == (routes, 1) + blocks.b.shape[1:]
            rows_w[:, i : i + 1], rows_b[:, i : i + 1] = one_w, one_b
        assert np.array_equal(g, grad_x)
        assert rows_w.tobytes() == gw.tobytes() and rows_b.tobytes() == gb.tobytes()

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_rows_are_made_once_the_weight_stack_is_freed(self, monkeypatch, theta):
        # The recursion is the weight stack's last reader. Rows made before
        # it, or while a loop variable still views the stack, would sit next
        # to the whole stack at the step's peak.
        cfg, blocks, x, g = self.stack(3, theta)
        _, tape = solve_stack(cfg, blocks, x, True)
        weights = weakref.ref(tape.w)
        alive = []
        make_rows = implicitblock.grad_buffers

        def watched(*args):
            alive.append(weights() is not None)
            return make_rows(*args)

        monkeypatch.setattr(implicitblock, "grad_buffers", watched)
        pull_back_stack(cfg, tape, g)
        assert alive == [False]

    def test_peak_holds_one_newton_stack_at_any_depth(self, peak_kib):
        # Each implicit block's transposed solve builds B Newton matrices.
        # Left alive into the next block's solve, they would raise the peak
        # by one such stack, B n^2 doubles, at any depth above one. The
        # rows, made once those are freed, add 2 (n^2 + n) doubles a block.
        n, batch = 6, 32

        def peak(depth):
            cfg, blocks, x, g = self.stack(depth, 0.5, n=n, batch=batch, h=0.2)
            _, tape = solve_stack(cfg, blocks, x, True)
            sx, sy, ws = tape.sx.copy(), tape.sy.copy(), tape.w

            def run():
                tape.sx[...] = sx
                tape.sy[...] = sy
                tape.w = ws
                pull_back_stack(cfg, tape, g)

            return peak_kib(run)

        assert peak(4) - peak(1) < batch * n * n * 8 / 1024


class TestPullBackRebuilt:
    """The reversible backward folds each block's routes into its finished
    row as soon as that block is done."""

    @staticmethod
    def rebuild(depth, mode=WeightMode.SKEW_SYMMETRIC, n=6, batch=32):
        # Weights small enough that every reconstruction stops in its
        # sweeps, so each block's own peak is the same at any depth.
        rng = numkit.make_rng(17)
        cfg = ImplicitBlockConfig(theta=0.5, h=0.2, activation=ActivationKind.TANH)
        blocks = BlockStack(rng.uniform(-0.3, 0.3, (depth, n, n)), rng.uniform(-0.5, 0.5, (depth, n)), mode)
        y, _ = solve_stack(cfg, blocks, rng.standard_normal((n, batch)), False)
        g = rng.standard_normal((n, batch))
        return lambda: pull_back_rebuilt(cfg, blocks, y, g)

    @pytest.mark.parametrize("mode", [WeightMode.RAW, WeightMode.SKEW_SYMMETRIC])
    def test_gradients_own_their_data(self, mode):
        grad_x, grad_a, grad_b = self.rebuild(3, mode, n=4, batch=5)()
        assert grad_x.shape == (4, 5) and grad_a.shape == (3, 4, 4) and grad_b.shape == (3, 4)
        assert grad_a.base is None and grad_b.base is None

    def test_peak_grows_by_one_finished_row_per_block(self, peak_kib):
        # Per extra block, the peak may hold one more finished row, n^2 + n
        # doubles: 0.33 KiB at n = 6, and it measures 0.34. Both routes of
        # every block held to the end would add twice that. The slack, a
        # tenth of a KiB a block, is less than one array header.
        n = 6
        row = 8 * (n * n + n) / 1024
        per_block = (peak_kib(self.rebuild(16)) - peak_kib(self.rebuild(4))) / 12
        assert per_block <= row + 0.1, (per_block, row)


class TestBackward:
    def test_theta_zero_formula(self):
        rng = numkit.make_rng(9)
        cfg, p = random_block(rng, 3, theta=0.0)
        x = rng.standard_normal(3)
        y, tape = forward(cfg, p, x)
        g = rng.standard_normal(3)
        gx, _, _ = backward(cfg, p, tape, g)
        w = p.effective_weight()
        act = cfg.activation
        jx = act.deriv_from_value(act.apply(w @ x + p.b))[:, None] * w
        expected = (np.eye(3) + cfg.h * jx).T @ g
        np.testing.assert_allclose(gx, expected, atol=1e-14)

    @pytest.mark.parametrize("mode", [WeightMode.RAW, WeightMode.SKEW_SYMMETRIC])
    def test_theta_zero_parameter_gradients_bitwise(self, mode):
        rng = numkit.make_rng(10)
        cfg, p = random_block(rng, 3, mode=mode, theta=0.0, h=0.3)
        x = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 4))
        _, tape = forward(cfg, p, x)
        _, ga, gb = backward(cfg, p, tape, g)
        px = tape.sx * g
        gw = cfg.h * (px @ x.T)
        expected_a = gw - gw.T if mode is WeightMode.SKEW_SYMMETRIC else gw
        assert np.array_equal(ga, expected_a)
        assert np.array_equal(gb, cfg.h * px.sum(axis=1))

    @pytest.mark.parametrize("act", [ActivationKind.TANH, ActivationKind.RELU])
    def test_reduced_formula_coincides_at_theta_zero(self, act):
        rng = numkit.make_rng(12)
        cfg, p = random_block(rng, 4, mode=WeightMode.SKEW_SYMMETRIC, act=act, theta=0.0)
        reduced = ImplicitBlockConfig(theta=0.0, h=cfg.h, activation=act, paper_param_grad=True)
        x = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3))
        _, tape = forward(cfg, p, x)
        for full, paper in zip(backward(cfg, p, tape, g), backward(reduced, p, tape, g)):
            assert np.array_equal(full, paper)

    def test_scalar_analytic_values(self):
        cfg, p = scalar_block()
        y, tape = forward(cfg, p, np.array([1.0]))
        gx, ga, gb = backward(cfg, p, tape, np.array([1.0]))
        assert gx[0] == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert ga[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-9)
        assert gb[0] == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_scalar_reduced_formula_flag(self):
        cfg, p = scalar_block(paper_param_grad=True)
        y, tape = forward(cfg, p, np.array([1.0]))
        _, ga, _ = backward(cfg, p, tape, np.array([1.0]))
        assert ga[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_singular_solve_raises(self):
        # theta h W = 2 * 0.5 = 1 makes I - h theta dF/dy exactly singular.
        cfg, p = scalar_block(w=2.0)
        tape = make_tape(cfg, p, np.array([0.0]), np.array([0.0]))
        with pytest.raises(SingularMatrixError):
            backward(cfg, p, tape, np.array([1.0]))

    @pytest.mark.parametrize("mode", [WeightMode.RAW, WeightMode.SKEW_SYMMETRIC])
    @pytest.mark.parametrize("act", [ActivationKind.TANH, ActivationKind.IDENTITY])
    def test_matches_finite_differences(self, mode, act):
        rng = numkit.make_rng(11)
        cfg, p = random_block(rng, 3, mode=mode, act=act, theta=0.5, h=0.4, scale_to=0.5)
        x = rng.standard_normal(3)
        probe = rng.standard_normal(3)

        def loss_at(params_a, params_b, x_in):
            q = BlockParams(params_a, params_b, mode)
            y, _ = forward(cfg, q, x_in)
            return float(probe @ y)

        y, tape = forward(cfg, p, x)
        gx, ga, gb = backward(cfg, p, tape, probe)
        eps = 1e-6

        for arr, grad in ((p.a, ga), (p.b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                save = arr[idx]
                arr[idx] = save + eps
                up = loss_at(p.a, p.b, x)
                arr[idx] = save - eps
                down = loss_at(p.a, p.b, x)
                arr[idx] = save
                num = (up - down) / (2 * eps)
                assert abs(grad[idx] - num) / (1 + abs(num)) <= 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            num = (loss_at(p.a, p.b, x + e) - loss_at(p.a, p.b, x - e)) / (2 * eps)
            assert abs(gx[k] - num) / (1 + abs(num)) <= 1e-6


class TestReconstructInput:
    def test_zero_map(self):
        p = BlockParams(np.zeros((2, 2)), np.zeros(2))
        cfg = ImplicitBlockConfig(theta=0.5, h=1.0, activation=ActivationKind.TANH)
        y = np.array([1.3, -0.4])
        np.testing.assert_allclose(reconstruct_input(cfg, p, y), y, atol=1e-12)

    def test_scalar_inverse(self):
        cfg, p = scalar_block()
        x = reconstruct_input(cfg, p, np.array([5.0 / 3.0]))
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_theta_one_is_explicit_inverse(self, f_evals):
        rng = numkit.make_rng(13)
        cfg, p = random_block(rng, 3, theta=1.0, h=0.3)
        y = rng.standard_normal(3)
        x = reconstruct_input(cfg, p, y)
        # F at y, then one sweep, which finds the start point already solved.
        assert len(f_evals) <= 2
        expected = y - cfg.h * block_fn(p, cfg.activation, y)
        np.testing.assert_array_equal(x, expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip(self, seed):
        rng = numkit.make_rng(seed)
        n = int(rng.integers(1, 6))
        cfg, p = random_block(rng, n, theta=0.5, h=0.5, scale_to=0.5)
        x = rng.standard_normal(n)
        y, _ = forward(cfg, p, x)
        back = reconstruct_input(cfg, p, y)
        assert np.abs(back - x).max() <= 10 * cfg.solver_tol

    def test_descent_converges_when_sweeps_oscillate(self, f_evals):
        # Identity activation with h (1 - theta) W = 1: the inverse sweep
        # x <- c - (W x + b) / 2 flips between two points forever, and
        # Newton must find the unique solution x = -b / 2.
        cfg, p = scalar_block(w=2.0)
        p.b[:] = 1.0
        x = reconstruct_input(cfg, p, np.array([3.0]))
        # The sweeps stop as soon as the residual stops shrinking.
        assert len(f_evals) <= 10
        assert abs(x[0] + 0.5) <= cfg.solver_tol

    def test_inconsistent_inverse_raises_with_residual(self, f_evals):
        # h (1 - theta) W = -1 cancels x from x = y - (W y + W x) / 2, leaving
        # 0 = 2 y, which has no solution for y = 1; the residual stays at 2.
        cfg, p = scalar_block(w=-2.0)
        with pytest.raises(SolverDivergedError) as err:
            reconstruct_input(cfg, p, np.array([1.0]))
        assert err.value.residual == pytest.approx(2.0)
        assert err.value.residual > cfg.solver_tol
        # The Newton matrix 1 + h (1 - theta) W is zero, so Newton gives up
        # at once.
        assert len(f_evals) <= 10


@pytest.mark.parametrize("act", [ActivationKind.TANH, ActivationKind.RELU])
@pytest.mark.parametrize("solve", [forward, reconstruct_input])
def test_non_finite_state_fails_fast(f_evals, solve, act):
    # A NaN state has no finite residual and no finite Newton step: neither
    # the sweeps nor Newton can move, so the solver must give up at once.
    rng = numkit.make_rng(14)
    cfg, p = random_block(rng, 3, act=act, theta=0.5)
    with pytest.raises(SolverDivergedError):
        solve(cfg, p, np.array([np.nan, 0.2, -0.1]))
    assert len(f_evals) <= 10


@pytest.mark.parametrize("solve", [forward, reconstruct_input])
def test_newton_starts_from_fresh_f_when_sweeps_run_out(monkeypatch, f_evals, solve):
    # With SOLVER_MAX_ITER = 1 both sweeps contract fast, miss the
    # tolerance and leave the iterate one step past the last F evaluation.
    # Newton must evaluate F there again: the stale value makes its residual
    # read zero and hands back the unconverged sweep iterate.
    rng = numkit.make_rng(1)
    cfg, p = random_block(rng, 4, theta=0.5, h=0.2)
    monkeypatch.setattr(implicitblock, "SOLVER_MAX_ITER", 1)
    v = rng.standard_normal((4, 2))
    out = solve(cfg, p, v)
    evals = len(f_evals)
    x, y = (v, out[0]) if solve is forward else (out, v)
    r = y - x - 0.5 * cfg.h * (block_fn(p, cfg.activation, x) + block_fn(p, cfg.activation, y))
    assert np.abs(r).max() <= cfg.solver_tol
    # F at the input, two sweeps, F at the last sweep iterate, one Newton step.
    assert evals == 5


class TestConfigValidation:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            ImplicitBlockConfig(theta=1.5, h=0.1, activation=ActivationKind.TANH)

    def test_h_positive(self):
        with pytest.raises(ValueError):
            ImplicitBlockConfig(theta=0.5, h=0.0, activation=ActivationKind.TANH)

    def test_solver_settings_are_module_constants(self):
        cfg = ImplicitBlockConfig(theta=0.5, h=0.1, activation=ActivationKind.TANH)
        assert cfg.solver_tol == implicitblock.SOLVER_TOL == 1e-10
        with pytest.raises(AttributeError):
            cfg.solver_tol = 1e-3
        with pytest.raises(AttributeError):
            cfg.solver_max_iter = 1
        with pytest.raises(TypeError):
            ImplicitBlockConfig(theta=0.5, h=0.1, activation=ActivationKind.TANH, solver_tol=1e-3)

    def test_block_shapes(self):
        with pytest.raises(DimensionMismatchError):
            BlockParams(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            BlockParams(np.ones((2, 2)), np.zeros(3))

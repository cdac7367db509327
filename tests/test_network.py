import copy
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from implicitnet import implicitblock, numkit
from implicitnet.cli import build_data, load_experiment
from implicitnet.datasets import LabeledSet, SetKind, make_regression
from implicitnet.errors import (
    DimensionMismatchError,
    NonFiniteLossError,
    ParseError,
    SingularMatrixError,
    SolverDivergedError,
)
from implicitnet.implicitblock import (
    ActivationKind,
    WeightMode,
    backward,
    forward,
    make_tape,
    reconstruct_input,
)
from implicitnet.network import (
    Affine,
    LossKind,
    Model,
    ModelSpec,
    TrainConfig,
    _data_loss_grad,
    _loss_and_grad_arrays,
    evaluate,
    gradcheck,
    init_model,
    load_model,
    loss_and_grad,
    model_forward,
    named_parameters,
    param_count,
    regularizer,
    save_model,
    train,
)

REPO = Path(__file__).resolve().parent.parent


def small_spec(**kw):
    defaults = dict(
        input_dim=2,
        hidden_dim=3,
        output_dim=1,
        depth=2,
        theta=0.5,
        activation=ActivationKind.TANH,
    )
    defaults.update(kw)
    return ModelSpec(**defaults)


class TestModelForward:
    def test_depth_zero_is_affine_chain(self):
        m = init_model(small_spec(depth=0), 0)
        x = np.array([0.3, -0.7])
        out, tapes = model_forward(m, x)
        assert tapes == []
        expected = m.proj.w @ (m.lift.w @ x + m.lift.b) + m.proj.b
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_zero_blocks_are_identity_maps(self):
        m = init_model(small_spec(activation=ActivationKind.IDENTITY), 1)
        for blk in m.blocks:
            blk.a[:] = 0.0
        x = np.array([0.5, 0.25])
        out, tapes = model_forward(m, x)
        assert len(tapes) == 2
        expected = m.proj.w @ (m.lift.w @ x + m.lift.b) + m.proj.b
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_affine_rejects_single_state(self):
        with pytest.raises(DimensionMismatchError):
            Affine(np.eye(2), np.zeros(2)).apply(np.ones(2))

    def test_scalar_chain_reproduces_block_value(self):
        spec = ModelSpec(
            input_dim=1,
            hidden_dim=1,
            output_dim=1,
            depth=1,
            theta=0.5,
            horizon=1.0,
            activation=ActivationKind.IDENTITY,
        )
        m = init_model(spec, 0)
        m.lift.w[:] = 1.0
        m.lift.b[:] = 0.0
        m.proj.w[:] = 1.0
        m.proj.b[:] = 0.0
        m.blocks[0].a[:] = 0.5
        m.blocks[0].b[:] = 0.0
        out, _ = model_forward(m, np.array([1.0]))
        assert out[0] == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_batch_forward_matches_loop(self):
        m = init_model(small_spec(), 5)
        xs = numkit.make_rng(9).uniform(-1, 1, (2, 7))
        out_b, _ = model_forward(m, xs)
        for i in range(7):
            out_i, _ = model_forward(m, xs[:, i])
            assert np.abs(out_b[:, i] - out_i).max() <= 1e-9

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_tapes_view_one_stack_and_equal_the_block_forward(self, theta):
        m = init_model(small_spec(depth=3, theta=theta, weight_mode=WeightMode.SKEW_SYMMETRIC), 4)
        x = numkit.make_rng(2).uniform(-1, 1, (2, 5))
        _, tapes = model_forward(m, x)
        assert len(tapes) == 3
        # Each block's output is the next block's input, in one states array.
        for before, after in zip(tapes, tapes[1:]):
            assert np.shares_memory(before.y, after.x)
        names = ["x", "y", "sx", "w"] + (["sy"] if theta > 0 else [])
        for name in names:
            stack = getattr(tapes[0], name).base
            assert stack is not None and len(stack) >= 3, name
            assert all(getattr(t, name).base is stack for t in tapes), name
        cfg = m.spec.block_config()
        for blk, tape in zip(m.blocks, tapes):
            y, ref = forward(cfg, blk, tape.x)
            assert np.array_equal(y, tape.y)
            for name in names:
                assert np.array_equal(getattr(tape, name), getattr(ref, name)), name
            assert (tape.sy is None) == (ref.sy is None) == (theta == 0.0)

    @pytest.mark.parametrize("theta, paper", [(0.0, False), (0.5, False), (0.5, True)])
    def test_backward_twice_on_one_tape_gives_the_same_bytes(self, theta, paper):
        m = init_model(small_spec(depth=2, theta=theta, paper_param_grad=paper), 6)
        rng = numkit.make_rng(3)
        _, tapes = model_forward(m, rng.uniform(-1, 1, (2, 4)))
        g = rng.uniform(-1, 1, (3, 4))
        cfg = m.spec.block_config()
        tape = tapes[1]
        saved = [copy.deepcopy(getattr(tape, name)) for name in tape.__slots__]
        first = backward(cfg, m.blocks[1], tape, g)
        second = backward(cfg, m.blocks[1], tape, g)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]
        for name, before in zip(tape.__slots__, saved):
            after = getattr(tape, name)
            assert (after is None) == (before is None), name
            assert after is None or after.tobytes() == before.tobytes(), name


def concatenated_regularizer(m):
    """The penalty as one sum over the concatenated rows ``w_k``: block k's
    matrix entries, then its bias. ``regularizer`` must give the same
    gradient bits and the same value to a few ulps, without the copies."""
    a, b = m.blocks.a, m.blocks.b
    depth = len(a)
    stacked = np.concatenate((a.reshape(depth, -1), b), axis=1)
    c = m.spec.reg_coeff / depth
    diffs = stacked[1:] - stacked[:-1]
    value = c * float((diffs * diffs).sum())
    diffs *= 2.0 * c
    grad = np.zeros((depth, diffs.shape[1]))
    grad[1:] += diffs
    grad[:-1] -= diffs
    return value, (grad[:, : a[0].size].reshape(a.shape), grad[:, a[0].size :])


class TestRegularizer:
    def test_identical_layers_give_zero(self):
        m = init_model(small_spec(depth=3), 2)
        m.blocks.a[1:] = m.blocks.a[0]
        m.blocks.b[1:] = m.blocks.b[0]
        value, (ga, gb) = regularizer(m)
        assert value == 0.0
        assert ga.shape == m.blocks.a.shape and gb.shape == m.blocks.b.shape
        assert np.abs(ga).max() == 0.0 and np.abs(gb).max() == 0.0

    def test_two_layer_hand_value(self):
        m = init_model(small_spec(depth=2, hidden_dim=3), 0)
        m.blocks[0].a[:] = 0.0
        m.blocks[0].b[:] = 0.0
        m.blocks[1].a[:] = 1.0
        m.blocks[1].b[:] = 1.0
        value, _ = regularizer(m)
        entries = m.blocks[1].a.size + m.blocks[1].b.size
        assert value == pytest.approx(0.05 * entries, rel=1e-15)

    def test_gradients_match_finite_differences(self):
        m = init_model(small_spec(depth=3), 4)
        value, (ga, gb) = regularizer(m)
        eps = 1e-6
        for k, blk in enumerate(m.blocks):
            for arr, grad in ((blk.a, ga[k]), (blk.b, gb[k])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    save = arr[idx]
                    arr[idx] = save + eps
                    up = regularizer(m)[0]
                    arr[idx] = save - eps
                    down = regularizer(m)[0]
                    arr[idx] = save
                    num = (up - down) / (2 * eps)
                    assert abs(grad[idx] - num) <= 1e-6 * (1 + abs(num))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**5))
    def test_invariant_under_common_shift(self, seed):
        m = init_model(small_spec(depth=3), seed)
        v0 = regularizer(m)[0]
        rng = numkit.make_rng(seed + 1)
        da = rng.standard_normal(m.blocks[0].a.shape)
        db = rng.standard_normal(m.blocks[0].b.shape)
        for blk in m.blocks:
            blk.a += da
            blk.b += db
        assert regularizer(m)[0] == pytest.approx(v0, rel=1e-9, abs=1e-12)

    def test_peak_holds_its_own_gradient_only(self, peak_kib):
        # The two gradient stacks together take depth x (n^2 + n) floats,
        # 32.81 KiB here, and nothing else of that size may be made: no
        # concatenated copy of the rows, no separate differences and no
        # copy of a strided slice.
        m = init_model(small_spec(depth=100, hidden_dim=6), 0)
        rows_kib = m.blocks.a.nbytes / 1024 + m.blocks.b.nbytes / 1024
        assert peak_kib(lambda: regularizer(m)) <= rows_kib + 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(1, 6),
        st.sampled_from([1e-3, 0.1, 1.0, 7.5]),
        st.data(),
    )
    def test_matches_the_concatenated_formula(self, depth, width, coeff, data):
        m = init_model(small_spec(depth=depth, hidden_dim=width, reg_coeff=coeff), 0)
        # Repeated entries and signed zeros come up often, so zero
        # differences of either sign are exercised along with ordinary ones.
        entries = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-10.0, 10.0, allow_nan=False)
        m.blocks.a[...] = data.draw(arrays(np.float64, m.blocks.a.shape, elements=entries))
        m.blocks.b[...] = data.draw(arrays(np.float64, m.blocks.b.shape, elements=entries))
        want_value, want = concatenated_regularizer(m)
        value, got = regularizer(m)
        for g, w, p in zip(got, want, (m.blocks.a, m.blocks.b)):
            assert g.tobytes() == w.tobytes()
            assert g.shape == p.shape and g.flags.c_contiguous and g.flags.owndata
        # Summed per stack, not over the concatenated rows: a few ulps apart.
        assert abs(value - want_value) <= 8 * np.finfo(float).eps * want_value

    def test_a_negative_zero_difference_keeps_the_concatenated_bits(self):
        # Along the stack the entries go +0, -0, +0, so the differences are
        # -0 then +0; summed from zero, as the concatenated formula does,
        # every gradient entry is +0.
        m = init_model(small_spec(depth=3, hidden_dim=1), 0)
        m.blocks.a[:, 0, 0] = m.blocks.b[:, 0] = [0.0, -0.0, 0.0]
        _, want = concatenated_regularizer(m)
        _, got = regularizer(m)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes() == bytes(g.nbytes)

    @pytest.mark.parametrize("depth,coeff", [(0, 0.1), (1, 0.1), (3, 0.0)])
    def test_no_penalty_gives_zero_gradients(self, depth, coeff):
        m = init_model(small_spec(depth=depth, reg_coeff=coeff), 1)
        value, grads = regularizer(m)
        assert value == 0.0
        for g, p in zip(grads, (m.blocks.a, m.blocks.b)):
            assert g.shape == p.shape and not g.any()

    @pytest.mark.parametrize("coeff", [-0.1, float("nan")])
    def test_invalid_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="reg_coeff"):
            small_spec(reg_coeff=coeff)


class TestLossAndGrad:
    def test_perfect_fit_squared_error(self):
        m = init_model(small_spec(depth=0, reg_coeff=0.0), 3)
        x = np.array([0.1, 0.4])
        out, _ = model_forward(m, x)
        loss, _ = loss_and_grad(m, [(x, out)], TrainConfig(0.1, 1, 1))
        assert loss == 0.0

    def test_binary_cross_entropy_at_half(self):
        m = init_model(
            small_spec(depth=0, output_activation=ActivationKind.SIGMOID, reg_coeff=0.0), 0
        )
        m.lift.w[:] = 0.0
        m.proj.w[:] = 0.0
        m.proj.b[:] = 0.0  # sigmoid(0) = 0.5
        cfg = TrainConfig(0.1, 1, 1, loss=LossKind.BINARY_CROSS_ENTROPY)
        loss, _ = loss_and_grad(m, [(np.zeros(2), np.array([1.0]))], cfg)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_full_model_gradients_vs_finite_differences(self):
        for output_activation in (ActivationKind.IDENTITY, ActivationKind.SIGMOID):
            spec = small_spec(
                hidden_dim=3, depth=2, weight_mode=WeightMode.SKEW_SYMMETRIC,
                output_activation=output_activation,
            )
            m = init_model(spec, 7)
            rng = numkit.make_rng(8)
            report = gradcheck(m, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)))
            assert report.passed, (
                f"{output_activation}: max rel err {report.max_rel_err} at {report.worst_coord}"
            )
            assert report.max_rel_err <= 1e-5

    def test_empty_batch_rejected(self):
        m = init_model(small_spec(), 0)
        with pytest.raises(ValueError):
            loss_and_grad(m, [], TrainConfig(0.1, 1, 1))

    def test_nonfinite_loss_raises(self):
        from implicitnet.errors import NonFiniteLossError

        m = init_model(small_spec(depth=0, reg_coeff=0.0), 0)
        m.proj.w[:] = 1e200
        m.lift.w[:] = 1e200
        with pytest.raises(NonFiniteLossError):
            loss_and_grad(m, [(np.ones(2), np.zeros(1))], TrainConfig(0.1, 1, 1))

    @pytest.mark.parametrize("reversible", [False, True])
    def test_nonfinite_data_loss_raises_before_any_block_backward(self, monkeypatch, reversible):
        from implicitnet import implicitblock

        def no_backward(*args):
            raise AssertionError("a block backward ran after a non-finite data loss")

        monkeypatch.setattr(implicitblock, "pull_back_stack", no_backward)
        monkeypatch.setattr(implicitblock, "pull_back_rebuilt", no_backward)
        m = init_model(small_spec(depth=3), 0)
        batch = [(np.array([0.3, -0.2]), np.array([np.inf]))]
        with pytest.raises(NonFiniteLossError, match="^loss is inf$"):
            loss_and_grad(m, batch, TrainConfig(0.1, 1, 1, reversible=reversible))

    def test_infinite_penalty_on_a_finite_data_loss_raises(self):
        # One huge weight saturates tanh, so the data loss stays finite, but
        # its square overflows the smoothness penalty. The penalty runs after
        # the backward pass; the total is still checked.
        spec = small_spec(theta=0.0, weight_mode=WeightMode.SKEW_SYMMETRIC)
        m = init_model(spec, 0)
        m.blocks.a[1, 0, 1] = 1e200
        x, t = np.array([[0.3, -0.2], [0.7, 0.1]]), np.array([[1.0, -1.0]])
        data_loss, _ = evaluate(m, x.T, t.T, LossKind.SQUARED_ERROR)
        assert data_loss == pytest.approx(0.34548, rel=1e-4)
        with pytest.raises(NonFiniteLossError, match="^loss is inf$"):
            loss_and_grad(m, list(zip(x.T, t.T)), TrainConfig(0.1, 2, 1))

    def test_solver_divergence_carries_layer_index(self):
        from implicitnet.errors import SolverDivergedError

        # h = horizon/depth = 2 and W = 1 make block 1's equation
        # y = x + x + y, inconsistent for nonzero input.
        spec = ModelSpec(
            input_dim=1, hidden_dim=1, output_dim=1, depth=2, theta=0.5,
            horizon=4.0, activation=ActivationKind.IDENTITY,
        )
        m = init_model(spec, 0)
        m.lift.w[:] = 1.0
        m.blocks[0].a[:] = 0.0
        m.blocks[1].a[:] = 1.0
        with pytest.raises(SolverDivergedError) as err:
            model_forward(m, np.array([1.0]))
        assert err.value.layer == 1

    def test_reconstruction_divergence_carries_layer_index(self, monkeypatch):
        from implicitnet import implicitblock
        from implicitnet.errors import SolverDivergedError

        # Forward and backward run as usual; only the inverse of block 1
        # fails, so the error must name layer 1 although blocks 2 and 3
        # were reconstructed before it.
        m = init_model(small_spec(depth=4), 0)
        reconstruct = implicitblock.reconstruct_input
        visited = []

        def failing_at_block_1(cfg, params, y):
            # The block whose stack rows ``params`` views.
            visited.append(next(i for i in range(4) if np.shares_memory(params.a, m.blocks.a[i])))
            if visited[-1] == 1:
                raise SolverDivergedError("forced", residual=1.0)
            return reconstruct(cfg, params, y)

        monkeypatch.setattr(implicitblock, "reconstruct_input", failing_at_block_1)
        x = np.array([[0.3, -0.2], [0.1, 0.4]])
        with pytest.raises(SolverDivergedError) as err:
            _loss_and_grad_arrays(m, x, np.zeros((1, 2)), LossKind.SQUARED_ERROR, True)
        assert err.value.layer == 1
        assert err.value.residual == 1.0
        assert visited == [3, 2, 1]

    def test_singular_backward_solve_carries_layer_index(self, monkeypatch):
        # Every block makes one transposed solve in pull_back_stack, which
        # visits layers 2, 1, 0 on the tape path and the reversible one. The
        # second of them, layer 1's, is forced to fail as a singular matrix
        # would; the forward and the inversions may solve as they need.
        solve = numkit.solve_many
        for reversible in (False, True):
            m = init_model(ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=3, theta=0.5), 0)
            backward_calls = []

            def singular_at_layer_1(mats, rhs):
                if sys._getframe(1).f_code.co_name == "pull_back_stack":
                    backward_calls.append(1)
                    if len(backward_calls) == 2:
                        raise SingularMatrixError("forced singular backward solve")
                return solve(mats, rhs)

            monkeypatch.setattr(numkit, "solve_many", singular_at_layer_1)
            data = tiny_dataset()
            rec = train(m, data, data, TrainConfig(0.01, 4, 1, seed=0, reversible=reversible))
            assert len(backward_calls) == 2
            failure = rec.failure
            assert isinstance(failure.error, SingularMatrixError)
            assert (failure.epoch, failure.batch, failure.error.layer) == (1, 1, 1)
            assert str(failure) == (
                "SingularMatrixError at epoch 1, batch 1, layer 1: forced singular backward solve"
            )


def tiny_dataset(seed=0, n=12):
    rng = numkit.make_rng(seed)
    xs = rng.uniform(-1, 1, (n, 1))
    ys = np.sin(2 * xs)
    return LabeledSet(xs, ys, SetKind.REGRESSION)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        spec = ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=2, theta=0.5)
        m = init_model(spec, 0)
        before = [p.copy() for _, p in named_parameters(m)]
        data = tiny_dataset()
        rec = train(m, data, data, TrainConfig(0.0, 4, 3, seed=0))
        for (name, p), saved in zip(named_parameters(m), before):
            np.testing.assert_array_equal(p, saved, err_msg=name)
        # validation loss is evaluated in a fixed order: bitwise constant;
        # train loss averages shuffled batches whose joint solver stopping
        # point shifts within solver_tol, so allow that much jitter
        assert rec.val_loss[0] == rec.val_loss[1] == rec.val_loss[2]
        assert rec.train_loss[0] == pytest.approx(rec.train_loss[2], rel=1e-8)
        assert not rec.diverged

    def test_single_full_batch_is_one_gradient_step(self):
        spec = ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=1, theta=0.5)
        data = tiny_dataset(3, n=6)
        m1 = init_model(spec, 1)
        m2 = init_model(spec, 1)
        lr = 0.05
        batch = [(x, y) for x, y in zip(data.inputs, data.targets)]
        # train() shuffles, but with one batch the set is identical
        _, grads = loss_and_grad(m1, batch, TrainConfig(lr, 6, 1, seed=9))
        train(m2, data, data, TrainConfig(lr, 6, 1, seed=9))
        for (name, p1), (_, p2), g in zip(named_parameters(m1), named_parameters(m2), grads):
            np.testing.assert_allclose(p2, p1 - lr * g, atol=1e-15, err_msg=name)

    def test_deterministic_given_seed(self):
        spec = ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=2, theta=0.5)
        data = tiny_dataset(4, n=10)
        recs = []
        for _ in range(2):
            m = init_model(spec, 5)
            recs.append(train(m, data, data, TrainConfig(0.02, 3, 4, seed=11)))
        assert recs[0].train_loss == recs[1].train_loss
        assert recs[0].val_loss == recs[1].val_loss

    def test_median_early_descent_on_regression(self):
        # First five epochs of the bundled regression setup, five seeds.
        train_set, val_set = make_regression(2024)
        curves = []
        for seed in range(5):
            spec = ModelSpec(
                input_dim=1,
                hidden_dim=5,
                output_dim=1,
                depth=10,
                theta=0.5,
                horizon=6.0,
                activation=ActivationKind.RELU,
                weight_mode=WeightMode.SKEW_SYMMETRIC,
            )
            m = init_model(spec, seed)
            rec = train(m, train_set, val_set, TrainConfig(0.01, 4, 5, seed=seed))
            assert not rec.diverged
            curves.append(rec.train_loss)
        median = np.median(np.array(curves), axis=0)
        assert all(median[k + 1] < median[k] for k in range(4))

    def test_divergence_flag_on_blowup(self):
        spec = ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=2, theta=0.0)
        m = init_model(spec, 0)
        data = tiny_dataset(5)
        rec = train(m, data, data, TrainConfig(1e6, 4, 10, seed=0))
        assert rec.diverged
        # The first epoch's validation loss is already infinite, with or
        # without the F(y) evaluation an explicit block does not need.
        assert len(rec.train_loss) == 0
        assert rec.failure.epoch == 1 and rec.failure.batch is None
        assert isinstance(rec.failure.error, NonFiniteLossError)

    def test_failure_names_epoch_batch_layer_and_residual(self, monkeypatch):
        # Layer 1 is solved forward once per batch, three batches an epoch,
        # and once more by the validation pass. Its sixth forward solve, in
        # epoch 2, batch 2, is forced to fail. Raw weights are views of the
        # block's own row of the stack, which tells the layer.
        spec = ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=2, theta=0.5, horizon=0.5)
        m = init_model(spec, 0)
        solve = implicitblock._solve_fixed_point
        layer_1_calls = []

        def failing_sixth_at_layer_1(act, w, *args):
            if np.shares_memory(w, m.blocks.a[1]):
                layer_1_calls.append(1)
                if len(layer_1_calls) == 6:
                    raise SolverDivergedError("forced", residual=1.0)
            return solve(act, w, *args)

        monkeypatch.setattr(implicitblock, "_solve_fixed_point", failing_sixth_at_layer_1)
        data = tiny_dataset()
        rec = train(m, data, data, TrainConfig(0.01, 4, 3, seed=0))
        assert len(layer_1_calls) == 6
        assert len(rec.train_loss) == len(rec.val_loss) == 1
        failure = rec.failure
        assert (failure.epoch, failure.batch, failure.error.layer) == (2, 2, 1)
        assert str(failure) == (
            "SolverDivergedError at epoch 2, batch 2, layer 1, residual 1.000e+00: forced"
        )

    # ex1_trapezoidal with init seed = shuffle seed blows up in epoch 1.
    # Seed 164's small residual reads like a near-converged solve until the
    # message shows the state's scale, at which an absolute tolerance of
    # 1e-10 is below float resolution. Both residuals depend on where each
    # solve starts, how it sweeps and when it hands over to Newton, so a
    # change of any of these moves them. Seed 374 fails in layer 1, whose
    # ReLU block falls back to sweeps at max |z| 5.8e16: sweeps made in z
    # alone land bitwise on a floating-point fixed point there and read a
    # zero residual, but a run on the pre-activation reads 1.0 at its end
    # and hands over to Newton, which stalls at 4.0.
    @pytest.mark.parametrize("seed, batch, layer, residual, scale", [
        (164, 8, 1, "7.153e-07", "1.644e+08"),
        (374, 3, 1, "4.000e+00", "5.800e+16"),
    ])
    def test_blown_up_solve_shows_the_state_scale(self, seed, batch, layer, residual, scale):
        # The failure also keeps the failing batch's rows and the epoch's
        # batch losses so far, which show the blow-up before the failing step.
        indices, losses = {
            164: ([50, 86, 49, 0], ["159", "2.23", "6.63", "2.79", "16.3", "107", "5.08e+04"]),
            374: ([4, 13, 93, 40], ["493", "5.68e+07"]),
        }[seed]
        spec, cfg, data_cfg, _ = load_experiment(REPO / "configs" / "ex1_trapezoidal.json")
        train_set, val_set = build_data(data_cfg)
        rec = train(init_model(spec, seed), train_set, val_set, dataclasses.replace(cfg, seed=seed))
        failure = rec.failure
        assert isinstance(failure.error, SolverDivergedError)
        assert (failure.epoch, failure.batch, failure.error.layer) == (1, batch, layer)
        assert f"{failure.error.residual:.3e}" == residual
        assert str(failure.error).endswith(
            f"stalled at residual {residual} (tol 1.0e-10) with max |z| {scale}"
        )
        assert failure.indices == indices
        assert [f"{loss:.3g}" for loss in failure.batch_losses] == losses

    def test_blown_up_explicit_run_fails_typed_without_a_warning(self):
        # ex1_resnet at learning rate 100 overflows its loss in epoch 1,
        # batch 2. NumPy's overflow warnings are off inside train, so the
        # typed failure is all that reaches the caller.
        spec, cfg, data_cfg, _ = load_experiment(REPO / "configs" / "ex1_resnet.json")
        train_set, val_set = build_data(data_cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = train(
                init_model(spec, 0), train_set, val_set,
                dataclasses.replace(cfg, learning_rate=100.0, epochs=3, seed=0),
            )
        failure = rec.failure
        assert (failure.epoch, failure.batch) == (1, 2)
        assert isinstance(failure.error, NonFiniteLossError)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)


class TestReversibleTraining:
    def test_gradients_match_cached_tapes(self):
        for theta in (0.5, 1.0):
            spec = ModelSpec(
                input_dim=1,
                hidden_dim=5,
                output_dim=1,
                depth=10,
                theta=theta,
                activation=ActivationKind.TANH,
                weight_mode=WeightMode.SKEW_SYMMETRIC,
            )
            m = init_model(spec, 3)
            rng = numkit.make_rng(17)
            for _ in range(3):
                x = rng.uniform(-1, 1, (1, 6))
                t = rng.uniform(-1, 1, (1, 6))
                _, _, g_cached, _ = _loss_and_grad_arrays(m, x, t, LossKind.SQUARED_ERROR, False)
                _, _, g_rev, _ = _loss_and_grad_arrays(m, x, t, LossKind.SQUARED_ERROR, True)
                for (name, _), a, b in zip(named_parameters(m), g_cached, g_rev):
                    assert np.abs(a - b).max() <= 1e-6, f"theta {theta}, {name}"

    def test_reversible_training_runs(self):
        spec = ModelSpec(input_dim=1, hidden_dim=4, output_dim=1, depth=4, theta=0.5)
        m = init_model(spec, 0)
        data = tiny_dataset(6)
        rec = train(m, data, data, TrainConfig(0.05, 4, 3, seed=1, reversible=True))
        assert not rec.diverged
        assert len(rec.train_loss) == 3


class TestSkewSpectrum:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**5))
    def test_effective_weights_have_vanishing_quadratic_form(self, seed):
        m = init_model(small_spec(weight_mode=WeightMode.SKEW_SYMMETRIC, depth=3), seed)
        rng = numkit.make_rng(seed + 2)
        for blk in m.blocks:
            w = blk.effective_weight()
            for _ in range(4):
                v = rng.standard_normal(w.shape[0])
                assert abs(v @ w @ v) <= 1e-12 * (v @ v) * max(1.0, np.abs(w).max())


class TestParamCount:
    @pytest.mark.parametrize(
        "depth,width,expected",
        [(100, 5, 3000), (10, 5, 300), (25, 6, 1050)],
    )
    def test_block_counts(self, depth, width, expected):
        spec = ModelSpec(input_dim=1, hidden_dim=width, output_dim=1, depth=depth, theta=0.5)
        m = init_model(spec, 0)
        assert param_count(m, blocks_only=True) == expected

    def test_total_adds_lift_and_proj(self):
        spec = ModelSpec(input_dim=2, hidden_dim=3, output_dim=1, depth=1, theta=0.0)
        m = init_model(spec, 0)
        assert param_count(m) == param_count(m, blocks_only=True) + (6 + 3) + (3 + 1)


class TestNamedParameters:
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_gradients_and_gradcheck_follow_the_names(self, depth):
        m = init_model(small_spec(depth=depth), 4)
        named = named_parameters(m)
        names = [name for name, _ in named]
        assert names == ["lift.w", "lift.b", "blocks.a", "blocks.b", "proj.w", "proj.b"]
        assert named[2][1] is m.blocks.a and named[3][1] is m.blocks.b
        assert m.blocks.a.shape == (depth, 3, 3) and m.blocks.b.shape == (depth, 3)
        sample = (np.array([0.3, -0.2]), np.array([0.5]))
        _, grads = loss_and_grad(m, [sample], TrainConfig())
        assert [g.shape for g in grads] == [p.shape for _, p in named]
        # gradcheck reports the blocks one by one, in the order they are drawn.
        blocks = [f"blocks[{i}].{arr}" for i in range(depth) for arr in "ab"]
        groups = ["lift.w", "lift.b"] + blocks + ["proj.w", "proj.b", "input"]
        assert list(gradcheck(m, sample).group_errors) == groups


class TestGradcheckOp:
    def test_linear_zero_weight_model(self):
        spec = small_spec(activation=ActivationKind.IDENTITY, depth=1, reg_coeff=0.0)
        m = init_model(spec, 0)
        m.blocks[0].a[:] = 0.0
        report = gradcheck(m, (np.array([0.3, -0.2]), np.array([0.5])))
        assert report.max_rel_err <= 1e-9

    def test_random_model_passes(self):
        m = init_model(small_spec(depth=3), 12)
        rng = numkit.make_rng(13)
        report = gradcheck(m, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)))
        assert report.passed

    def test_reduced_param_grad_fails_on_block_weights(self):
        # h = 1 per block makes the dropped F(y) route a first-order error
        m = init_model(small_spec(depth=2, horizon=2.0, paper_param_grad=True), 12)
        rng = numkit.make_rng(13)
        report = gradcheck(m, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)))
        assert not report.passed
        assert report.max_rel_err > 0.1
        assert ".a[" in report.worst_coord and report.worst_coord.startswith("blocks")


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        for mode in WeightMode:
            m = init_model(
                small_spec(depth=2, weight_mode=mode, output_activation=ActivationKind.SIGMOID),
                21,
            )
            path = tmp_path / f"model-{mode.value}.json"
            save_model(m, path)
            back = load_model(path)
            assert back.spec == m.spec
            for (name, p1), (_, p2) in zip(named_parameters(m), named_parameters(back)):
                np.testing.assert_array_equal(p2, p1, err_msg=name)
            assert all(b.mode is mode for b in back.blocks)
            x = np.array([0.2, -0.9])
            np.testing.assert_array_equal(model_forward(m, x)[0], model_forward(back, x)[0])

    def test_weight_mode_cannot_disagree_with_the_spec(self):
        # The blocks compute in one mode and the checkpoint records the
        # spec's: a model whose two modes differed would reload as another.
        m = init_model(small_spec(depth=2, weight_mode=WeightMode.SKEW_SYMMETRIC), 0)
        raw_spec = dataclasses.replace(m.spec, weight_mode=WeightMode.RAW)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.spec = raw_spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.spec.weight_mode = WeightMode.RAW
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.blocks.mode = WeightMode.RAW
        with pytest.raises(ValueError, match="weight mode"):
            Model(m.lift, m.blocks, m.proj, raw_spec)

    @pytest.mark.parametrize("run", ["ex1_resnet", "ex1_trapezoidal", "ex2_resnet", "ex2_trapezoidal"])
    def test_bundled_checkpoints_rewrite_byte_for_byte(self, tmp_path, run):
        original = REPO / "runs" / run / "model.json"
        save_model(load_model(original), tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == original.read_bytes()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 9}')
        with pytest.raises(ParseError):
            load_model(path)
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_model(path)
        path.write_bytes(b"\xff\xfe not text")
        with pytest.raises(ParseError):
            load_model(path)

    # How to break a saved depth-4, width-3 checkpoint, and the field the error names.
    BROKEN = {
        "two blocks under depth 4": (lambda doc: doc.update(blocks=doc["blocks"][:2]), "spec.depth"),
        "missing spec": (lambda doc: doc.pop("spec"), "'spec'"),
        "missing lift": (lambda doc: doc.pop("lift"), "lift.w"),
        "missing proj.b": (lambda doc: doc["proj"].pop("b"), "proj.b"),
        "lift.w transposed": (lambda doc: doc["lift"].update(w=np.transpose(doc["lift"]["w"]).tolist()), "lift.w"),
        "block a ragged": (lambda doc: doc["blocks"][2]["a"][0].append(0.0), r"blocks\[2\]\.a"),
        "block b too long": (lambda doc: doc["blocks"][1]["b"].append(0.0), r"blocks\[1\]\.b"),
        "block a text": (lambda doc: doc["blocks"][0].update(a="zeros"), r"blocks\[0\]\.a"),
        "proj.w for width 4": (lambda doc: doc["proj"]["w"][0].append(0.0), "proj.w"),
        "infinite horizon": (lambda doc: doc["spec"].update(horizon=math.inf), "spec.horizon"),
    }

    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_rejects_checkpoints_that_disagree_with_spec(self, tmp_path, broken):
        path = tmp_path / "model.json"
        save_model(init_model(small_spec(depth=4), 0), path)
        doc = json.loads(path.read_text())
        change, field = self.BROKEN[broken]
        change(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=field):
            load_model(path)


class TestEvaluate:
    def test_accuracy_counts_thresholded_predictions(self):
        spec = small_spec(depth=0, output_activation=ActivationKind.SIGMOID)
        m = init_model(spec, 0)
        m.lift.w[:] = 0.0
        m.proj.w[:] = 0.0
        m.proj.b[:] = 5.0  # always predicts class 1
        inputs = np.zeros((4, 2))
        targets = np.array([[1.0], [1.0], [0.0], [1.0]])
        _, acc = evaluate(m, inputs, targets, LossKind.BINARY_CROSS_ENTROPY)
        assert acc == pytest.approx(0.75)


def labeled(inputs_width, targets_width, n=6):
    return LabeledSet(np.zeros((n, inputs_width)), np.zeros((n, targets_width)), SetKind.REGRESSION)


class TestWidthChecks:
    """Each public entry point rejects inputs or targets of the wrong width
    with ``DimensionMismatchError``, on a model with input_dim 2 and
    output_dim 1; ``train`` does so before its first step."""

    CALLS = {
        "model_forward inputs": lambda m: model_forward(m, np.zeros((3, 4))),
        "evaluate inputs": lambda m: evaluate(m, np.zeros((5, 3)), np.zeros((5, 1)), LossKind.SQUARED_ERROR),
        # Without the check these targets broadcast and give a loss.
        "evaluate targets": lambda m: evaluate(m, np.zeros((5, 2)), np.zeros((5, 2)), LossKind.SQUARED_ERROR),
        "evaluate sample count": lambda m: evaluate(m, np.zeros((5, 2)), np.zeros((4, 1)), LossKind.SQUARED_ERROR),
        "loss_and_grad inputs": lambda m: loss_and_grad(m, [(np.zeros(3), np.zeros(1))], TrainConfig()),
        "loss_and_grad targets": lambda m: loss_and_grad(m, [(np.zeros(2), np.zeros(2))], TrainConfig()),
        "train set targets": lambda m: train(m, labeled(2, 2), labeled(2, 1), TrainConfig(epochs=1)),
        "validation set inputs": lambda m: train(m, labeled(2, 1), labeled(3, 1), TrainConfig(epochs=1)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_wrong_width_raises_before_any_step(self, call):
        m = init_model(small_spec(), 0)
        before = [p.copy() for _, p in named_parameters(m)]
        with pytest.raises(DimensionMismatchError, match="does not match"):
            self.CALLS[call](m)
        for (name, p), saved in zip(named_parameters(m), before):
            np.testing.assert_array_equal(p, saved, err_msg=name)


class TestBundledHistories:
    """Three epochs of each bundled config reproduce its committed history.

    ``runs/`` was generated with NumPy 2.4 and its bundled OpenBLAS 0.3.31
    (see README); another BLAS may round differently and fail this test
    without any change to the code.
    """

    @pytest.mark.parametrize("name", ["ex1_resnet", "ex1_trapezoidal", "ex2_resnet", "ex2_trapezoidal"])
    def test_first_epochs_match_bitwise(self, name):
        spec, cfg, data_cfg, _ = load_experiment(REPO / "configs" / f"{name}.json")
        train_set, val_set = build_data(data_cfg)
        rec = train(init_model(spec, cfg.seed), train_set, val_set, dataclasses.replace(cfg, epochs=3))
        columns = [rec.train_loss, rec.val_loss] + ([rec.val_accuracy] if rec.val_accuracy else [])
        got = [[float(e), *values] for e, values in enumerate(zip(*columns), start=1)]
        lines = (REPO / "runs" / name / "history.csv").read_text().splitlines()[1:4]
        assert got == [[float(v) for v in line.split(",")] for line in lines]


class TestStackedStorage:
    """``m.blocks`` holds two stacks; its per-block views write through to them."""

    def trained_copy_of(self, m):
        model = copy.deepcopy(m)
        data = tiny_dataset(2)
        train(model, data, data, TrainConfig(0.05, 4, 2, seed=3))
        return model

    def test_writes_through_block_views_land_in_the_stack(self):
        spec = ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=3, theta=0.5)
        m = init_model(spec, 0)
        before = self.trained_copy_of(m)
        m.blocks[1].a[0, 2] += 0.25
        m.blocks[2].b[1] = -0.5
        assert m.blocks.a[1, 0, 2] == init_model(spec, 0).blocks.a[1, 0, 2] + 0.25
        assert m.blocks.b[2, 1] == -0.5
        after = self.trained_copy_of(m)
        assert not np.array_equal(after.blocks.a, before.blocks.a)

    def test_deep_copy_trains_alone_and_its_views_alias_its_stacks(self):
        m = init_model(ModelSpec(input_dim=1, hidden_dim=3, output_dim=1, depth=3, theta=0.5), 4)
        saved = [p.copy() for _, p in named_parameters(m)]
        twin = self.trained_copy_of(m)
        for (name, p), original in zip(named_parameters(m), saved):
            np.testing.assert_array_equal(p, original, err_msg=name)
        assert not np.array_equal(twin.blocks.a, m.blocks.a)
        assert not np.shares_memory(twin.blocks.a, m.blocks.a)
        for i, blk in enumerate(twin.blocks):
            assert np.shares_memory(blk.a, twin.blocks.a) and np.shares_memory(blk.b, twin.blocks.b)
            blk.a[0, 0] = float(i)
        assert list(twin.blocks.a[:, 0, 0]) == [0.0, 1.0, 2.0]


class TestBlockConfig:
    """The blocks' config and its 0-d coefficients are made once per spec and cannot be written."""

    @pytest.mark.parametrize("reversible", [False, True])
    def test_made_once_and_read_only(self, monkeypatch, reversible):
        spec = small_spec(theta=0.3, horizon=0.8)
        m = init_model(spec, 0)
        cfg = m.spec.block_config()
        assert m.spec.block_config() is cfg
        assert copy.deepcopy(m).spec.block_config() is cfg
        h, theta = spec.h, spec.theta
        expected = {
            "coef_h": h, "coef_x": h * (1.0 - theta), "coef_y": h * theta,
            "neg_h": -h, "neg_x": -(h * (1.0 - theta)),
        }
        operands = [getattr(cfg, name) for name in expected]
        operands += [implicitblock._ZERO, implicitblock._ONE, implicitblock._HALF]
        for name, value in expected.items():
            assert getattr(cfg, name).shape == () and getattr(cfg, name) == value, name
        for operand in operands:
            with pytest.raises(ValueError):
                operand[...] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.h = 1.0

        batch = [(np.array([0.1, -0.2]), np.array([0.3])), (np.array([0.5, 0.4]), np.array([-0.1]))]
        train_cfg = TrainConfig(0.1, 1, 2, reversible=reversible)
        loss_and_grad(m, batch, train_cfg)
        made = []
        const = implicitblock._const
        monkeypatch.setattr(implicitblock, "_const", lambda v: made.append(v) or const(v))
        loss_and_grad(m, batch, train_cfg)
        assert made == [] and m.spec.block_config() is cfg


class TestOneGradientFormula:
    """The stacked block gradients equal, bit for bit, the per-block ``backward``
    results plus the regularizer gradient: one formula serves both."""

    # bundled run, spec changes, reversible
    CASES = {
        "theta 0": ("ex1_resnet", {}, False),
        "theta 0 raw": ("ex2_resnet", {"weight_mode": WeightMode.RAW}, False),
        "theta 0.5 tape": ("ex1_trapezoidal", {}, False),
        "theta 0.5 tape raw": ("ex1_trapezoidal", {"weight_mode": WeightMode.RAW}, False),
        "theta 0.5 reversible": ("ex2_trapezoidal", {}, True),
        "theta 0.5 reversible raw": ("ex2_trapezoidal", {"weight_mode": WeightMode.RAW}, True),
        "paper_param_grad": ("ex1_trapezoidal", {"paper_param_grad": True}, False),
        "paper_param_grad reversible": ("ex2_trapezoidal", {"paper_param_grad": True}, True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stacked_gradients_match_per_block_backward(self, case):
        run, change, reversible = self.CASES[case]
        _, cfg, _, _ = load_experiment(REPO / "configs" / f"{run}.json")
        bundled = load_model(REPO / "runs" / run / "model.json")
        m = init_model(dataclasses.replace(bundled.spec, **change), 0)
        for (_, p), (_, q) in zip(named_parameters(m), named_parameters(bundled)):
            p[...] = q
        rng = numkit.make_rng(7)
        x = rng.uniform(-1, 1, (m.spec.input_dim, 6))
        t = (rng.uniform(0, 1, (1, 6)) > 0.5).astype(float)
        _, _, grads, _ = _loss_and_grad_arrays(m, x, t, cfg.loss, reversible)

        out, tapes = model_forward(m, x)
        d_o = m.spec.output_activation.deriv_from_value(out) * _data_loss_grad(cfg.loss, out, t)
        g = m.proj.w.T @ d_o
        _, (reg_a, reg_b) = regularizer(m)
        block_cfg = m.spec.block_config()
        y = tapes[-1].y
        for i in range(m.spec.depth - 1, -1, -1):
            blk = m.blocks[i]
            tape = tapes[i]
            if reversible:
                x_in = reconstruct_input(block_cfg, blk, y)
                tape = make_tape(block_cfg, blk, x_in, y)
                y = x_in
            g, grad_a, grad_b = backward(block_cfg, blk, tape, g)
            assert np.array_equal(grads[2][i], grad_a + reg_a[i]), f"blocks[{i}].a"
            assert np.array_equal(grads[3][i], grad_b + reg_b[i]), f"blocks[{i}].b"
        assert np.array_equal(grads[0], g @ x.T)


class TestReversibleMemory:
    """Reversible training keeps no per-layer tapes, so its peak memory grows
    far more slowly with depth than the tape path's (the paper's claim)."""

    @staticmethod
    def model(depth):
        spec = ModelSpec(
            input_dim=2, hidden_dim=6, output_dim=1, depth=depth, theta=0.5,
            activation=ActivationKind.TANH, weight_mode=WeightMode.SKEW_SYMMETRIC,
        )
        return init_model(spec, 0)

    def step_peak_kib(self, peak_kib, depth, reversible):
        m = self.model(depth)
        rng = numkit.make_rng(1)
        batch = list(zip(rng.uniform(-1, 1, (32, 2)), rng.uniform(-1, 1, (32, 1))))
        cfg = TrainConfig(batch_size=32, reversible=reversible)
        return peak_kib(lambda: loss_and_grad(m, batch, cfg))

    def evaluate_peak_kib(self, peak_kib, depth, batch=256):
        """Peak of ``evaluate``, the forward without a tape."""
        m = self.model(depth)
        rng = numkit.make_rng(1)
        x, t = rng.uniform(-1, 1, (batch, 2)), rng.uniform(-1, 1, (batch, 1))
        return peak_kib(lambda: evaluate(m, x, t, LossKind.SQUARED_ERROR))

    def per_layer_kib(self, peak_kib, reversible):
        # Both depths peak in the same place on each path (see the tests
        # below), so the difference is the growth itself. Depth 10 would
        # peak in a block's backward Newton build instead.
        return (self.step_peak_kib(peak_kib, 300, reversible) - self.step_peak_kib(peak_kib, 100, reversible)) / 200

    def test_reversible_peak_grows_at_most_a_quarter_as_fast_per_layer(self, peak_kib):
        per_layer = {rev: self.per_layer_kib(peak_kib, rev) for rev in (False, True)}
        assert per_layer[True] <= 0.25 * per_layer[False], per_layer

    def test_tape_path_holds_three_state_rows_per_layer_and_little_else(self, peak_kib):
        # At depths 100 and 300 the tape path peaks inside pull_back_stack,
        # once the recursion has freed the weight stack and the two routes
        # of gradient rows are made. Per layer that peak holds the block's
        # input, F(x) and F(y) slope rows (3 x n x B) and the two routes:
        # 5.16 KiB at n = 6, B = 32, and it measures 5.16. The regularizer
        # runs once the tape and rows are freed, so its gradient row adds
        # nothing here. The quarter KiB of slack is less than two array
        # headers per layer.
        n, batch = 6, 32
        floor = 8 * (3 * n * batch + 2 * (n * n + n)) / 1024
        per_layer = self.per_layer_kib(peak_kib, False)
        assert per_layer <= floor + 0.25, (per_layer, floor)

    def test_reversible_path_holds_two_routes_of_gradient_rows_per_layer(self, peak_kib):
        # Per layer, a reversible step keeps no state. At depths 100 and 300
        # it peaks as the regularizer returns: the block gradients' finished
        # row and the regularizer's own gradient row are alive, and nothing
        # else of that size. The floor is those two rows, 0.66 KiB at
        # n = 6, B = 32, and it measures 0.66.
        n = 6
        floor = 8 * 2 * (n * n + n) / 1024
        per_layer = self.per_layer_kib(peak_kib, True)
        assert per_layer <= floor + 0.25, (per_layer, floor)

    def test_forward_without_a_tape_holds_one_blocks_weights(self, peak_kib):
        # Without a tape, each block's W is made when the block runs, into
        # one (n, n) row, so no stack of weights grows with depth. A stack
        # would add n^2 doubles a layer, 0.28 KiB at n = 6.
        per_layer = (self.evaluate_peak_kib(peak_kib, 300) - self.evaluate_peak_kib(peak_kib, 10)) / 290
        assert per_layer <= 0.1, per_layer

    def test_forward_without_a_tape_holds_no_newton_stack(self, peak_kib):
        # At B = 256, n = 6 one (n, B) row is 12 KiB. The sweeps of a block
        # that converges without Newton hold nine: two state rows, F(x), the
        # solve's constant, its second iterate row and residual row, the
        # last and the new F(z), and the bias row, into which the solve
        # broadcasts the bias once. A linear solve to start each block would
        # add B Newton matrices, 72 KiB, and about as much again in NumPy's
        # buffer.
        row = 6 * 256 * 8 / 1024
        peak = self.evaluate_peak_kib(peak_kib, 10)
        assert peak <= 10 * row, peak

    def test_reversible_step_at_the_spirals_shape_holds_one_blocks_work(self, peak_kib):
        # Depth 25, n = 6, B = 32, as spirals-reversible trains. The step
        # peaks as one rebuilt block is pulled back, in the build of its
        # transposed Newton matrices (9 KiB, and 10 KiB of NumPy's buffer
        # for them), next to the finished gradient rows (8.4 KiB) and a few
        # (n, B) rows of 1.5 KiB. Holding the stacked weights (7 KiB), or
        # two more rows such as a spent iterate and the top state, through
        # that build would push it over.
        peak = self.step_peak_kib(peak_kib, 25, True)
        assert peak <= 42.5, peak

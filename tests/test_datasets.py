import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitnet.datasets import LabeledSet, SetKind, make_regression, make_spirals, target_fn, to_csv
from implicitnet.errors import InvalidCountError


class TestTargetFn:
    def test_zero_at_origin(self):
        assert target_fn(0.0) == 0.0

    def test_quarter_point(self):
        assert target_fn(0.25) == pytest.approx(math.exp(-0.03125), rel=1e-15)

    def test_odd_symmetry(self):
        xs = np.linspace(-1, 1, 41)
        np.testing.assert_allclose(target_fn(-xs), -target_fn(xs), atol=1e-15)

    def test_envelope_bound(self):
        xs = np.linspace(-1, 1, 2001)
        assert np.all(np.abs(target_fn(xs)) <= 1.0)


class TestMakeRegression:
    def test_counts_and_kinds(self):
        train, val = make_regression(0)
        assert len(train) == 100 and len(val) == 200
        assert train.kind is SetKind.REGRESSION
        assert train.inputs.shape == (100, 1) and train.targets.shape == (100, 1)

    def test_val_is_equispaced_grid(self):
        _, val = make_regression(0, n_val=5)
        np.testing.assert_allclose(val.inputs[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0], atol=0)

    def test_targets_exact(self):
        train, val = make_regression(3)
        np.testing.assert_array_equal(train.targets[:, 0], target_fn(train.inputs[:, 0]))
        np.testing.assert_array_equal(val.targets[:, 0], target_fn(val.inputs[:, 0]))

    def test_train_inputs_in_range_and_seeded(self):
        a, _ = make_regression(7)
        b, _ = make_regression(7)
        c, _ = make_regression(8)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert np.abs(a.inputs).max() <= 1.0
        assert not np.array_equal(a.inputs, c.inputs)

    def test_bad_counts(self):
        with pytest.raises(InvalidCountError):
            make_regression(0, n_train=0)


class TestMakeSpirals:
    def test_split_sizes(self):
        train, val = make_spirals()
        assert len(train) == 257
        assert len(val) == 256
        assert train.kind is SetKind.BINARY

    def test_first_points(self):
        train, _ = make_spirals()
        np.testing.assert_allclose(train.inputs[0], [0.2, 0.0], atol=1e-15)
        assert train.targets[0, 0] == 0.0
        np.testing.assert_allclose(train.inputs[1], [-0.2, 0.0], atol=1e-15)
        assert train.targets[1, 0] == 1.0

    def test_both_classes_in_both_splits(self):
        train, val = make_spirals()
        assert set(np.unique(train.targets)) == {0.0, 1.0}
        assert set(np.unique(val.targets)) == {0.0, 1.0}
        # near-balanced: class 0 gets the one extra training point
        assert int(train.targets.sum()) == 128
        assert int(val.targets.sum()) == 128

    def test_partition_of_full_arms(self):
        train, val = make_spirals()
        seen = {tuple(p) for p in np.vstack([train.inputs, val.inputs])}
        assert len(seen) == 513
        # every point sits on its arm: radius matches angle parameter
        for pts, labs in ((train.inputs, train.targets), (val.inputs, val.targets)):
            r = np.hypot(pts[:, 0], pts[:, 1])
            assert np.all(r >= 0.2 - 1e-12) and np.all(r <= 1.0 + 1e-12)

    def test_classes_are_separated(self):
        train, val = make_spirals()
        pts = np.vstack([train.inputs, val.inputs])
        labs = np.vstack([train.targets, val.targets])[:, 0]
        a = pts[labs == 0.0]
        b = pts[labs == 1.0]
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert math.sqrt(d2.min()) > 1e-3

    def test_deterministic(self):
        a, _ = make_spirals()
        b, _ = make_spirals()
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_rejects_tiny_counts(self):
        with pytest.raises(InvalidCountError):
            make_spirals(3)


def assert_reads_back(labeled: LabeledSet, path) -> None:
    """``to_csv`` then ``numpy.loadtxt`` gives back every input and target exactly."""
    to_csv(labeled, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(back, np.hstack([labeled.inputs, labeled.targets]))


class TestCsvRoundTrip:
    def test_regression_round_trip(self, tmp_path):
        train, _ = make_regression(11)
        assert_reads_back(train, tmp_path / "reg.csv")

    def test_spirals_round_trip(self, tmp_path):
        train, _ = make_spirals()
        assert_reads_back(train, tmp_path / "spi.csv")

    def test_one_dimensional_header(self, tmp_path):
        train, _ = make_regression(0, n_train=2, n_val=1)
        path = tmp_path / "r.csv"
        to_csv(train, path)
        assert path.read_text().splitlines()[0] == "x0,y0"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40))
    def test_arbitrary_floats_round_trip(self, tmp_path_factory, seed, n):
        rng = np.random.default_rng(seed)
        ls = LabeledSet(rng.standard_normal((n, 3)) * 10.0**rng.integers(-8, 8),
                        rng.standard_normal((n, 2)), SetKind.REGRESSION)
        assert_reads_back(ls, tmp_path_factory.mktemp("csv") / "x.csv")


class TestLabeledSetShapes:
    @pytest.mark.parametrize(
        "inputs, targets, width",
        [
            (np.zeros((5, 1)), np.arange(5.0), 1),
            (np.zeros(5), np.arange(5.0)[:, None], 1),
            (np.zeros(5), np.arange(5.0), 1),
            (np.zeros((5, 2)), np.arange(5.0), 2),
        ],
    )
    def test_one_dimensional_array_is_one_column(self, inputs, targets, width):
        ls = LabeledSet(inputs, targets, SetKind.REGRESSION)
        assert len(ls) == 5
        assert ls.inputs.shape == (5, width)
        assert ls.targets.shape == (5, 1)
        np.testing.assert_array_equal(ls.targets[:, 0], np.arange(5.0))

    def test_scalar_is_one_sample(self):
        ls = LabeledSet(0.5, 1.0, SetKind.REGRESSION)
        assert ls.inputs.shape == ls.targets.shape == (1, 1)

    def test_counts_still_checked(self):
        with pytest.raises(InvalidCountError, match="5 inputs vs 4 targets"):
            LabeledSet(np.zeros(5), np.zeros(4), SetKind.REGRESSION)

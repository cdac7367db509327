import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from implicitnet.cli import load_experiment, main
from implicitnet.errors import ParseError

REPO = Path(__file__).resolve().parent.parent


def read_csv_values(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_csv_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestStability:
    def test_all_schemes_write_files(self, tmp_path):
        out = tmp_path / "lab"
        code = main(["stability", "--out", str(out), "--svg"])
        assert code == 0
        for name in ("forward-euler", "backward-euler", "trapezoidal", "verlet"):
            assert (out / f"phase_{name}.csv").exists()
            assert (out / f"phase_{name}.svg").exists()
        assert (out / "spectra.csv").exists()

    def test_trapezoidal_energy_constant(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["stability", "--scheme", "trapezoidal", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "phase_trapezoidal.csv")
        assert header == ["step", "y", "z", "energy"]
        energies = np.array([float(r[3]) for r in rows])
        assert len(energies) == 2001
        assert np.abs(energies / energies[0] - 1.0).max() <= 1e-10

    def test_forward_euler_energy_increases(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["stability", "--scheme", "forward-euler", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "phase_forward-euler.csv")
        # fast 25% energy growth per step overflows well before 2000 steps
        assert rows[-1][0] == "divergent"
        energies = np.array([float(r[3]) for r in rows if r[0] != "divergent"])
        assert np.all(np.diff(energies) > 0)

    def test_backward_euler_energy_decreases(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["stability", "--scheme", "backward-euler", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "phase_backward-euler.csv")
        energies = np.array([float(r[3]) for r in rows])
        assert np.all(np.diff(energies) < 0)

    def test_unstable_verlet_emits_divergent_row(self, tmp_path):
        out = tmp_path / "lab"
        code = main(
            ["stability", "--scheme", "verlet", "--h", "0.05", "--omega", "50", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "phase_verlet.csv").read_text().splitlines()
        assert lines[-1] == "divergent,,,"
        assert len(lines) - 2 < 2001  # truncated before the requested step count

    def test_stable_verlet_has_no_divergent_row(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["stability", "--scheme", "verlet", "--out", str(out)]) == 0
        lines = (out / "phase_verlet.csv").read_text().splitlines()
        assert "divergent" not in lines[-1]

    def test_spectra_match_analytic_radii(self, tmp_path):
        out = tmp_path / "lab"
        assert main(["stability", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "spectra.csv")
        assert header == ["h_omega", "scheme", "rho"]
        assert len(rows) == 4 * 301
        for h_omega_s, scheme, rho_s in rows:
            x, rho = float(h_omega_s), float(rho_s)
            if scheme == "forward-euler":
                expected = math.sqrt(1 + x * x)
            elif scheme == "backward-euler":
                expected = 1 / math.sqrt(1 + x * x)
            elif scheme == "trapezoidal":
                expected = 1.0
            else:
                tr = 2 - x * x
                expected = 1.0 if abs(tr) <= 2 else (abs(tr) + math.sqrt(tr * tr - 4)) / 2
            assert abs(rho - expected) <= 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["stability", "--scheme", "verlet", "--out", str(out1)])
        main(["stability", "--scheme", "verlet", "--out", str(out2)])
        assert (out1 / "phase_verlet.csv").read_bytes() == (out2 / "phase_verlet.csv").read_bytes()
        assert (out1 / "spectra.csv").read_bytes() == (out2 / "spectra.csv").read_bytes()

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--scheme", "rk4", "--out", "x"])
        assert exc.value.code == 2


class TestGradcheckCommand:
    def test_default_flags_pass(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_theta_zero_passes(self):
        assert main(["gradcheck", "--theta", "0.0"]) == 0

    def test_paper_param_grad_fails_with_exit_3(self, capsys):
        code = main(["gradcheck", "--paper-param-grad", "--depth", "2"])
        out = capsys.readouterr().out
        assert code == 3
        # the per-group breakdown must call out block-weight coordinates
        assert "blocks[" in out and ".a: " in out


class TestDatasetCommand:
    def test_spirals_row_total(self, tmp_path):
        out = tmp_path / "data"
        assert main(["dataset", "--name", "spirals", "--out", str(out)]) == 0
        train = read_csv_values(out / "spirals_train.csv")
        val = read_csv_values(out / "spirals_val.csv")
        assert train.shape[1] == val.shape[1] == 3
        assert len(train) + len(val) == 513

    def test_regression_row_counts(self, tmp_path):
        out = tmp_path / "data"
        assert main(["dataset", "--name", "regression", "--out", str(out)]) == 0
        assert read_csv_values(out / "regression_train.csv").shape == (100, 2)
        assert read_csv_values(out / "regression_val.csv").shape == (200, 2)

    def test_unknown_name_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["dataset", "--name", "mnist", "--out", "x"])
        assert exc.value.code == 2


def small_config(tmp_path, **overrides):
    doc = {
        "model": {
            "input_dim": 1,
            "hidden_dim": 3,
            "output_dim": 1,
            "depth": 2,
            "theta": 0.5,
            "horizon": 1.0,
            "activation": "tanh",
            "weight_mode": "skew",
        },
        "train": {"learning_rate": 0.05, "batch_size": 8, "epochs": 3, "seed": 1},
        "data": {"name": "regression", "seed": 5, "n_train": 16, "n_val": 8},
        "output": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key != "data":
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestTrainCommand:
    def test_small_run_writes_outputs(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["train", str(cfg), "--svg"]) == 0
        out = tmp_path / "run"
        header, rows = read_csv_rows(out / "history.csv")
        assert header == ["epoch", "train_loss", "val_loss"]
        assert len(rows) == 3
        assert (out / "model.json").exists()
        assert (out / "loss_curves.svg").exists()
        pred_header, pred_rows = read_csv_rows(out / "predictions.csv")
        assert pred_header == ["x", "prediction", "target"]
        assert len(pred_rows) == 8
        assert "block parameters: 24" in capsys.readouterr().out

    def test_binary_run_includes_accuracy(self, tmp_path):
        cfg = small_config(
            tmp_path,
            model={
                "input_dim": 2,
                "output_activation": "sigmoid",
                "depth": 2,
                "hidden_dim": 4,
            },
            train={"loss": "binary_cross_entropy", "epochs": 2, "batch_size": 64},
            data={"name": "spirals", "n_total": 33},
        )
        assert main(["train", str(cfg)]) == 0
        out = tmp_path / "run"
        header, rows = read_csv_rows(out / "history.csv")
        assert header == ["epoch", "train_loss", "val_loss", "val_accuracy"]
        pred_header, pred_rows = read_csv_rows(out / "predictions.csv")
        assert pred_header == ["x0", "x1", "probability"]
        assert len(pred_rows) == 61 * 61
        probs = np.array([float(r[2]) for r in pred_rows])
        assert np.all((probs >= 0) & (probs <= 1))

    def test_deterministic_history(self, tmp_path):
        cfg1 = small_config(tmp_path, output=str(tmp_path / "r1"))
        main(["train", str(cfg1)])
        cfg2 = small_config(tmp_path, output=str(tmp_path / "r2"))
        main(["train", str(cfg2)])
        assert (tmp_path / "r1/history.csv").read_bytes() == (tmp_path / "r2/history.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_diverged_run_exits_4_with_history(self, tmp_path, capsys):
        cfg = small_config(tmp_path, train={"learning_rate": 1e8, "epochs": 5})
        assert main(["train", str(cfg)]) == 4
        header, rows = read_csv_rows(tmp_path / "run" / "history.csv")
        assert header == ["epoch", "train_loss", "val_loss"]
        assert len(rows) == 1
        out = capsys.readouterr().out
        assert "training diverged: NonFiniteLossError at epoch 2, batch 2: loss is inf" in out

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["train", str(tmp_path / "nope.json")]) == 1

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = small_config(tmp_path, model={"dropout": 0.5})
        assert main(["train", str(cfg)]) == 1

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"])
    def test_bad_json_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main(["train", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,override",
        [
            ("train", "reversible", {"train": {"reversible": "false"}}),
            ("model", "paper_param_grad", {"model": {"paper_param_grad": "false"}}),
            ("model", "depth", {"model": {"depth": 2.5}}),
            ("model", "depth", {"model": {"depth": 2.0}}),
            ("model", "theta", {"model": {"theta": "0.5"}}),
            ("model", "horizon", {"model": {"horizon": None}}),
            ("model", "hidden_dim", {"model": {"hidden_dim": [3]}}),
            ("train", "epochs", {"train": {"epochs": None}}),
            ("train", "learning_rate", {"train": {"learning_rate": [0.05]}}),
            ("train", "batch_size", {"train": {"batch_size": True}}),
            ("data", "n_train", {"data": {"name": "regression", "n_train": "100"}}),
            ("data", "seed", {"data": {"name": "regression", "seed": 1.5}}),
            ("data", "n_total", {"data": {"name": "spirals", "n_total": None}}),
        ],
    )
    def test_value_of_wrong_json_type_exits_1(self, tmp_path, section, key, override):
        cfg = small_config(tmp_path, **override)
        with pytest.raises(ParseError, match=rf"\b{section}\.{key}\b"):
            load_experiment(cfg)
        assert main(["train", str(cfg)]) == 1
        assert not (tmp_path / "run").exists()


# Numbers of the right JSON type but out of range (Python's json reads NaN
# and Infinity): the config override and the error it must print.
BAD_SETTINGS = {
    "horizon Infinity": ({"model": {"horizon": math.inf}}, "model.horizon must be a finite number, got inf"),
    "reg_coeff NaN": ({"model": {"reg_coeff": math.nan}}, "model.reg_coeff must be a finite number, got nan"),
    "learning_rate NaN": (
        {"train": {"learning_rate": math.nan}},
        "train.learning_rate must be a finite number, got nan",
    ),
    "learning_rate -0.5": (
        {"train": {"learning_rate": -0.5}},
        "bad value in section 'train': learning_rate must be >= 0, got -0.5",
    ),
}


@pytest.mark.parametrize("setting", sorted(BAD_SETTINGS))
def test_out_of_range_setting_exits_1_naming_it(tmp_path, capsys, setting):
    override, message = BAD_SETTINGS[setting]
    assert main(["train", str(small_config(tmp_path, **override))]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


# Each entry point that takes a seed: its argv with seed -1, and how the error names it.
NEGATIVE_SEEDS = {
    "train": (lambda tmp: ["train", str(small_config(tmp, train={"seed": -1}))], "section 'train': seed"),
    "data": (
        lambda tmp: ["train", str(small_config(tmp, data={"name": "regression", "seed": -1}))],
        "data.seed",
    ),
    "dataset": (
        lambda tmp: ["dataset", "--name", "regression", "--out", str(tmp / "d"), "--seed", "-1"],
        "--seed",
    ),
    "gradcheck": (lambda tmp: ["gradcheck", "--seed", "-1"], "--seed"),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_SEEDS))
def test_negative_seed_exits_1_naming_the_setting(tmp_path, capsys, entry):
    argv, name = NEGATIVE_SEEDS[entry]
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{name} must be >= 0, got -1" in err
    assert not (tmp_path / "run").exists()


# Out-of-range flags: the argv after the subcommand and the error's tail.
BAD_FLAGS = {
    "gradcheck --depth": (["gradcheck", "--depth", "-1"], "--depth must be >= 0, got -1"),
    "gradcheck --theta": (["gradcheck", "--theta", "2"], "--theta must be in [0, 1], got 2.0"),
    "gradcheck --width": (["gradcheck", "--width", "0"], "--width must be >= 1, got 0"),
    "gradcheck --tol": (["gradcheck", "--tol", "-1"], "--tol must be positive, got -1.0"),
    "stability --steps": (["stability", "--steps", "-5"], "--steps must be >= 1, got -5"),
    "stability --omega": (["stability", "--omega", "0"], "--omega must be positive, got 0.0"),
    "gradcheck --tol inf": (["gradcheck", "--tol", "inf"], "--tol must be finite, got inf"),
    "stability --omega inf": (["stability", "--omega", "inf"], "--omega must be finite, got inf"),
    "stability --h nan": (["stability", "--h", "nan"], "--h must be finite, got nan"),
    "stability --y0 nan": (["stability", "--y0", "nan"], "--y0 must be finite, got nan"),
    "stability --z0 nan": (["stability", "--z0", "nan"], "--z0 must be finite, got nan"),
}


@pytest.mark.parametrize("flag", sorted(BAD_FLAGS))
def test_out_of_range_flag_exits_1_naming_it(tmp_path, capsys, flag):
    argv, message = BAD_FLAGS[flag]
    if argv[0] == "stability":
        argv = argv + ["--out", str(tmp_path / "lab")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "lab").exists()


class TestExperimentConfigs:
    def test_load_experiment_rejects_unknown_top_level(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"model": {}, "train": {}, "data": {"name": "spirals"}, "output": "o", "extra": 1}')
        with pytest.raises(ParseError):
            load_experiment(path)

    @pytest.mark.parametrize(
        "name,block_params",
        [
            ("ex1_trapezoidal.json", 300),
            ("ex1_resnet.json", 3000),
            ("ex2_trapezoidal.json", 1050),
            ("ex2_resnet.json", 1050),
        ],
    )
    def test_bundled_configs_parse(self, name, block_params):
        from implicitnet.network import init_model, param_count

        spec, cfg, data_cfg, out = load_experiment(REPO / "configs" / name)
        model = init_model(spec, cfg.seed)
        assert param_count(model, blocks_only=True) == block_params


def run_script(name, cwd, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *flags],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_seed_sweep_runs_from_any_directory(tmp_path):
    proc = run_script("seed_sweep.py", tmp_path, "--seeds", "1", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "== regression: depth 10, width 5, lr 0.01, batch 4, 1 epochs ==" in out
    assert "== spirals: depth 25, width 6, lr 0.1, batch 32, 1 epochs ==" in out
    for theta in (0.5, 0.0):
        assert f"theta={theta} medians: train " in out
        assert f"theta={theta} median accuracy: " in out


@pytest.mark.parametrize("flag,value", [("--epochs", "0"), ("--seeds", "0"), ("--seeds", "-3")])
def test_seed_sweep_rejects_counts_below_1(tmp_path, flag, value):
    proc = run_script("seed_sweep.py", tmp_path, flag, value)
    assert proc.returncode == 2
    assert f"error: {flag} must be >= 1, got {value}" in proc.stderr
    assert proc.stdout == ""


def test_block_sweep_counts_and_compares(tmp_path):
    first = run_script("block_sweep.py", tmp_path, "--blocks", "40")
    assert first.returncode == 0, first.stderr
    out = json.loads(first.stdout)
    assert set(out) == {
        "blocks", "solved", "papers_regime", "f_evals_solved", "median_f_evals_per_failure", "failed",
    }
    assert set(out["solved"]) == {"identity", "relu", "tanh", "sigmoid", "all"}
    assert out["solved"]["all"] == sum(v for k, v in out["solved"].items() if k != "all")
    assert out["solved"]["all"] + len(out["failed"]) == 40
    assert out["papers_regime"]["solved"] <= out["papers_regime"]["blocks"]

    # Against itself nothing differs; against a side that solved a block
    # this one fails, the block is listed as lost and the exit code is 1.
    (tmp_path / "same.json").write_text(first.stdout)
    same = run_script("block_sweep.py", tmp_path, "--blocks", "40", "--against", "same.json")
    assert same.returncode == 0, same.stderr
    assert f"0 lost, 0 gained; solved {out['solved']['all']} -> {out['solved']['all']}" in same.stdout
    evals = out["f_evals_solved"]
    assert f"F evaluations of solved blocks {evals} -> {evals}\n" in same.stdout
    # The first 40 blocks of seed 0 hold failures.
    assert out["failed"]
    better = dict(out, failed=out["failed"][1:], solved=dict(out["solved"], all=out["solved"]["all"] + 1))
    (tmp_path / "better.json").write_text(json.dumps(better))
    worse = run_script("block_sweep.py", tmp_path, "--blocks", "40", "--against", "better.json")
    assert worse.returncode == 1, worse.stderr
    assert worse.stdout.startswith(f"block {out['failed'][0]} solved there only: ")
    mismatch = run_script("block_sweep.py", tmp_path, "--blocks", "41", "--against", "same.json")
    assert mismatch.returncode == 2
    assert "sweeps 40 blocks" in mismatch.stderr


def test_fingerprint_repeats_and_names_every_part(tmp_path):
    first = run_script("fingerprint.py", tmp_path)
    assert first.returncode == 0, first.stderr
    parts = json.loads(first.stdout)
    runs = ["ex1_trapezoidal", "ex1_resnet", "ex2_trapezoidal", "ex2_resnet", "ex2_reversible"]
    want = {f"train/{run}/{name}" for run in runs for name in ("history.csv", "model.json")}
    want |= {f"loss_and_grad/{run}/{when}/{what}" for run in runs for when in ("initial", "trained") for what in ("total", "grads")}
    want |= {
        f"counts/{run}/{name}"
        for run in runs
        for name in ("solve_many.calls", "solve_many.systems", "f_evals", "reconstruct_input.calls")
    }
    want |= {"gradcheck/defaults", "gradcheck/--theta 0", "gradcheck/--paper-param-grad --depth 2", "gradcheck/--seed 3 --width 6 --depth 6"}
    assert set(parts) == want
    assert all(isinstance(v, int) for k, v in parts.items() if k.startswith("counts/"))
    assert parts["counts/ex2_reversible/reconstruct_input.calls"] > 0
    assert parts["counts/ex1_resnet/solve_many.calls"] == 0

    # The second run agrees with the first on every part but the two
    # altered here, and lists just those.
    total = parts.pop("loss_and_grad/ex1_resnet/trained/total")
    parts["gradcheck/defaults"] = "altered"
    (tmp_path / "first.json").write_text(json.dumps(parts))
    second = run_script("fingerprint.py", tmp_path, "--against", "first.json")
    assert second.returncode == 1, second.stderr
    assert second.stdout.splitlines() == [
        f"gradcheck/defaults: altered -> {json.loads(first.stdout)['gradcheck/defaults']}",
        f"loss_and_grad/ex1_resnet/trained/total: None -> {total}",
        f"2 of {len(want)} parts differ",
    ]

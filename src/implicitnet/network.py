"""Stacks of implicit blocks with affine lift/projection, losses, training.

A model is ``output_act(proj(block_L(...block_1(lift(x))...)))`` where every
block shares one width, one theta, and one step size ``h = horizon / depth``
so that different depths discretize the same underlying flow. Training is
plain mini-batch gradient descent with a seeded shuffle, deterministic down
to the bit for a fixed seed.

The smoothness regularizer penalizes differences between consecutive
layers' parameter vectors,

    R = (reg_coeff / L) * sum_{k=2..L} ||w_k - w_{k-1}||^2,

with ``w_k`` the concatenation of layer k's matrix and bias entries. Lift
and projection parameters stay outside both the regularizer and the
block-parameter counts.

``train``, ``evaluate`` and ``loss_and_grad`` each run under one
``np.errstate`` that turns NumPy's overflow, invalid and divide warnings
off. A state that blows up is judged by the package's own typed checks:
``NonFiniteLossError`` for the loss, ``SolverDivergedError`` for a solve.
"""

# Annotations are not postponed here: ``read_settings`` takes each field's
# type from ``dataclasses.fields``, which must be the class, not a string.
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import implicitblock as ib
from . import numkit
from .errors import (
    DimensionMismatchError,
    ImplicitNetError,
    NonFiniteLossError,
    ParseError,
    SingularMatrixError,
    SolverDivergedError,
)
from .implicitblock import ActivationKind, BlockStack, ImplicitBlockConfig, WeightMode

CHECKPOINT_FORMAT = "implicitnet-checkpoint"
CHECKPOINT_VERSION = 1

# Probability clamp for the cross-entropy loss.
P_EPS = 1e-12
# Central-difference step of ``gradcheck``.
FD_STEP = 1e-6


class LossKind(Enum):
    SQUARED_ERROR = "squared_error"
    BINARY_CROSS_ENTROPY = "binary_cross_entropy"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture hyperparameters; ``h = horizon / depth``.

    The fields are the keys of a config's ``model`` section and of a
    checkpoint's ``spec`` (see ``read_settings`` and ``write_settings``).
    A spec cannot change once made; ``dataclasses.replace`` makes another.
    """

    input_dim: int
    hidden_dim: int
    output_dim: int
    depth: int
    theta: float
    horizon: float = 1.0
    activation: ActivationKind = ActivationKind.TANH
    output_activation: ActivationKind = ActivationKind.IDENTITY
    weight_mode: WeightMode = WeightMode.RAW
    reg_coeff: float = 0.1
    paper_param_grad: bool = field(default=False)

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not self.reg_coeff >= 0:
            raise ValueError(f"reg_coeff must be nonnegative, got {self.reg_coeff}")

    @property
    def h(self) -> float:
        if self.depth == 0:
            raise ValueError("h is undefined for depth-0 models")
        return self.horizon / self.depth

    def block_config(self) -> ImplicitBlockConfig:
        """The blocks' config, made on the first call and the same object after.

        Kept outside the fields, so settings and equality ignore it; the
        config cannot change, and neither can the spec it is made from.
        """
        cfg = self.__dict__.get("_block_config")
        if cfg is None:
            cfg = ImplicitBlockConfig(
                theta=self.theta,
                h=self.h,
                activation=self.activation,
                paper_param_grad=self.paper_param_grad,
            )
            object.__setattr__(self, "_block_config", cfg)
        return cfg


@dataclass
class Affine:
    w: np.ndarray
    b: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Map the ``(in, B)`` batch ``v`` to ``(out, B)``."""
        if v.ndim != 2:
            raise DimensionMismatchError(f"expected an (in, B) batch, got shape {v.shape}")
        return self.w @ v + self.b[:, None]


@dataclass(frozen=True)
class Model:
    """``blocks`` stacks every block's matrix and bias (see ``BlockStack``).

    The blocks compute with ``blocks.mode`` and a checkpoint records
    ``spec.weight_mode``, so the two must agree; so must the stack's shape
    and the spec's, whose depth sets ``h``. Neither can be replaced
    afterwards; the parameter arrays are updated in place.
    """

    lift: Affine
    blocks: BlockStack
    proj: Affine
    spec: ModelSpec

    def __post_init__(self):
        if self.blocks.mode is not self.spec.weight_mode:
            raise ValueError(
                f"blocks compute in weight mode {self.blocks.mode.value!r} "
                f"but the spec says {self.spec.weight_mode.value!r}"
            )
        shape = (self.spec.depth, self.spec.hidden_dim, self.spec.hidden_dim)
        if self.blocks.a.shape != shape:
            raise DimensionMismatchError(f"block stack {self.blocks.a.shape} is not the spec's {shape}")


@dataclass
class TrainConfig:
    """Training settings; the fields are the keys of a config's ``train`` section."""

    learning_rate: float = 0.01
    batch_size: int = 4
    epochs: int = 100
    seed: int = 0
    loss: LossKind = LossKind.SQUARED_ERROR
    reversible: bool = False

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainFailure:
    """The error that stopped training, and where it was raised.

    ``epoch`` and ``batch`` count from 1; ``batch`` is ``None`` when the
    validation pass failed. ``indices`` are the failing batch's rows of the
    training set, in batch order (``None`` for a validation failure), and
    ``batch_losses`` the data losses of the epoch's batches completed
    before the failure.
    """

    epoch: int
    batch: int | None
    error: ImplicitNetError
    indices: list[int] | None = None
    batch_losses: list[float] = field(default_factory=list)

    def __str__(self) -> str:
        where = [f"epoch {self.epoch}"]
        where.append("validation" if self.batch is None else f"batch {self.batch}")
        layer = getattr(self.error, "layer", None)
        if layer is not None:
            where.append(f"layer {layer}")
        residual = getattr(self.error, "residual", None)
        if residual is not None:
            where.append(f"residual {residual:.3e}")
        return f"{type(self.error).__name__} at {', '.join(where)}: {self.error}"


@dataclass
class TrainRecord:
    """Per-epoch history; lengths equal the number of completed epochs.

    ``failure`` is set when training stopped early.
    """

    train_loss: list[float]
    val_loss: list[float]
    val_accuracy: list[float] | None
    failure: TrainFailure | None = None

    @property
    def diverged(self) -> bool:
        return self.failure is not None


def init_model(spec: ModelSpec, seed) -> Model:
    """Glorot-uniform matrices, zero biases; draw order lift, blocks, proj."""
    rng = seed if isinstance(seed, np.random.Generator) else numkit.make_rng(seed)
    n = spec.hidden_dim
    lift = Affine(numkit.glorot_uniform(rng, spec.input_dim, n), np.zeros(n))
    blocks = BlockStack(np.empty((spec.depth, n, n)), np.zeros((spec.depth, n)), spec.weight_mode)
    for a in blocks.a:
        a[...] = numkit.glorot_uniform(rng, n, n)
    proj = Affine(
        numkit.glorot_uniform(rng, spec.hidden_dim, spec.output_dim),
        np.zeros(spec.output_dim),
    )
    return Model(lift, blocks, proj, spec)


def named_parameters(m: Model) -> list[tuple[str, np.ndarray]]:
    """Every trainable array with its name, in ``init_model``'s draw order.

    The order is ``lift.w``, ``lift.b``, ``blocks.a`` (every block's
    matrix, ``(L, n, n)``), ``blocks.b`` (every block's bias, ``(L, n)``),
    ``proj.w``, ``proj.b``; gradients come in the same order and shapes.
    """
    return [
        ("lift.w", m.lift.w),
        ("lift.b", m.lift.b),
        ("blocks.a", m.blocks.a),
        ("blocks.b", m.blocks.b),
        ("proj.w", m.proj.w),
        ("proj.b", m.proj.b),
    ]


def _forward_arrays(m: Model, x: np.ndarray, keep_tapes: bool = True):
    """Run the whole stack on an ``(input_dim, B)`` batch.

    Returns ``(out, last_hidden, tape)``, all with B columns. With
    ``keep_tapes`` and at least one block, ``tape`` is the stacked
    ``TapeEntry`` of every block (see its docstring), else ``None``.
    """
    tape = None
    if m.blocks:
        cfg = m.spec.block_config()
        # Passed unnamed, the lifted batch can be freed once the first block
        # has read it.
        hid, tape = ib.solve_stack(cfg, m.blocks, m.lift.apply(x), keep_tapes)
    else:
        hid = m.lift.apply(x)
    out = m.spec.output_activation.apply(m.proj.apply(hid))
    return out, hid, tape


def _check_widths(m: Model, x: np.ndarray, targets: np.ndarray | None = None) -> None:
    """``DimensionMismatchError`` unless ``x`` is ``(input_dim,)`` or ``(input_dim, B)``
    and ``targets``, when given, ``(output_dim,)`` or ``(output_dim, B)`` to match."""
    if x.ndim not in (1, 2) or x.shape[0] != m.spec.input_dim:
        raise DimensionMismatchError(f"input shape {x.shape} does not match input_dim {m.spec.input_dim}")
    want = (m.spec.output_dim,) + x.shape[1:]
    if targets is not None and targets.shape != want:
        raise DimensionMismatchError(f"target shape {targets.shape} does not match {want}")


def model_forward(m: Model, x) -> tuple[np.ndarray, list[ib.TapeEntry]]:
    """Evaluate the model on one state ``(input_dim,)`` or a batch ``(input_dim, B)``.

    Also returns one ``TapeEntry`` per block, whose arrays view the stacked tape.
    """
    x = np.asarray(x, dtype=float)
    _check_widths(m, x)
    out, _, tape = _forward_arrays(m, x[:, None] if x.ndim == 1 else x)
    tapes = [] if tape is None else [tape.block(i) for i in range(len(m.blocks))]
    return out.reshape((m.spec.output_dim,) + x.shape[1:]), tapes


def _data_loss(kind: LossKind, out: np.ndarray, targets: np.ndarray) -> float:
    batch = out.shape[1]
    if kind is LossKind.SQUARED_ERROR:
        d = out - targets
        return 0.5 * float((d * d).sum()) / batch
    p = np.clip(out, P_EPS, 1.0 - P_EPS)
    t = targets
    return -float((t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum()) / batch


def _data_loss_grad(kind: LossKind, out: np.ndarray, targets: np.ndarray) -> np.ndarray:
    batch = out.shape[1]
    if kind is LossKind.SQUARED_ERROR:
        return (out - targets) / batch
    p = np.clip(out, P_EPS, 1.0 - P_EPS)
    t = targets
    return (-t / p + (1.0 - t) / (1.0 - p)) / batch


def regularizer(m: Model) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Layer-smoothness penalty and its exact gradients ``(grad_a, grad_b)``.

    The gradients are stacked like ``m.blocks.a`` and ``m.blocks.b``, own
    their data and are the only arrays made. The value is summed per stack,
    so its last bit can differ from one sum over the concatenated ``w_k``.
    """
    a, b = m.blocks.a, m.blocks.b
    if len(a) < 2 or m.spec.reg_coeff == 0.0:
        return 0.0, (np.zeros_like(a), np.zeros_like(b))
    c = m.spec.reg_coeff / len(a)
    value, grads = 0.0, (np.empty_like(a), np.empty_like(b))
    for p, g in zip((a, b), grads):
        g[0] = 0.0
        d = np.subtract(p[1:], p[:-1], out=g[1:])
        value += c * float(np.vdot(d, d))
        d *= 2.0 * c
        # Adding zero turns a -0.0 into +0.0, as summing from zero does. The
        # overlapping subtraction needs no copy on these contiguous rows.
        d += 0.0
        g[:-1] -= d
    return value, grads


def _loss_and_grad_arrays(
    m: Model,
    x: np.ndarray,
    targets: np.ndarray,
    kind: LossKind,
    reversible: bool = False,
):
    """Full objective (mean data loss + regularizer) and all gradients.

    Returns ``(total, data_loss, grads, input_grad)``, with ``grads`` in
    ``named_parameters`` order. With ``reversible`` and ``theta > 0`` no
    tapes are kept: hidden states are rebuilt backward by inverting each
    block, so peak storage stays at one layer.
    """
    reversible = reversible and m.spec.theta > 0.0 and bool(m.blocks)
    out, hid, tape = _forward_arrays(m, x, keep_tapes=not reversible)

    data = _data_loss(kind, out, targets)
    # Checked before any block backward runs. The message is the one the
    # total would give: adding the penalty leaves a non-finite loss as it is.
    if not np.isfinite(data):
        raise NonFiniteLossError(f"loss is {data}")

    d_out = _data_loss_grad(kind, out, targets)
    d_o = m.spec.output_activation.deriv_from_value(out) * d_out
    proj_grads = d_o @ hid.T, d_o.sum(axis=1)

    if m.blocks:
        cfg = m.spec.block_config()
        # Left unnamed, the gradient at the last block's output is freed as
        # soon as the first block backward is done with it.
        if tape is None:
            # Handed over from a list, not a name, the top state is freed
            # once its block is rebuilt.
            top = [hid]
            del hid
            d_hid, *block_grads = ib.pull_back_rebuilt(cfg, m.blocks, top.pop(), m.proj.w.T @ d_o)
        else:
            d_hid, gw, gb = ib.pull_back_stack(cfg, tape, m.proj.w.T @ d_o)
            # The tape is spent; freeing it before the rows are finished
            # keeps it out of the step's peak memory.
            del tape
            block_grads = ib.param_grads(cfg, m.spec.weight_mode, gw, gb)
            # The finished gradients own their data, so the route rows go
            # here, before the regularizer makes its gradient.
            del gw, gb
    else:
        d_hid = m.proj.w.T @ d_o
        block_grads = np.zeros_like(m.blocks.a), np.zeros_like(m.blocks.b)

    # Run last, when no tape or route row is alive. Its gradient is added
    # after the data gradient is finished, so that each row is the
    # per-block ``backward`` result plus the regularizer's, bit for bit.
    reg_value, reg_grads = regularizer(m)
    for g, rg in zip(block_grads, reg_grads):
        g += rg
    total = data + reg_value
    if not np.isfinite(total):
        raise NonFiniteLossError(f"loss is {total}")

    grads = [d_hid @ x.T, d_hid.sum(axis=1), *block_grads, *proj_grads]
    return total, data, grads, m.lift.w.T @ d_hid


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def loss_and_grad(m: Model, batch, cfg: TrainConfig) -> tuple[float, list[np.ndarray]]:
    """Mean loss plus regularizer over a batch of ``(x, target)`` pairs.

    The gradients come in ``named_parameters`` order.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    x = np.stack([np.asarray(p[0], dtype=float) for p in batch], axis=1)
    t = np.stack([np.asarray(p[1], dtype=float) for p in batch], axis=1)
    _check_widths(m, x, t)
    total, _, grads, _ = _loss_and_grad_arrays(m, x, t, cfg.loss, cfg.reversible)
    return total, grads


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate(m: Model, inputs: np.ndarray, targets: np.ndarray, kind: LossKind):
    """Mean data loss over ``(N, input_dim)`` inputs and ``(N, output_dim)`` targets.

    Accuracy too for binary targets. A width error gives shapes transposed,
    a column per sample.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    _check_widths(m, inputs.T, targets.T)
    out, _, _ = _forward_arrays(m, inputs.T, keep_tapes=False)
    loss = _data_loss(kind, out, targets.T)
    accuracy = None
    if kind is LossKind.BINARY_CROSS_ENTROPY:
        pred = (out >= 0.5).astype(float)
        accuracy = float((pred == targets.T).mean())
    return loss, accuracy


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(m: Model, train_set, val_set, cfg: TrainConfig) -> TrainRecord:
    """Mini-batch gradient descent; mutates ``m`` in place.

    Batches are drawn by a seeded shuffle each epoch (the trailing short
    batch is kept). A non-finite loss or a failed block solve stops
    training early; the record then holds the epochs completed before the
    failure, and the failure itself.
    """
    rng = numkit.make_rng(cfg.seed)
    params = [p for _, p in named_parameters(m)]
    # A 0-d array, not a float: a Python scalar costs more per NumPy call.
    lr = np.array(cfg.learning_rate, dtype=float)
    x_train = np.asarray(train_set.inputs, dtype=float)
    t_train = np.asarray(train_set.targets, dtype=float)
    n = x_train.shape[0]
    # Checked once here, not on each batch's slice.
    for inputs, targets in ((x_train, t_train), (val_set.inputs, val_set.targets)):
        _check_widths(m, np.transpose(inputs), np.transpose(targets))
    want_acc = cfg.loss is LossKind.BINARY_CROSS_ENTROPY

    train_hist: list[float] = []
    val_hist: list[float] = []
    acc_hist: list[float] = []
    failure = None

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        batch_losses = []
        try:
            for batch, start in enumerate(range(0, n, cfg.batch_size), start=1):
                idx = perm[start : start + cfg.batch_size]
                _, data, grads, _ = _loss_and_grad_arrays(
                    m, x_train[idx].T, t_train[idx].T, cfg.loss, cfg.reversible
                )
                # Each gradient is the step's own, so it is scaled in place.
                for p, g in zip(params, grads):
                    p -= np.multiply(g, lr, out=g)
                batch_losses.append(data)
            batch = None
            val_loss, val_acc = evaluate(m, val_set.inputs, val_set.targets, cfg.loss)
            if not np.isfinite(val_loss):
                raise NonFiniteLossError(f"validation loss is {val_loss}")
        except (NonFiniteLossError, SolverDivergedError, SingularMatrixError) as exc:
            indices = None if batch is None else idx.tolist()
            failure = TrainFailure(epoch, batch, exc, indices, batch_losses)
            break
        train_hist.append(float(np.mean(batch_losses)))
        val_hist.append(float(val_loss))
        if want_acc:
            acc_hist.append(float(val_acc))

    return TrainRecord(train_hist, val_hist, acc_hist if want_acc else None, failure)


def param_count(m: Model, blocks_only: bool = False) -> int:
    """Number of trainable scalars; ``blocks_only`` skips lift and proj."""
    if blocks_only:
        return m.blocks.a.size + m.blocks.b.size
    return sum(p.size for _, p in named_parameters(m))


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_coord: str
    passed: bool
    coords_checked: int
    # per parameter group: (max relative error, offending coordinate)
    group_errors: dict[str, tuple[float, str]]

    def failing_groups(self, tol: float):
        bad = [(g, e, c) for g, (e, c) in self.group_errors.items() if e > tol]
        return sorted(bad, key=lambda item: -item[1])


def _loss_only(m: Model, x: np.ndarray, targets: np.ndarray) -> float:
    out, _, _ = _forward_arrays(m, x, keep_tapes=False)
    value, _ = regularizer(m)
    return _data_loss(LossKind.SQUARED_ERROR, out, targets) + value


def gradcheck(m: Model, sample, tol: float = 1e-5) -> GradCheckReport:
    """Central finite differences over every parameter and the input.

    The objective is the squared-error loss plus the regularizer, and each
    coordinate moves by ``FD_STEP`` either way. Relative error uses
    denominator ``1 + |numeric value|``. The report names the worst
    coordinate, e.g. ``blocks[3].a[2,1]``.
    """
    x_vec = np.asarray(sample[0], dtype=float)
    t_vec = np.asarray(sample[1], dtype=float)
    x = x_vec[:, None].copy()
    t = t_vec[:, None]

    _, _, grads, input_grad = _loss_and_grad_arrays(m, x, t, LossKind.SQUARED_ERROR)

    # ``grads`` follows ``named_parameters``; the blocks are reported one by one.
    groups = [("lift.w", m.lift.w, grads[0]), ("lift.b", m.lift.b, grads[1])]
    for i in range(len(m.blocks)):
        groups.append((f"blocks[{i}].a", m.blocks.a[i], grads[2][i]))
        groups.append((f"blocks[{i}].b", m.blocks.b[i], grads[3][i]))
    groups += [("proj.w", m.proj.w, grads[4]), ("proj.b", m.proj.b, grads[5]), ("input", x, input_grad)]

    worst = 0.0
    worst_coord = "none"
    checked = 0
    group_errors: dict[str, tuple[float, str]] = {}
    for name, arr, analytic in groups:
        group_worst, group_coord = 0.0, "none"
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + FD_STEP
            up = _loss_only(m, x, t)
            arr[idx] = saved - FD_STEP
            down = _loss_only(m, x, t)
            arr[idx] = saved
            numeric = (up - down) / (2.0 * FD_STEP)
            rel = abs(float(np.asarray(analytic)[idx]) - numeric) / (1.0 + abs(numeric))
            checked += 1
            coord = f"{name}[{','.join(map(str, idx))}]"
            if rel > group_worst:
                group_worst, group_coord = rel, coord
            if rel > worst:
                worst, worst_coord = rel, coord
        group_errors[name] = (group_worst, group_coord)
    return GradCheckReport(worst, worst_coord, worst <= tol, checked, group_errors)


def read_setting(section: str, key: str, kind: type, value):
    """Return ``value`` as a ``kind``; ``ParseError`` unless it has that kind's JSON type.

    A bool takes a JSON boolean, an int an integer, a float any finite
    number (Python's ``json`` also reads ``NaN`` and ``Infinity``) and an
    enum one of its value names.
    """
    if kind is bool:
        ok, want = isinstance(value, bool), "a boolean"
    elif kind is int:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif kind is float:
        # The bound also rejects NaN, and integers too large for a float.
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max
        want = "a finite number"
    else:
        names = [member.value for member in kind]
        ok, want = isinstance(value, str) and value in names, f"one of {names}"
    if not ok:
        raise ParseError(f"{section}.{key} must be {want}, got {value!r}")
    return kind(value)


def read_settings(cls, section: str, values):
    """Build the settings dataclass ``cls`` (``ModelSpec``, ``TrainConfig``) from a JSON object.

    Fields without a default are required, missing ones take their
    default, and each value is checked by ``read_setting``. Anything else
    raises ``ParseError`` naming ``section``.
    """
    if not isinstance(values, dict):
        raise ParseError(f"section {section!r} must be an object")
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(values) - set(kinds)
    if unknown:
        raise ParseError(f"unknown key(s) in section {section!r}: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        raise ParseError(f"missing key(s) in section {section!r}: {missing}")
    checked = {key: read_setting(section, key, kinds[key], v) for key, v in values.items()}
    try:
        return cls(**checked)
    except ValueError as exc:
        raise ParseError(f"bad value in section {section!r}: {exc}") from None


def write_settings(settings) -> dict:
    """The JSON object that ``read_settings`` turns back into ``settings``."""
    doc = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        doc[f.name] = value.value if isinstance(value, Enum) else value
    return doc


def save_model(m: Model, path) -> None:
    """Write a version-1 JSON checkpoint (exact float round-trip)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "spec": write_settings(m.spec),
        "lift": {"w": m.lift.w.tolist(), "b": m.lift.b.tolist()},
        "blocks": [{"a": a.tolist(), "b": b.tolist()} for a, b in zip(m.blocks.a, m.blocks.b)],
        "proj": {"w": m.proj.w.tolist(), "b": m.proj.b.tolist()},
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def _read_array(section, key: str, where: str, shape: tuple) -> np.ndarray:
    """``section[key]`` as a float array of ``shape``; ``ParseError`` naming ``where`` otherwise."""
    if not isinstance(section, dict) or key not in section:
        raise ParseError(f"checkpoint lacks {where}")
    try:
        arr = np.array(section[key], dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"checkpoint {where} is not an array of numbers") from None
    if arr.shape != shape:
        raise ParseError(f"checkpoint {where} has shape {arr.shape}, its spec needs {shape}")
    return arr


def load_model(path) -> Model:
    """Read a checkpoint written by ``save_model``.

    Raises ``ParseError`` naming the field when the file is not a version-1
    checkpoint, a field is missing, or an array disagrees with ``spec``.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT \
            or doc.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"not a {CHECKPOINT_FORMAT} v{CHECKPOINT_VERSION} file: {path}")
    spec = read_settings(ModelSpec, "spec", doc.get("spec"))
    n, n_in, n_out = spec.hidden_dim, spec.input_dim, spec.output_dim
    blocks = doc.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != spec.depth:
        raise ParseError(f"checkpoint blocks must be a list of spec.depth = {spec.depth} blocks")
    lift_doc, proj_doc = doc.get("lift"), doc.get("proj")
    lift = Affine(
        _read_array(lift_doc, "w", "lift.w", (n, n_in)),
        _read_array(lift_doc, "b", "lift.b", (n,)),
    )
    stack = BlockStack(np.empty((spec.depth, n, n)), np.empty((spec.depth, n)), spec.weight_mode)
    for i, blk in enumerate(blocks):
        stack.a[i] = _read_array(blk, "a", f"blocks[{i}].a", (n, n))
        stack.b[i] = _read_array(blk, "b", f"blocks[{i}].b", (n,))
    proj = Affine(
        _read_array(proj_doc, "w", "proj.w", (n_out, n)),
        _read_array(proj_doc, "b", "proj.b", (n_out,)),
    )
    return Model(lift, stack, proj, spec)

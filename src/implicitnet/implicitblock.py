"""The implicit residual block and its exact backward pass.

A block maps an input ``x`` to the solution ``y`` of

    y = x + h * [(1 - theta) * F(x) + theta * F(y)],

where ``F(v) = act(W v + b)`` and ``W`` is either the raw parameter matrix
``a`` or its skew-symmetrization ``a - a.T``. ``theta = 0`` recovers the
ordinary explicit residual step, ``theta = 1`` the fully implicit one, and
``theta = 0.5`` a time-symmetric step that can be inverted, which is what
makes tape-free training possible (see ``reconstruct_input``).

Both directions solve the same kind of equation, ``z = c + alpha F(z)``:
``forward`` finds ``y`` with ``c = x + h(1-theta)F(x)`` and
``alpha = h theta``, ``reconstruct_input`` finds ``x`` with
``c = y - h theta F(y)`` and ``alpha = -h(1-theta)``. One routine,
``_solve_fixed_point``, serves both. It runs two phases, and it alone
reads the activation to choose their order:

- ``_sweeps``: fixed-point sweeps ``z <- c + alpha F(z)``, which contract
  at rate ``|alpha| L`` for L-Lipschitz F. They run on the pre-activation:
  with ``t = F(z)``, a sweep is ``t <- act(alpha W t + (W c + b))``, three
  NumPy calls. The residual is read once per run of sweeps: at the start,
  one sweep later for a first contraction rate, then at the end of each
  run, whose length that rate predicts to reach the tolerance. A read
  forms ``z`` and makes ``F(z)`` afresh, and only a read accepts, so the
  pair a solve returns meets the tolerance by the residual test itself,
  never by an estimate. A run whose mean contraction per sweep is not
  below ``SWEEP_RATE`` hands over;
- ``_newton``: damped Newton on ``r(z) = z - c - alpha F(z)``. Each step
  solves ``(I - alpha diag(F'(z)) W) d = r`` for every column in one
  stacked solve. A full step whose residual meets the tolerance is taken
  at once; any other step backtracks on ``||r||^2`` (Armijo constant 1e-4,
  step halving, at most 40 halvings per step), whose sums are made only
  then. A singular Newton matrix or a failed line search ends the steps.

Tanh and sigmoid blocks sweep, then take up to ``SOLVER_MAX_ITER`` Newton
steps if the sweeps missed. Identity and ReLU blocks go to Newton straight
from the start: F is then piecewise linear, so the residual is affine
wherever the activation pattern holds and a Newton step lands on the root
once the pattern is right (semismooth Newton). That early Newton gets
``EARLY_NEWTON_STEPS`` steps. If they end above the tolerance (too few
steps, a failed line search or a singular matrix), the solve makes its
start again and runs both phases as a tanh block would: it solves what
that rule alone solves from the explicit step, to the same bits. A solve
still above the tolerance raises ``SolverDivergedError``.

Every solve starts from the explicit step of its own direction, which
costs nothing more: the block's F at its known state is in hand.
``forward`` starts from ``y0 = x + h F(x)``, ``reconstruct_input`` from
``x0 = y - h F(y)``. At ``theta = 0`` there is nothing to solve:
``forward`` takes the explicit step ``y = x + h F(x)`` with a single
evaluation of F.

The backward pass is exact: one transposed linear solve against
``(I - h theta dF/dy)`` per layer, then dense chain-rule accumulation for
the input, weight, and bias gradients. No differentiation through the
nonlinear solver is ever needed. At ``theta = 0`` the solve and the whole
F(y) route drop out, which is why an explicit block's tape holds no ``sy``.
The Newton steps and the backward solve all go through
``numkit.solve_many``, one system per batch column, and build their
matrices with the same ``_shifted_identity``: the backward matrix
``(I - h theta diag(sy) W)^T`` is the transposed Newton matrix at the
solution.

Internally every state is a batch: an ``(n, B)`` array with one state per
column. The public functions also accept a single ``(n,)`` state, which
they treat as a batch of one and return in its own shape; a block's
tape always holds ``(n, B)`` arrays. Parameter gradients returned by
``backward`` are summed over the batch.

``forward`` and ``backward`` are thin wrappers over the array-level core
that a network runs, one loop per direction over every block. A single
block is a stack of one, so every path uses the same formulas.
``solve_stack`` takes a ``BlockStack``. With a tape it builds every
block's effective weight at once, since the tape keeps them all, writes
each block's output, F(x) and F(y) into rows it makes up front, and takes
the tape's slopes once for all layers. Without a tape it makes each
block's W only when the block runs, into one reused row, so the forward
holds one block's weights and a few state rows at any depth; at
``theta = 0``, where nothing is solved, it builds them all at once.
``pull_back_stack`` is the one backward loop: it runs the recursion,
overwriting each block's slopes with its pulled-back ``px`` and ``py``,
and consumes the tape. Only once it has released the weight stack does it
make the unscaled parameter-gradient rows it returns, one batched product
per route; ``param_grads`` scales, sums and skew-projects all the rows at
once. The reversible path, ``pull_back_rebuilt``, rebuilds one block at a
time with ``reconstruct_input`` and ``make_tape``, both handed the block's
W made once into a reused row, runs ``pull_back_stack``
on that block's tape as a stack of one, and folds the block's routes into
its finished row at once, so it returns finished gradients.

At the package's sizes (width 5-6, batch 4-32) each NumPy call costs more
than its arithmetic, so the solve and backward loops keep one operand
rule: every operand of a ufunc is an array of the same shape or a
read-only 0-d array, never a Python scalar, which costs a third more per
call. The step's coefficients are made once per config
(``ImplicitBlockConfig.coef_h`` and the rest), the constants 0, 1 and
1/2 once per module. Reductions call ``np.maximum.reduce`` and
``np.add.reduce`` directly, not the ``ndarray`` methods that wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import numkit
from .errors import DimensionMismatchError, SingularMatrixError, SolverDivergedError

# A block solve succeeds once the max-norm residual of its equation is at
# most SOLVER_TOL; the sweeps and Newton get SOLVER_MAX_ITER iterations each.
SOLVER_TOL = 1e-10
SOLVER_MAX_ITER = 100
# Newton's backtracking line search: sufficient-decrease constant and the
# most step halvings tried before a step counts as failed.
ARMIJO_C = 1e-4
MAX_HALVINGS = 40
# A run of sweeps whose mean contraction per sweep is not below this factor
# hands over to Newton. Tanh and sigmoid blocks contract at about 0.1-0.2
# per sweep, where a sweep costs a fraction of a Newton step's stacked
# linear solve and sweeps stay cheaper. Each run after the first sweep is
# RUN_MARGIN times the count that the last read's contraction predicts for
# the residual to reach the tolerance: longer runs waste sweeps, shorter
# ones pay for more residual reads. The rates only size runs and decide
# handovers; a solve is accepted on a residual read alone. A
# piecewise-linear block starts with EARLY_NEWTON_STEPS Newton steps
# instead, since Newton lands on its root once the activation pattern
# holds; if they miss, it sweeps from its start under this rule. The cap
# keeps a failing solve's cost near the rule's own: uncapped, the median F
# evaluations per failing solve of scripts/block_sweep.py nearly doubled.
SWEEP_RATE = 0.3
RUN_MARGIN = 1.3
EARLY_NEWTON_STEPS = 3


def _const(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float array: a NumPy operand that costs
    what an array does, where a Python float costs a third more per call."""
    a = np.array(value, dtype=float)
    a.setflags(write=False)
    return a


_ZERO = _const(0.0)
_ONE = _const(1.0)
_HALF = _const(0.5)


class ActivationKind(Enum):
    IDENTITY = "identity"
    RELU = "relu"
    TANH = "tanh"
    SIGMOID = "sigmoid"

    def apply(self, u: np.ndarray) -> np.ndarray:
        """``act(u)``, written over the float array ``u``, which is returned.

        Every caller passes an array it has just made and does not read
        again, so no evaluation allocates its result.
        """
        if self is ActivationKind.RELU:
            np.maximum(u, _ZERO, out=u)
        elif self is ActivationKind.TANH:
            np.tanh(u, out=u)
        elif self is ActivationKind.SIGMOID:
            _sigmoid(u)
        return u

    def deriv_from_value(self, value: np.ndarray, out=None) -> np.ndarray:
        """The derivative ``act'(u)`` at ``u``, computed from ``value = apply(u)``.

        Every derivative in the package is taken this way, from a value
        already evaluated, so no transcendental is computed twice. ``out``
        receives the result when given, and may be ``value`` itself.
        """
        if out is None:
            out = np.empty_like(value)
        if self is ActivationKind.IDENTITY:
            out[...] = _ONE
        elif self is ActivationKind.RELU:
            np.greater(value, _ZERO, out=out)
        elif self is ActivationKind.TANH:
            np.multiply(value, value, out=out)
            np.subtract(_ONE, out, out=out)
        else:
            np.multiply(value, np.subtract(_ONE, value), out=out)
        return out


def _sigmoid(u: np.ndarray) -> None:
    """The logistic function, in place, without overflow on either side."""
    pos = u >= _ZERO
    neg = ~pos
    eu = np.exp(u[neg])
    u[pos] = _ONE / (_ONE + np.exp(-u[pos]))
    u[neg] = eu / (_ONE + eu)


class WeightMode(Enum):
    RAW = "raw"
    SKEW_SYMMETRIC = "skew"


@dataclass
class BlockParams:
    """One layer's parameters: pre-skew matrix ``a`` and bias ``b``."""

    a: np.ndarray
    b: np.ndarray
    mode: WeightMode = WeightMode.RAW

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise DimensionMismatchError(f"block matrix must be square, got {self.a.shape}")
        if self.b.shape != (self.a.shape[0],):
            raise DimensionMismatchError(
                f"bias shape {self.b.shape} does not match width {self.a.shape[0]}"
            )

    @property
    def width(self) -> int:
        return self.a.shape[0]

    def effective_weight(self) -> np.ndarray:
        """``W = a - a.T`` in skew-symmetric mode (``W + W.T == 0`` exactly), else ``a``."""
        return _effective_weight(self.a, self.mode)


@dataclass(frozen=True)
class BlockStack:
    """Every block's parameters, stacked: ``a`` is ``(L, n, n)`` and ``b`` is ``(L, n)``.

    ``stack[i]`` and iteration give block ``i`` as ``BlockParams`` whose
    arrays are views into the stacks, so writes through them land here. The
    views are made on each access and never stored, so a deep copy holds
    only its own stacks. The arrays are updated in place; the fields cannot
    be replaced.
    """

    a: np.ndarray
    b: np.ndarray
    mode: WeightMode = WeightMode.RAW

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, i: int) -> BlockParams:
        return BlockParams(self.a[i], self.b[i], self.mode)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def effective_weight(self) -> np.ndarray:
        """Every block's ``W``, stacked like ``a``."""
        return _effective_weight(self.a, self.mode)


def _skew(a: np.ndarray, out=None) -> np.ndarray:
    """``a - a^T`` over the last two axes, for one matrix or a stack of them.

    The result goes into ``out`` when given, else into a new array.
    """
    # Subtracting the transposed view directly makes NumPy buffer a copy of
    # it; copying it into the result first allocates nothing more.
    if out is None:
        out = np.empty_like(a)
    out[...] = a.swapaxes(-1, -2)
    return np.subtract(a, out, out=out)


def _effective_weight(a: np.ndarray, mode: WeightMode) -> np.ndarray:
    """``W`` of one pre-skew matrix or a stack: ``a - a^T`` in skew-symmetric mode, else ``a``."""
    return _skew(a) if mode is WeightMode.SKEW_SYMMETRIC else a


@dataclass(frozen=True)
class ImplicitBlockConfig:
    """Block hyperparameters, fixed once made.

    ``paper_param_grad`` switches the weight/bias gradient to the reduced
    published formula that drops the F(y) route; it exists only so the
    gradient checker can demonstrate the discrepancy and must stay off for
    training. The solver's tolerance and iteration cap are the module
    constants ``SOLVER_TOL`` and ``SOLVER_MAX_ITER``; ``solver_tol`` reads
    the first and cannot be set.

    The step's coefficients are made here once, as read-only 0-d arrays,
    for the solve and backward loops to pass to NumPy: ``coef_h`` is h,
    ``coef_x`` is h(1-theta), the weight of F(x), ``coef_y`` is h theta,
    the weight of F(y), and ``neg_h`` and ``neg_x`` are -h and
    -h(1-theta). A deep copy of a config is the config itself.
    """

    theta: float
    h: float
    activation: ActivationKind
    paper_param_grad: bool = field(default=False)
    coef_h: np.ndarray = field(init=False, repr=False, compare=False)
    coef_x: np.ndarray = field(init=False, repr=False, compare=False)
    coef_y: np.ndarray = field(init=False, repr=False, compare=False)
    neg_h: np.ndarray = field(init=False, repr=False, compare=False)
    neg_x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")
        h, theta = self.h, self.theta
        for name, value in (
            ("coef_h", h), ("coef_x", h * (1.0 - theta)), ("coef_y", h * theta),
            ("neg_h", -h), ("neg_x", -(h * (1.0 - theta))),
        ):
            object.__setattr__(self, name, _const(value))

    def __deepcopy__(self, memo):
        return self

    @property
    def solver_tol(self) -> float:
        return SOLVER_TOL


class TapeEntry:
    """What the backward pass reads: one block's, or every block's stacked.

    Holds the ``(n, B)`` states ``x`` and ``y``, the activation derivatives
    ``sx = act'(W x + b)`` and ``sy = act'(W y + b)`` of the same shape, and
    the effective weight ``w``. Column ``j``'s Jacobian ``dF/dx`` is
    ``sx[:, j, None] * w``, and likewise for ``y``. ``sy`` is ``None`` at
    ``theta = 0``, where backward does not use it. A network's tape holds
    the same arrays with a leading layer axis: ``x`` and ``y`` are the
    views ``states[:-1]`` and ``states[1:]`` of one ``(L+1, n, B)`` array,
    and ``w`` is the ``(L, n, n)`` weight stack.
    """

    __slots__ = ("x", "y", "sx", "sy", "w")

    def __init__(self, x, y, sx, sy, w):
        self.x = x
        self.y = y
        self.sx = sx
        self.sy = sy
        self.w = w

    def block(self, i: int) -> "TapeEntry":
        """Block ``i``'s entry of a stacked tape, viewing its arrays."""
        sy = None if self.sy is None else self.sy[i]
        return TapeEntry(self.x[i], self.y[i], self.sx[i], sy, self.w[i])


def _columns(params: BlockParams, v) -> np.ndarray:
    """Validate a state ``(n,)`` or batch ``(n, B)`` and return it as ``(n, B)``."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != params.width:
        raise DimensionMismatchError(
            f"state shape {v.shape} does not match block width {params.width}"
        )
    return v[:, None] if v.ndim == 1 else v


def _like(out: np.ndarray, v) -> np.ndarray:
    """Return the ``(n, B)`` result ``out`` in the layout of the caller's ``v``."""
    # Not a reshape: a fresh view per layer would add an array header to every tape.
    return out[:, 0] if np.ndim(v) == 1 else out


def _affine(w: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``W v + b`` for an ``(n, B)`` batch ``v``, in the one array it returns."""
    # np.dot, not matmul: it costs less per call on these small operands
    # and rounds the same.
    out = np.dot(w, v)
    out += b[:, None]
    return out


def block_fn(params: BlockParams, act: ActivationKind, v) -> np.ndarray:
    """Evaluate ``F(v) = act(W v + b)``."""
    return _like(act.apply(_affine(params.effective_weight(), params.b, _columns(params, v))), v)


_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(n: int) -> np.ndarray:
    m = _EYE_CACHE.get(n)
    if m is None:
        m = np.eye(n)
        m.setflags(write=False)
        _EYE_CACHE[n] = m
    return m


def _shifted_identity(w: np.ndarray, s: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Stack of ``I - coeff * diag(s[:, j]) @ W`` over the columns ``j`` of ``s``."""
    # Built in place in one buffer: the broadcasting form allocates two more
    # stacks of the same size.
    m = np.empty((s.shape[1],) + w.shape)
    m[...] = w
    m *= s.T[:, :, None]
    m *= coeff
    return np.subtract(_eye(w.shape[0]), m, out=m)


def _solve_fixed_point(act, w, b, c, alpha, z, what, v, s):
    """Solve ``z = c + alpha F(z)`` for the ``(n, B)`` state ``z``.

    ``z`` holds the start ``v + s F(v)``. Returns ``(z, F(z))`` with
    ``max |z - c - alpha F(z)| <= SOLVER_TOL``, or raises
    ``SolverDivergedError`` carrying the final residual; its message also
    gives the final iterate's max ``|z|``. The activation picks the order
    of the phases, as the module docstring says; a failed early Newton
    makes the start again, F(v) with it, in the start array.

    The start array is the solver's to write. The sweeps form each iterate
    they read in it, and Newton keeps its iterate in it, so a caller that
    still holds the start holds no array the solver has left.
    """
    if act is ActivationKind.IDENTITY or act is ActivationKind.RELU:
        z, fz, res = _newton(act, w, b, c, alpha, z, act.apply(_affine(w, b, z)), EARLY_NEWTON_STEPS)
        if res <= SOLVER_TOL:
            return z, fz
        # Newton left its iterate in the start array, which the start
        # overwrites: no copy of it is held through Newton.
        del fz
        np.multiply(act.apply(_affine(w, b, v)), s, out=z)
        z += v
    z, fz, res = _sweeps(act, w, b, c, alpha, z)
    if not res <= SOLVER_TOL:  # a NaN residual goes on to Newton too
        z, fz, res = _newton(act, w, b, c, alpha, z, fz, SOLVER_MAX_ITER)
    if res <= SOLVER_TOL:
        return z, fz
    # The state's scale tells a blown-up state, whose residual cannot reach
    # an absolute tolerance in floating point, from a solve that stalled.
    raise SolverDivergedError(
        f"{what} stalled at residual {res:.3e} (tol {SOLVER_TOL:.1e}) "
        f"with max |z| {float(np.maximum.reduce(np.abs(z), None)):.3e}",
        residual=res,
    )


def _residual(c, alpha, z, fz, out) -> float:
    """``max |c + alpha F(z) - z|``, made in the row ``out``: the test that accepts a swept solve."""
    np.multiply(fz, alpha, out=out)
    out += c
    out -= z
    return float(np.maximum.reduce(np.abs(out, out=out), None))


def _sweeps(act, w, b, c, alpha, z):
    """Fixed-point sweeps from the start array ``z``; returns ``(z, F(z), residual)``.

    The sweeps run on the pre-activation: with ``t = F(z)`` in hand, the
    next iterate's F is ``act(alpha W t + (W c + b))``, three NumPy calls,
    and z itself is not formed. The residual is read once per run of
    sweeps, where the run's last sweep forms ``z = c + alpha t`` in the
    start array and makes ``F(z)`` from it; a solve is accepted only on
    that read, so the pair it returns meets the tolerance by the test
    that ``_residual`` makes. The start's residual is read first, and one
    sweep later a second read gives the first contraction rate. Each
    later run is ``RUN_MARGIN`` times as long as that rate predicts for
    the residual to reach the tolerance. A run whose mean contraction per
    sweep is not below ``SWEEP_RATE`` hands over, as does a non-finite
    start. The sweeps make at most ``SOLVER_MAX_ITER + 1`` F evaluations;
    if they run out while still contracting, z steps past the last one and
    F is made there again. A missed solve comes back in the start array,
    where Newton keeps its iterate.
    """
    fz = act.apply(_affine(w, b, z))
    # Spent rows take turns: an F row, once the next F is made, takes the
    # residual or the next pre-activation.
    row = np.empty_like(z)
    res = _residual(c, alpha, z, fz, row)
    if res <= SOLVER_TOL or not res < math.inf:
        return z, fz, res
    aw = base = None
    run, left = 1, SOLVER_MAX_ITER
    while left:
        run = min(run, left)
        left -= run
        t = fz
        for _ in range(run - 1):
            np.dot(aw, t, out=row)
            row += base
            t, row = act.apply(row), t
        np.multiply(t, alpha, out=z)
        z += c
        # As _affine makes it: the pair a read accepts is bitwise (z, act(W z + b)).
        np.dot(w, z, out=row)
        row += b[:, None]
        fz, row = act.apply(row), t
        prev, res = res, _residual(c, alpha, z, fz, row)
        if res <= SOLVER_TOL or not res < SWEEP_RATE**run * prev:
            return z, fz, res
        run = math.ceil(RUN_MARGIN * run * math.log(SOLVER_TOL / res) / math.log(res / prev))
        if aw is None:
            aw = np.multiply(w, alpha)
            base = _affine(w, b, c)
    # Out of sweeps while still contracting: z steps past the last F.
    np.multiply(fz, alpha, out=z)
    z += c
    return z, act.apply(_affine(w, b, z)), res


def _newton(act, w, b, c, alpha, z, fz, steps):
    """Up to ``steps`` damped Newton steps from ``z`` and ``fz = F(z)``; returns ``(z, F(z), residual)``.

    The iterate is kept in ``z``. A full step that meets the tolerance is
    taken at once. Otherwise the step backtracks on ``||r||^2``, whose
    slope along the Newton step is ``-2 ||r||^2`` (Armijo); ``||r||^2`` is
    summed only then.
    """
    r = z - c - alpha * fz
    res = float(np.maximum.reduce(np.abs(r), None))
    for _ in range(steps):
        if res <= SOLVER_TOL:
            break
        try:
            # F(z) is not read again before the line search replaces it, so
            # its slopes are taken over it. The matrices go once d is made.
            d = numkit.solve_many(_shifted_identity(w, act.deriv_from_value(fz, out=fz), alpha), r.T).T
        except SingularMatrixError:
            break
        phi = None
        step = 1.0
        for _ in range(MAX_HALVINGS):
            z_try = z - d
            f_try = act.apply(_affine(w, b, z_try))
            r_try = z_try - c - alpha * f_try
            if phi is None:
                res_try = float(np.maximum.reduce(np.abs(r_try), None))
                if res_try <= SOLVER_TOL:
                    break
                # r is spent once its sum is made; its row takes the trials' squares.
                phi = float(np.add.reduce(np.multiply(r, r, out=r), None))
            sq_try = float(np.add.reduce(np.multiply(r_try, r_try, out=r), None))
            if sq_try <= (1.0 - 2.0 * ARMIJO_C * step) * phi:
                if step < 1.0:
                    res_try = float(np.maximum.reduce(np.abs(r_try), None))
                break
            # Halving d in place is exact: it is d times 0.5 ** k.
            step *= 0.5
            d *= _HALF
        else:
            break
        z[...] = z_try
        fz, r, res = f_try, r_try, res_try
        # Freed before the next step's matrices are built.
        del d, z_try
    return z, fz, res


def _weights_in_turn(blocks: BlockStack):
    """Every block's ``W``, each made when it is reached.

    In skew-symmetric mode each is written into the same ``(n, n)`` row,
    so it is valid until the next one is made; in raw mode each is a view
    of ``a``.
    """
    if blocks.mode is not WeightMode.SKEW_SYMMETRIC:
        return blocks.a
    w = np.empty(blocks.a.shape[1:])
    return (_skew(a, w) for a in blocks.a)


def solve_stack(cfg: ImplicitBlockConfig, blocks: BlockStack, x: np.ndarray, keep_tape: bool):
    """Run the ``(n, B)`` batch ``x`` through every block of a stack; returns ``(y, tape)``.

    A single block is a stack of one. Each block writes its output and
    F(x), and with ``keep_tape`` its F(y), straight into rows made here, so
    an explicit (``theta = 0``) layer is five NumPy calls that allocate
    nothing. With ``keep_tape`` the rows are the stacked ``TapeEntry``
    returned, whose ``w`` is every block's effective weight, built at once,
    and whose slopes are then taken in place once for all layers. Without
    it, ``tape`` is ``None``, the states take turns in two rows, one row
    holds F(x), and at ``theta > 0`` each block's ``W`` is made only when
    the block runs, so the forward holds one block's weights. ``y`` owns
    its data either way, so holding it keeps no tape or row alive. A
    failed solve raises ``SolverDivergedError`` carrying the index of its
    layer.
    """
    act = cfg.activation
    theta, h = cfg.theta, cfg.coef_h
    depth = len(blocks)
    biases = blocks.b[:, :, None]
    # A tape keeps every W; at theta = 0 no solve follows, so one call
    # builds them all there too.
    ws = blocks.effective_weight() if keep_tape or theta == 0.0 else _weights_in_turn(blocks)
    if keep_tape:
        # Row i + 1 of states is block i's output.
        states = np.empty((depth + 1,) + x.shape)
        states[0] = x
        fxs = np.empty((depth,) + x.shape)
        fys = np.empty_like(fxs) if theta > 0.0 else None
        # Every F(x) row starts as its bias, so that a layer adds W x to a
        # row of its own shape: a broadcast add costs twice as much.
        fxs[...] = biases
        biases = fxs
    else:
        # Two allocations, not one: the last state must not pin the other
        # row. The input is copied into the second, so that the caller's
        # array is not held once the first block has read it.
        rows = (np.empty(x.shape), np.empty(x.shape))
        rows[1][...] = x
        states = [rows[(i + 1) % 2] for i in range(depth + 1)]
        fxs = [np.empty(x.shape)] * depth
    for i, (w, b, x, y, fx) in enumerate(zip(ws, biases, states[:-1], states[1:], fxs)):
        # W x is made in the output row, which the block writes only later.
        np.dot(w, x, out=y)
        np.add(y, b, out=fx)
        act.apply(fx)
        # The explicit residual step x + h F(x): the output at theta = 0,
        # and the start of the solve, in the output row, otherwise.
        np.multiply(fx, h, out=y)
        y += x
        if theta == 0.0:
            continue
        try:
            y[...], fy = _solve_fixed_point(
                act, w, blocks.b[i], x + cfg.coef_x * fx, cfg.coef_y, y, "block solver", x, h
            )
        except SolverDivergedError as exc:
            exc.layer = i
            raise
        if keep_tape:
            fys[i] = fy
        # Freed before the next block's solve.
        del fy
    if not keep_tape:
        return states[-1], None
    for values in (fxs, fys):
        if values is not None:
            act.deriv_from_value(values, out=values)
    return states[-1].copy(), TapeEntry(states[:-1], states[1:], fxs, fys, ws)


def forward(cfg: ImplicitBlockConfig, params: BlockParams, x) -> tuple[np.ndarray, TapeEntry]:
    """Solve the block equation for ``y`` and cache what backward needs.

    The returned ``y`` satisfies
    ``max |y - x - h(1-theta)F(x) - h theta F(y)| <= SOLVER_TOL``.
    """
    xc = _columns(params, x)
    try:
        y, tape = solve_stack(cfg, BlockStack(params.a[None], params.b[None], params.mode), xc, True)
    except SolverDivergedError as exc:
        exc.layer = None  # a lone block is no network's layer
        raise
    return _like(y, x), tape.block(0)


def grad_buffers(cfg: ImplicitBlockConfig, depth: int, width: int):
    """Uninitialised ``(routes, depth, n, n)`` and ``(routes, depth, n)`` gradient rows.

    ``pull_back_stack`` makes them once its recursion is done and fills
    block ``i``'s unscaled rows at ``[:, i]``. Route 0 is the x evaluation
    of F. Route 1, the y evaluation, exists only when it carries weight:
    ``theta > 0`` and not ``cfg.paper_param_grad``.
    """
    routes = 2 if cfg.theta > 0.0 and not cfg.paper_param_grad else 1
    return np.empty((routes, depth, width, width)), np.empty((routes, depth, width))


def pull_back_stack(cfg: ImplicitBlockConfig, tape: TapeEntry, g: np.ndarray):
    """Pull ``g`` back through every block of a stacked tape, last block first.

    Returns ``(grad_x, gw, gb)``: the gradient at the first block's input
    and every block's unscaled parameter-gradient rows, laid out by
    ``grad_buffers``, for ``param_grads``. With ``v`` solving the
    transposed system ``(I - h theta diag(sy) W)^T v = g`` (``v = g`` at
    ``theta = 0``), ``px = sx * v`` and ``py = sy * v`` overwrite the spent
    slope rows; an explicit block is four NumPy calls,
    ``grad_x = g + h W^T px``, into one of two rows that take turns. The
    rows are then ``px @ x^T`` and ``py @ y^T`` with the row sums of ``px``
    and ``py``, one batched product per route.

    The tape is consumed: its slopes are overwritten, and ``tape.w`` is set
    to ``None`` once the recursion is done, so that the weight stack is
    freed before the rows are made unless the caller holds it too. A
    singular solve raises ``SingularMatrixError`` carrying its layer's
    index in the stack.
    """
    if cfg.theta == 0.0:
        h = cfg.coef_h
        rows = (np.empty(g.shape), np.empty(g.shape))
        for i, (wt, px) in enumerate(zip(tape.w.swapaxes(-1, -2)[::-1], tape.sx[::-1])):
            o = rows[i % 2]
            np.multiply(px, g, out=px)
            np.dot(wt, px, out=o)
            o *= h
            o += g
            g = o
    else:
        for i in range(len(tape.w) - 1, -1, -1):
            w, sx, sy = tape.w[i], tape.sx[i], tape.sy[i]
            # (I - h theta diag(sy) W)^T = I - h theta W^T diag(sy), per column.
            mats = _shifted_identity(w, sy, cfg.coef_y).transpose(0, 2, 1)
            try:
                v = numkit.solve_many(mats, g.T).T
            except SingularMatrixError as exc:
                exc.layer = i
                raise
            np.multiply(sx, v, out=sx)
            np.multiply(sy, v, out=sy)
            g = w.T @ sx
            g *= cfg.coef_x
            g += v
            # Left bound, this block's Newton matrices would stay alive
            # through the next block's solve and raise the peak memory.
            del mats, v
    # The loops' views of the weight stack would keep it alive as long as
    # they are bound.
    wt = w = tape.w = None
    depth, width = tape.sx.shape[:2]
    gw, gb = grad_buffers(cfg, depth, width)
    np.matmul(tape.sx, tape.x.swapaxes(-1, -2), out=gw[0])
    np.add.reduce(tape.sx, -1, out=gb[0])
    if len(gw) == 2:
        np.matmul(tape.sy, tape.y.swapaxes(-1, -2), out=gw[1])
        np.add.reduce(tape.sy, -1, out=gb[1])
    return g, gw, gb


def pull_back_rebuilt(cfg: ImplicitBlockConfig, blocks: BlockStack, y, g):
    """Pull ``g`` back through every block from the last block's output ``y`` alone.

    The tape-free backward: going down, each block's input is rebuilt with
    ``reconstruct_input`` and its tape with ``make_tape``, and
    ``pull_back_stack`` runs on that tape as a stack of one. That block's
    routes are folded at once into its row of one ``(L, n, n)`` and
    ``(L, n)`` row set, as ``param_grads`` folds a whole stack, so one
    block's tape and routes are alive at a time, next to the finished rows.
    The stack of effective weights is not kept: holding it through backward
    would raise the step's peak memory. Each block's W is made once, into
    one reused row, and handed to both
    ``reconstruct_input`` and ``make_tape`` as a raw-mode block.

    Returns ``(grad_x, grad_a, grad_b)``: the gradient at the first block's
    input and the finished parameter gradients, stacked by block and owning
    their data, bitwise equal to ``param_grads`` on the whole stack's rows.
    A failed reconstruction or singular solve carries the index of its
    layer.
    """
    depth, width = blocks.b.shape
    grad_w, grad_b = np.empty((depth, width, width)), np.empty((depth, width))
    # One W row, written in the loop: a generator such as _weights_in_turn
    # keeps about 0.8 KiB more alive through a spirals-reversible step.
    w = np.empty((width, width)) if blocks.mode is WeightMode.SKEW_SYMMETRIC else None
    for i in range(depth - 1, -1, -1):
        blk = BlockParams(blocks.a[i] if w is None else _skew(blocks.a[i], w), blocks.b[i])
        try:
            x = reconstruct_input(cfg, blk, y)
            tape = make_tape(cfg, blk, x, y)
            g, gw, gb = pull_back_stack(
                cfg, TapeEntry(x[None], y[None], tape.sx[None], tape.sy[None], tape.w[None]), g
            )
        except (SolverDivergedError, SingularMatrixError) as exc:
            exc.layer = i
            raise
        _fold_routes(cfg, gw, gb, grad_w[i : i + 1], grad_b[i : i + 1])
        # Freed before the next block's tape is built.
        del tape, gw, gb
        y = x
    # In skew-symmetric mode grad_a = grad_W - grad_W^T, the map that makes W from a.
    return g, _effective_weight(grad_w, blocks.mode), grad_b


def _fold_routes(cfg: ImplicitBlockConfig, gw, gb, out_w, out_b) -> None:
    """Write route 0 weighted by h(1-theta) plus route 1 weighted by h theta into ``out_w``, ``out_b``.

    Route 1 is scaled in its own rows. The outputs may be route 0's rows.
    """
    np.multiply(gw[0], cfg.coef_x, out=out_w)
    np.multiply(gb[0], cfg.coef_x, out=out_b)
    if len(gw) == 2:
        gw[1] *= cfg.coef_y
        gb[1] *= cfg.coef_y
        out_w += gw[1]
        out_b += gb[1]


def param_grads(cfg: ImplicitBlockConfig, mode: WeightMode, gw, gb):
    """Finish ``pull_back_stack``'s rows into ``(grad_a, grad_b)``, stacked by block.

    Route 0 is weighted by h(1-theta) and route 1 by h theta, then they are
    summed, in place in the rows; in skew-symmetric mode ``grad_a`` is
    ``grad_W - grad_W^T``. Both results are new arrays that own their data,
    so the caller can free ``gw`` and ``gb`` while it holds them.
    ``pull_back_rebuilt`` runs the same fold one block at a time.
    """
    _fold_routes(cfg, gw, gb, gw[0], gb[0])
    grad_a = _skew(gw[0]) if mode is WeightMode.SKEW_SYMMETRIC else gw[0].copy()
    return grad_a, gb[0].copy()


def backward(
    cfg: ImplicitBlockConfig,
    params: BlockParams,
    tape: TapeEntry,
    grad_y,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pull a loss gradient back through the block.

    Returns ``(grad_x, grad_a, grad_b)``. The only linear algebra beyond
    matrix products is one transposed solve against ``I - h theta dF/dy``;
    with ``theta = 0`` even that collapses to a pass-through. Weight and
    bias gradients take both routes through F (the x evaluation weighted by
    h(1-theta) and the y evaluation weighted by h theta) unless
    ``cfg.paper_param_grad`` drops the y route; at ``theta = 0`` the y route
    has weight zero, so it is skipped and the two formulas coincide.
    """
    g = _columns(params, grad_y)
    if g.shape != tape.y.shape:
        raise DimensionMismatchError(
            f"grad_y shape {np.shape(grad_y)} does not match y {tape.y.shape}"
        )
    # A stack of one with its own slope rows: the caller's tape stays as it was.
    sy = None if tape.sy is None else tape.sy[None].copy()
    stack = TapeEntry(tape.x[None], tape.y[None], tape.sx[None].copy(), sy, tape.w[None])
    try:
        grad_x, gw, gb = pull_back_stack(cfg, stack, g)
    except SingularMatrixError as exc:
        exc.layer = None  # a lone block is no network's layer
        raise
    grad_a, grad_b = param_grads(cfg, params.mode, gw, gb)
    return _like(grad_x, grad_y), grad_a[0], grad_b[0]


def make_tape(cfg: ImplicitBlockConfig, params: BlockParams, x, y) -> TapeEntry:
    """Rebuild a tape from known endpoint states (the tape-free path)."""
    x = _columns(params, x)
    y = _columns(params, y)
    w = params.effective_weight()
    act = cfg.activation
    sx = act.deriv_from_value(act.apply(_affine(w, params.b, x)))
    sy = act.deriv_from_value(act.apply(_affine(w, params.b, y)))
    return TapeEntry(x, y, sx, sy, w)


def reconstruct_input(cfg: ImplicitBlockConfig, params: BlockParams, y) -> np.ndarray:
    """Invert the block: recover ``x`` from ``y`` without any stored tape.

    Solves ``x = y - h theta F(y) - h(1-theta)F(x)`` with the block's
    solver, started from ``x0 = y - h F(y)``. At ``theta = 1`` that start
    point is the explicit inverse, bitwise equal to the solver's constant
    term, so the solver's first residual test returns it. The fixed-point sweeps converge
    when ``h (1-theta) Lip(F) < 1``, which the time-symmetric
    ``theta = 0.5`` blocks used for reversible training satisfy by
    construction whenever their own forward iteration does.
    """
    yc = _columns(params, y)
    w = params.effective_weight()
    b = params.b
    act = cfg.activation

    # F(y), then the start x0 = y - h F(y) made over it.
    x0 = act.apply(_affine(w, b, yc))
    const = yc - cfg.coef_y * x0
    np.subtract(yc, np.multiply(x0, cfg.coef_h, out=x0), out=x0)
    x, _ = _solve_fixed_point(
        act, w, b, const, cfg.neg_x, x0, "input reconstruction", yc, cfg.neg_h
    )
    return _like(x, y)

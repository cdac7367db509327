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
``_solve_fixed_point``, serves both:

1. fixed-point sweeps ``z <- c + alpha F(z)``, which contract at rate
   ``|alpha| L`` for L-Lipschitz F, until one shrinks the residual by less
   than ``SWEEP_RATE``;
2. if they miss the tolerance, damped Newton on
   ``r(z) = z - c - alpha F(z)``: each step solves
   ``(I - alpha diag(F'(z)) W) d = r`` for every column in one stacked
   solve and backtracks on ``||r||^2`` (Armijo constant 1e-4, step
   halving, at most 40 halvings per step). A singular Newton matrix or a
   failed line search ends the solve with ``SolverDivergedError``.

The caller picks the start point: ``forward`` starts from one Newton step
from ``y = x``, the linearized closed-form guess
``y0 = x + h (I - theta h J_F(x))^-1 F(x)`` (``y0 = x`` if that matrix is
singular), ``reconstruct_input`` from ``x0 = y - h F(y)``.
At ``theta = 0`` there is nothing to solve: ``forward`` takes the explicit
step ``y = x + h F(x)`` with a single evaluation of F.

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
``solve_stack`` takes the effective weights already built, so a network
builds every block's at once from its ``BlockStack``; it writes each
block's output, F(x) and F(y) into rows it makes up front, and takes the
tape's slopes once for all layers. ``pull_back_stack`` is the one backward
loop: it runs the recursion, overwriting each block's slopes with its
pulled-back ``px`` and ``py``, then turns them into unscaled
parameter-gradient rows in one batched product per route, written into
``grad_buffers``' rows; ``param_grads`` scales, sums and skew-projects all
the rows at once. The reversible path, ``pull_back_rebuilt``, rebuilds one
block at a time with ``reconstruct_input`` and ``make_tape`` and runs
``pull_back_stack`` on that block's tape as a stack of one, into the
block's own rows.
"""

from __future__ import annotations

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
# A sweep that shrinks the residual by less than this factor hands over to
# Newton. ReLU columns whose activation pattern changes during the solve
# contract at about 0.3 per sweep or slower, and Newton finishes them in a
# step or two; tanh blocks contract at about 0.1-0.2, where a sweep costs a
# fraction of a Newton step's stacked linear solve and sweeps stay cheaper.
SWEEP_RATE = 0.3


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
            np.maximum(u, 0.0, out=u)
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
            out[...] = 1.0
        elif self is ActivationKind.RELU:
            np.greater(value, 0.0, out=out)
        elif self is ActivationKind.TANH:
            np.multiply(value, value, out=out)
            np.subtract(1.0, out, out=out)
        else:
            np.multiply(value, 1.0 - value, out=out)
        return out


def _sigmoid(u: np.ndarray) -> None:
    """The logistic function, in place, without overflow on either side."""
    pos = u >= 0
    neg = ~pos
    eu = np.exp(u[neg])
    u[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    u[neg] = eu / (1.0 + eu)


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


def _skew(a: np.ndarray) -> np.ndarray:
    """``a - a^T`` over the last two axes, for one matrix or a stack of them, in a new array."""
    # Subtracting the transposed view directly makes NumPy buffer a copy of
    # it; copying it into the result first allocates nothing more.
    out = np.empty_like(a)
    out[...] = a.swapaxes(-1, -2)
    return np.subtract(a, out, out=out)


def _effective_weight(a: np.ndarray, mode: WeightMode) -> np.ndarray:
    """``W`` of one pre-skew matrix or a stack: ``a - a^T`` in skew-symmetric mode, else ``a``."""
    return _skew(a) if mode is WeightMode.SKEW_SYMMETRIC else a


@dataclass(slots=True)
class ImplicitBlockConfig:
    """Block hyperparameters.

    ``paper_param_grad`` switches the weight/bias gradient to the reduced
    published formula that drops the F(y) route; it exists only so the
    gradient checker can demonstrate the discrepancy and must stay off for
    training. The solver's tolerance and iteration cap are the module
    constants ``SOLVER_TOL`` and ``SOLVER_MAX_ITER``; ``solver_tol`` reads
    the first and cannot be set.
    """

    theta: float
    h: float
    activation: ActivationKind
    paper_param_grad: bool = field(default=False)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")

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
    return w @ v + b[:, None]


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


def _shifted_identity(w: np.ndarray, s: np.ndarray, coeff: float) -> np.ndarray:
    """Stack of ``I - coeff * diag(s[:, j]) @ W`` over the columns ``j`` of ``s``."""
    # Built in place in one buffer: the broadcasting form allocates two more
    # stacks of the same size.
    m = np.empty((s.shape[1],) + w.shape)
    m[...] = w
    m *= s.T[:, :, None]
    m *= coeff
    return np.subtract(_eye(w.shape[0]), m, out=m)


def _newton_step(w, s, alpha, r):
    """Newton step for ``r(z) = z - c - alpha F(z)``, one system per column.

    ``s = F'(z)`` columnwise; the step ``d`` solves
    ``(I - alpha diag(s) W) d = r``, so ``z - d`` is the Newton iterate.
    Raises ``SingularMatrixError`` where that matrix is singular.
    """
    return numkit.solve_many(_shifted_identity(w, s, alpha), r.T).T


def _solve_fixed_point(act, w, b, c, alpha, z, what):
    """Solve ``z = c + alpha F(z)`` for the ``(n, B)`` state ``z``.

    The fixed-point sweeps start at ``z``; damped Newton goes on from the
    last sweep iterate. Returns ``(z, F(z))`` with
    ``max |z - c - alpha F(z)| <= SOLVER_TOL``, or raises
    ``SolverDivergedError`` carrying the final residual; its message also
    gives the final iterate's max ``|z|``.
    """
    # Fixed-point sweeps. The update z_next = c + alpha F(z) makes
    # |z_next - z| exactly the residual norm of the current iterate. They
    # hand over to Newton once a sweep shrinks the residual by less than
    # SWEEP_RATE; that test is also true for an infinite or NaN residual.
    prev = np.inf
    for _ in range(SOLVER_MAX_ITER + 1):
        fz = act.apply(_affine(w, b, z))
        z_next = c + alpha * fz
        res = float(np.abs(z_next - z).max())
        if res <= SOLVER_TOL:
            return z, fz
        if not res < SWEEP_RATE * prev:
            break
        prev = res
        z = z_next
    else:
        # Every sweep contracted fast but ran out of iterations: z moved
        # past the last F evaluation.
        fz = act.apply(_affine(w, b, z))
    # Freed before Newton makes its arrays.
    del z_next

    # Damped Newton on r(z) = z - c - alpha F(z), backtracking (Armijo) on
    # ||r||^2, whose slope along the Newton step is -2 ||r||^2.
    r = z - c - alpha * fz
    res = float(np.abs(r).max())
    for _ in range(SOLVER_MAX_ITER):
        if res <= SOLVER_TOL:
            return z, fz
        try:
            d = _newton_step(w, act.deriv_from_value(fz), alpha, r)
        except SingularMatrixError:
            break
        phi = float((r * r).sum())
        step = 1.0
        for _ in range(MAX_HALVINGS):
            z_try = z - step * d
            f_try = act.apply(_affine(w, b, z_try))
            r_try = z_try - c - alpha * f_try
            if float((r_try * r_try).sum()) <= (1.0 - 2.0 * ARMIJO_C * step) * phi:
                break
            step *= 0.5
        else:
            break
        z, fz, r = z_try, f_try, r_try
        res = float(np.abs(r).max())
    if res <= SOLVER_TOL:
        return z, fz
    # The state's scale tells a blown-up state, whose residual cannot reach
    # an absolute tolerance in floating point, from a solve that stalled.
    raise SolverDivergedError(
        f"{what} stalled at residual {res:.3e} (tol {SOLVER_TOL:.1e}) "
        f"with max |z| {float(np.abs(z).max()):.3e}",
        residual=res,
    )


def solve_stack(cfg: ImplicitBlockConfig, ws: np.ndarray, bs: np.ndarray, x: np.ndarray, keep_tape: bool):
    """Run the ``(n, B)`` batch ``x`` through every block of a stack; returns ``(y, tape)``.

    ``ws`` is the ``(L, n, n)`` stack of effective weights and ``bs`` the
    ``(L, n)`` biases; a single block is a stack of one. Each block writes
    its output, F(x) and F(y) straight into rows made here, so an explicit
    (``theta = 0``) layer is five NumPy calls that allocate nothing. With
    ``keep_tape`` the rows are the stacked ``TapeEntry`` returned, whose
    slopes are then taken in place once for all layers. Without it,
    ``tape`` is ``None``, the states take turns in two rows, and one row
    each holds F(x) and F(y). ``y`` owns its data either way, so holding it
    keeps no tape or row alive. A failed solve raises
    ``SolverDivergedError`` carrying the index of its layer.
    """
    act = cfg.activation
    theta, h = cfg.theta, cfg.h
    depth = len(ws)
    biases = bs[:, :, None]
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
        # Two allocations, not one: the last state must not pin the other row.
        rows = (np.empty(x.shape), np.empty(x.shape))
        states = [x] + [rows[i % 2] for i in range(depth)]
        fxs = [np.empty(x.shape)] * depth
        fys = [np.empty(x.shape)] * depth if theta > 0.0 else None
    wx = np.empty(x.shape)
    # np.dot, not matmul: it costs less per call on these small operands
    # and rounds the same.
    for i, (w, b, x, y, fx) in enumerate(zip(ws, biases, states[:-1], states[1:], fxs)):
        np.dot(w, x, out=wx)
        np.add(wx, b, out=fx)
        act.apply(fx)
        if fys is None:
            # The explicit residual step x + h F(x).
            np.multiply(fx, h, out=y)
            y += x
            continue
        try:
            try:
                # One Newton step from y = x, where the residual is -h F(x).
                y0 = x - _newton_step(w, act.deriv_from_value(fx), h * theta, -h * fx)
            except SingularMatrixError:
                y0 = x.copy()
            base = x + (h * (1.0 - theta)) * fx
            y[...], fys[i][...] = _solve_fixed_point(act, w, bs[i], base, h * theta, y0, "block solver")
        except SolverDivergedError as exc:
            exc.layer = i
            raise
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
    w = params.effective_weight()
    try:
        y, tape = solve_stack(cfg, w[None], params.b[None], xc, True)
    except SolverDivergedError as exc:
        exc.layer = None  # a lone block is no network's layer
        raise
    return _like(y, x), tape.block(0)


def grad_buffers(cfg: ImplicitBlockConfig, depth: int, width: int):
    """Uninitialised ``(routes, depth, n, n)`` and ``(routes, depth, n)`` gradient rows.

    ``pull_back_stack`` writes block ``i``'s unscaled rows at ``[:, i]``,
    and ``param_grads`` finishes them. Route 0 is the x evaluation of F.
    Route 1, the y evaluation, exists only when it carries weight:
    ``theta > 0`` and not ``cfg.paper_param_grad``.
    """
    routes = 2 if cfg.theta > 0.0 and not cfg.paper_param_grad else 1
    return np.empty((routes, depth, width, width)), np.empty((routes, depth, width))


def pull_back_stack(cfg: ImplicitBlockConfig, tape: TapeEntry, g: np.ndarray, gw, gb) -> np.ndarray:
    """Pull ``g`` back through every block of a stacked tape, last block first.

    Returns the gradient at the first block's input, and writes every
    block's unscaled parameter-gradient rows into ``grad_buffers``' ``gw``
    and ``gb`` for ``param_grads``. With ``v`` solving the transposed
    system ``(I - h theta diag(sy) W)^T v = g`` (``v = g`` at
    ``theta = 0``), ``px = sx * v`` and ``py = sy * v`` overwrite the
    spent slope rows; an explicit block is four NumPy calls,
    ``grad_x = g + h W^T px``, into one of two rows that take turns. The
    rows are then ``px @ x^T`` and ``py @ y^T`` with the row sums of
    ``px`` and ``py``, one batched product per route. A singular solve
    raises ``SingularMatrixError`` carrying its layer's index in the stack.
    """
    theta, h = cfg.theta, cfg.h
    if theta == 0.0:
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
            mats = _shifted_identity(w, sy, h * theta).transpose(0, 2, 1)
            try:
                v = numkit.solve_many(mats, g.T).T
            except SingularMatrixError as exc:
                exc.layer = i
                raise
            np.multiply(sx, v, out=sx)
            np.multiply(sy, v, out=sy)
            g = v + (h * (1.0 - theta)) * (w.T @ sx)
            # Left bound, this block's Newton matrices would stay alive
            # through the next block's solve and raise the peak memory.
            del mats, v
    np.matmul(tape.sx, tape.x.swapaxes(-1, -2), out=gw[0])
    tape.sx.sum(axis=-1, out=gb[0])
    if len(gw) == 2:
        np.matmul(tape.sy, tape.y.swapaxes(-1, -2), out=gw[1])
        tape.sy.sum(axis=-1, out=gb[1])
    return g


def pull_back_rebuilt(cfg: ImplicitBlockConfig, blocks: BlockStack, y, g, gw, gb) -> np.ndarray:
    """Pull ``g`` back through every block from the last block's output ``y`` alone.

    The tape-free backward: going down, each block's input is rebuilt with
    ``reconstruct_input`` and its tape with ``make_tape``, and
    ``pull_back_stack`` runs on that tape as a stack of one, into row ``i``
    of ``gw`` and ``gb``. One block's tape is alive at a time, and the stack
    of effective weights is not kept: holding it through backward would
    raise the step's peak memory. Returns the gradient at the first block's
    input. A failed reconstruction or singular solve carries the index of
    its layer.
    """
    for i in range(len(blocks) - 1, -1, -1):
        blk = blocks[i]
        try:
            x = reconstruct_input(cfg, blk, y)
            tape = make_tape(cfg, blk, x, y)
            g = pull_back_stack(
                cfg, TapeEntry(x[None], y[None], tape.sx[None], tape.sy[None], tape.w[None]),
                g, gw[:, i : i + 1], gb[:, i : i + 1],
            )
        except (SolverDivergedError, SingularMatrixError) as exc:
            exc.layer = i
            raise
        # Freed before the next block's tape is built.
        del tape
        y = x
    return g


def param_grads(cfg: ImplicitBlockConfig, mode: WeightMode, gw, gb):
    """Finish ``pull_back_stack``'s rows into ``(grad_a, grad_b)``, stacked by block.

    Route 0 is weighted by h(1-theta) and route 1 by h theta, then they are
    summed, in place in the rows; in skew-symmetric mode ``grad_a`` is
    ``grad_W - grad_W^T``. Both results are new arrays that own their data,
    so the caller can free ``gw`` and ``gb`` while it holds them.
    """
    h, theta = cfg.h, cfg.theta
    gw[0] *= h * (1.0 - theta)
    gb[0] *= h * (1.0 - theta)
    if len(gw) == 2:
        gw[1] *= h * theta
        gb[1] *= h * theta
        gw[0] += gw[1]
        gb[0] += gb[1]
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
    gw, gb = grad_buffers(cfg, 1, g.shape[0])
    try:
        grad_x = pull_back_stack(cfg, stack, g, gw, gb)
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
    term, so the first sweep returns it. The fixed-point sweeps converge
    when ``h (1-theta) Lip(F) < 1``, which the time-symmetric
    ``theta = 0.5`` blocks used for reversible training satisfy by
    construction whenever their own forward iteration does.
    """
    yc = _columns(params, y)
    w = params.effective_weight()
    b = params.b
    act = cfg.activation
    theta, h = cfg.theta, cfg.h

    fy = act.apply(_affine(w, b, yc))
    const = yc - (h * theta) * fy
    x0 = yc - h * fy
    del fy  # freed before the solve allocates
    x, _ = _solve_fixed_point(act, w, b, const, -(h * (1.0 - theta)), x0, "input reconstruction")
    return _like(x, y)

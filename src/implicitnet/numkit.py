"""Dense linear algebra, seeded randomness, and weight initializers.

Everything runs in float64. Randomness flows exclusively through numpy's
PCG64 generator (``numpy.random.default_rng``): identical seeds yield
identical streams on every platform, which keeps every experiment in this
package reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError


def make_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed``."""
    return np.random.default_rng(seed)


def solve_many(mats, rhs) -> np.ndarray:
    """Solve a stack of dense systems ``mats[i] @ x[i] = rhs[i]``.

    ``mats`` is ``(K, n, n)`` and ``rhs`` is ``(K, n)``; the result is
    ``(K, n)``. This is the package's only linear solve: LAPACK's
    partial-pivot LU through ``numpy.linalg.solve``, all K systems in one
    call. A single system is a stack of one.

    Raises
    ------
    SingularMatrixError
        If any matrix in the stack is exactly singular (LAPACK meets a zero
        pivot) or the solution holds a NaN or an infinity. Nearly singular
        matrices pass; their solutions carry the rounding error their
        conditioning implies.
    DimensionMismatchError
        If ``mats`` is not a stack of square matrices matching ``rhs``.
    """
    mats = np.asarray(mats, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or rhs.shape != mats.shape[:2]:
        raise DimensionMismatchError(
            f"cannot solve stack {mats.shape} against right-hand sides {rhs.shape}"
        )
    try:
        sol = np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None
    if not np.logical_and.reduce(np.isfinite(sol), None):
        raise SingularMatrixError("linear solve produced non-finite values")
    return sol


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Matrix of shape ``(fan_out, fan_in)`` with entries uniform on [-s, s].

    The half-width is ``s = sqrt(6 / (fan_in + fan_out))``.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_out, fan_in))

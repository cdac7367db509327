"""Implicit residual networks with exact custom backpropagation.

Layer outputs are fixed points of y = x + h[(1-theta) F(x) + theta F(y)];
the package provides the forward solvers, the exact backward pass with its
single linear solve per layer, tape-free reversible training, a linear
stability laboratory for four one-step ODE schemes, dataset generators,
and a CLI for reproducing the bundled desk-scale experiments.
"""

from .errors import (
    DimensionMismatchError,
    ImplicitNetError,
    InvalidCountError,
    NonFiniteLossError,
    ParseError,
    SingularMatrixError,
    SolverDivergedError,
)
from .implicitblock import (
    ActivationKind,
    BlockStack,
    ImplicitBlockConfig,
    TapeEntry,
    WeightMode,
    backward,
    block_fn,
    forward,
    reconstruct_input,
)
from .network import (
    Affine,
    LossKind,
    Model,
    ModelSpec,
    TrainConfig,
    TrainFailure,
    TrainRecord,
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
from .numkit import glorot_uniform, make_rng, solve_many
from .stabilitylab import (
    SchemeKind,
    SpectralReport,
    TestSystem,
    Trajectory,
    energy,
    integrate,
    iteration_matrix,
    spectral_report,
)

__version__ = "0.1.0"

"""Finite-rank Markovian lifts of matrix-valued Volterra processes.

Simulators (exact Gaussian OU lift, squared lift, PSD jump/Hawkes lift,
covariance-modulated log price) paired with their analytic Laplace and
characteristic transforms (closed forms and matrix Riccati solvers), plus
kernel tooling (fractional fits, resolvents) and a reproducible parallel
Monte Carlo engine.
"""

from .measures import AtomicMatrixMeasure, TimeGrid, eval_kernel
from .fractional import FractionalKernelSpec, fit_fractional_measure
from .kernelops import resolvent_second_kind
from .ou import StepOperator
from .wishart import (
    WishartTransformQuery,
    affine_transform_wishart,
    closed_form_laplace,
    simulate_wishart,
)
from .jumps import (
    HawkesPathSimulator,
    JumpLiftState,
    JumpMeasureSpec,
    hawkes_jump_spec,
    simulate_jump_path,
    volterra_projection,
)
from .riccati import (
    laplace_transform_jump,
    solve_joint_riccati_heston,
    solve_lift_riccati_jump,
    solve_volterra_riccati_jump,
)
from .heston import HestonModelSpec, char_function, fourier_price_call
from .mc import Estimate, estimate_mean, path_rng, run_path_blocks

__all__ = [
    "AtomicMatrixMeasure",
    "TimeGrid",
    "eval_kernel",
    "FractionalKernelSpec",
    "fit_fractional_measure",
    "resolvent_second_kind",
    "StepOperator",
    "WishartTransformQuery",
    "affine_transform_wishart",
    "closed_form_laplace",
    "simulate_wishart",
    "HawkesPathSimulator",
    "JumpLiftState",
    "JumpMeasureSpec",
    "hawkes_jump_spec",
    "simulate_jump_path",
    "volterra_projection",
    "laplace_transform_jump",
    "solve_joint_riccati_heston",
    "solve_lift_riccati_jump",
    "solve_volterra_riccati_jump",
    "HestonModelSpec",
    "char_function",
    "fourier_price_call",
    "Estimate",
    "estimate_mean",
    "path_rng",
    "run_path_blocks",
    "__version__",
]

__version__ = "0.1.0"

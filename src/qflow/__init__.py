"""Geodesically convex optimization of spectral objectives of moment maps on
products of positive-definite manifolds, with tensor-scaling applications."""

__version__ = "0.1.0"

from .apps import (
    ApplicationResult,
    MatrixPencil,
    certify,
    check_common_kernel,
    g_stable_rank,
    ncrank,
    ncrank_blowup_oracle,
    quantum_functional,
)
from .geometry import (
    BoundaryCertificate,
    ProductPDPoint,
    TangentBlock,
    asymptotic_at_base,
    geodesic,
    log_map,
)
from .solver import (
    FlowConfig,
    FlowTrace,
    KempfNessProblem,
    dual_value,
    energy_residual,
    extract_certificate,
    group_subgradient_method,
    integrate_flow,
    q_gradient,
)
from .spectral import SpectralObjective, builtin_objective, moreau_objective
from .tensors import kempf_ness, moment_map, recession, unit_tensor

__all__ = [
    "ApplicationResult",
    "BoundaryCertificate",
    "FlowConfig",
    "FlowTrace",
    "KempfNessProblem",
    "MatrixPencil",
    "ProductPDPoint",
    "SpectralObjective",
    "TangentBlock",
    "asymptotic_at_base",
    "builtin_objective",
    "certify",
    "check_common_kernel",
    "dual_value",
    "energy_residual",
    "extract_certificate",
    "g_stable_rank",
    "geodesic",
    "group_subgradient_method",
    "integrate_flow",
    "kempf_ness",
    "log_map",
    "moment_map",
    "moreau_objective",
    "ncrank",
    "ncrank_blowup_oracle",
    "q_gradient",
    "quantum_functional",
    "recession",
    "unit_tensor",
]

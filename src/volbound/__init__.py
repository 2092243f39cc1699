"""volbound: driftless diffusions with convex eigenfunctions, option pricing,
and universal bounds on implied-volatility variation across maturities."""

from __future__ import annotations

__version__ = "0.1.0"

from .special_functions import bessel_k, norm_cdf, norm_pdf

__all__ = [
    "__version__",
    "bessel_k",
    "norm_cdf",
    "norm_pdf",
    "ReferenceModel",
    "SimConfig",
    "builtin_model",
    "simulate",
    "bs_call_price",
    "mc_call_price",
    "quad_call_price",
    "implied_vol",
    "verify_phi",
    "MaturityGrid",
    "StrikeGrid",
    "WeightVector",
    "Scenario",
    "self_consistent_scenario",
    "step_vol_scenario",
    "meanrev_vol_scenario",
    "build_q",
    "check_bound",
    "pricing_residuals",
    "densification_study",
    "parse_config",
]

from .bound import (  # noqa: E402
    MaturityGrid,
    Scenario,
    StrikeGrid,
    WeightVector,
    build_q,
    check_bound,
    densification_study,
    meanrev_vol_scenario,
    pricing_residuals,
    self_consistent_scenario,
    step_vol_scenario,
)
from .config import parse_config  # noqa: E402
from .models import (  # noqa: E402
    ReferenceModel,
    SimConfig,
    builtin_model,
    simulate,
)
from .phi import verify_phi  # noqa: E402
from .pricing import (  # noqa: E402
    bs_call_price,
    implied_vol,
    mc_call_price,
    quad_call_price,
)

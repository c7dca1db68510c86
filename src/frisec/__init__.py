"""Secrecy-performance simulation and analytics for fluid reconfigurable
intelligent surface (fluid-RIS) assisted downlinks.

The library generates spatially correlated Rayleigh fading over a
base-station -> surface -> receiver cascade, applies ON/OFF element selection
and phasing policies, estimates secrecy outage probability and average
secrecy capacity by conditional Monte Carlo, and evaluates closed-form
moment-matched approximations of both metrics, each cross-checked against an
independent numerical oracle.
"""

__version__ = "0.1.0"

from .channel import ChannelStream, LinkBudget, path_loss
from .errors import ConfigError, ConvergenceError, DomainError, FrisecError
from .harness import (ExperimentConfig, GainSamples, MetricEstimate,
                      estimate_asc, estimate_sop, ks_statistic,
                      records_for_budget, reference_fits, simulate_gains,
                      sweep_size, sweep_snr, validate_bounds, validate_fits)
from .secrecy import (ExpFit, GammaFit, SecrecyTarget, asc_oracle,
                      asc_upper_bound, exp_cdf, fit_laws, gamma_cdf,
                      sop_lower_bound, sop_lower_oracle)
from .specfun import (bessel_j0, integrate_semi_infinite, reg_lower_inc_gamma,
                      scaled_exp1)
from .surface import CorrelationMatrix, SurfaceGeometry, build_correlation

__all__ = [name for name in dir() if not name.startswith("_")]

"""Secrecy-performance simulation and analytics for fluid reconfigurable
intelligent surface (fluid-RIS) assisted downlinks.

The library generates spatially correlated Rayleigh fading over a
base-station -> surface -> receiver cascade, applies ON/OFF element selection
and phasing policies, estimates secrecy outage probability and average
secrecy capacity by Monte Carlo, and evaluates closed-form moment-matched
approximations of both metrics, each cross-checked against an independent
numerical oracle.
"""

__version__ = "0.1.0"

from .channel import ChannelStream, LinkBudget, path_loss
from .errors import ConfigError, ConvergenceError, DomainError, FrisecError
from .harness import (ExperimentConfig, GainSamples, MetricEstimate,
                      TrialRecords, estimate_asc, estimate_sop, ks_statistic,
                      records_for_budget, reference_fits, simulate_gains,
                      sweep_size, sweep_snr, validate_bounds, validate_fits)
from .secrecy import (ExpFit, GammaFit, SecrecyTarget, asc_oracle,
                      asc_upper_bound, exp_cdf, fit_bob_gamma,
                      fit_eve_exponential, gamma_cdf, secrecy_capacity,
                      sop_lower_bound, sop_lower_oracle)
from .specfun import (QuadratureSpec, bessel_j0, integrate_semi_infinite,
                      meijer_g_2122, reg_lower_inc_gamma)
from .surface import (CorrelationMatrix, SurfaceGeometry, build_correlation,
                      trace_power)

__all__ = [name for name in dir() if not name.startswith("_")]

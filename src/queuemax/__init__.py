"""queuemax: extreme-value asymptotics and simulators for queue maxima.

Discrete-time side: the running maximum of a Bernoulli-arrival multi-server
queue length, via its tail decay rate, stationary distribution, and level
return probabilities. Continuous-time side: maximum wait times of a
Poisson-arrival exponential-service queue, with exact single-server Gumbel
asymptotics. Both come with replicated, seeded Monte Carlo simulators and a
statistics layer for confronting the two.
"""

__version__ = "0.1.0"

from .errors import (BracketError, ConvergenceError, DegenerateRootsError,
                     DegenerateSampleError, HeuristicRangeWarning, QueueMaxError,
                     RangeError, SingularError, StabilityError, UnsupportedError)
from .geo_analysis import (GeoAnalysis, MaxLengthLaw, NuRecord, analyze_geo, decay_rate_omega,
                           expected_max_length, hitting_probabilities, max_length_law,
                           mean_queue_length, stationary_distribution)
from .geo_sim import (GeoSimConfig, replicate_max_length, simulate_max_length,
                      time_average_queue_length)
from .mm_analysis import (MM1Asymptotics, MMParams, expected_max_wait_mm1,
                          max_wait_cdf_mm1, mean_wait, mm1_asymptotics,
                          validate_mm_params)
from .mm_sim import (MMSimConfig, WaitDetail, WaitSimResult, assign_service_starts,
                     replicate_wait_maxima, simulate_wait_detail)
from .params import GeoParams, increment_distribution, validate_geo_params
from .replication import (PRNG_ALGORITHM, SEED_DERIVATION, SimResult,
                          substream_generator, substream_seed)
from .stats import (ECDF, EULER_GAMMA, GumbelParams, SampleSummary,
                    gumbel_fit_two_moment, ks_distance, summarize)

__all__ = [
    "__version__",
    # errors
    "QueueMaxError", "RangeError", "StabilityError", "UnsupportedError",
    "ConvergenceError", "SingularError", "BracketError", "DegenerateRootsError",
    "DegenerateSampleError", "HeuristicRangeWarning",
    # discrete-queue parameters and increments
    "GeoParams", "validate_geo_params", "increment_distribution",
    # discrete-queue analytics
    "GeoAnalysis", "NuRecord", "MaxLengthLaw", "analyze_geo", "decay_rate_omega",
    "stationary_distribution", "hitting_probabilities", "max_length_law",
    "expected_max_length", "mean_queue_length",
    # discrete-queue simulator
    "GeoSimConfig", "simulate_max_length", "replicate_max_length",
    "time_average_queue_length",
    # continuous-queue analytics
    "MMParams", "MM1Asymptotics", "validate_mm_params", "mm1_asymptotics",
    "max_wait_cdf_mm1", "expected_max_wait_mm1", "mean_wait",
    # continuous-queue simulator
    "MMSimConfig", "WaitDetail", "WaitSimResult", "assign_service_starts",
    "simulate_wait_detail", "replicate_wait_maxima",
    # replication plumbing
    "SimResult", "substream_seed", "substream_generator",
    "PRNG_ALGORITHM", "SEED_DERIVATION",
    # statistics
    "ECDF", "EULER_GAMMA", "GumbelParams", "SampleSummary",
    "gumbel_fit_two_moment", "ks_distance", "summarize",
]

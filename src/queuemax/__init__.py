"""queuemax: extreme-value asymptotics and simulators for queue maxima.

Discrete-time side: the running maximum of a Bernoulli-arrival multi-server
queue length, via its tail decay rate, stationary distribution, and level
return probabilities. Continuous-time side: maximum wait times of a
Poisson-arrival exponential-service queue, with exact single-server Gumbel
asymptotics. Both come with replicated, seeded Monte Carlo simulators and a
statistics layer for confronting the two.

Every public name and submodule loads on first access (PEP 562), so
`import queuemax` loads no numpy.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {  # home module: the public names it defines, in the order of __all__
    "errors": ("QueueMaxError", "RangeError", "StabilityError", "UnsupportedError",
               "NumericError", "ConvergenceError", "SingularError", "BracketError",
               "DegenerateRootsError", "DegenerateSampleError", "HeuristicRangeWarning"),
    # discrete-queue parameters and increments
    "params": ("GeoParams", "validate_geo_params", "increment_distribution"),
    "geo_analysis": ("GeoAnalysis", "NuRecord", "MaxLengthLaw", "analyze_geo",
                     "decay_rate_omega", "hitting_probabilities", "max_length_law",
                     "expected_max_length", "mean_queue_length"),
    "geo_sim": ("GeoSimConfig", "simulate_max_length", "replicate_max_length",
                "time_average_queue_length"),
    "mm_analysis": ("MMParams", "MM1Asymptotics", "validate_mm_params", "mm1_asymptotics",
                    "max_wait_cdf_mm1", "expected_max_wait_mm1", "mean_wait"),
    "mm_sim": ("MMSimConfig", "WaitDetail", "WaitSimResult", "assign_service_starts",
               "simulate_wait_detail", "replicate_wait_maxima"),
    # replication plumbing
    "replication": ("SimResult", "substream_seed", "substream_generator"),
    "stats": ("ECDF", "EULER_GAMMA", "GumbelParams", "SampleSummary",
              "gumbel_fit_two_moment", "ks_distance", "summarize"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", "numerics", *_EXPORTS})

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule sets it as an attribute of the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

"""Per-layer metrics of a traced run.

Two sources. Unit costs (the `_us` and `_ms` metrics) come from probe calls
with fixed inputs (the c=3 queue p=1/3, r=1/6 and the M/M/1 queue
lambda=1/3, mu=1/2), made through the same wrappers as the workload, so they
mean the same on every workload. Throughputs, shares and counts come from the
spans of the workload's own traced commands; a metric whose layer the
workload never runs reads 0.
"""
from __future__ import annotations

from collections import defaultdict
from statistics import median

import numpy as np

import queuemax

from runner import CALIBRATION_REF_S, by_command, calibration_seconds

# metric: (probe, span label, unit per second)
UNIT_COSTS = {
    "geo_analysis.omega_us": ("omega", "geo_analysis.decay_rate_omega", 1e6),
    "geo_analysis.stationary_us": ("stationary", "geo_analysis._stationary_from_omega", 1e6),
    "geo_analysis.nu_us": ("nu", "geo_analysis.hitting_probabilities", 1e6),
    "geo_analysis.analyze_us": ("analyze", "geo_analysis.analyze_geo", 1e6),
    "geo_analysis.mean_queue_length_us": ("mean_queue_length", "geo_analysis.mean_queue_length", 1e6),
    "numerics.polynomial_roots_us": ("nu", "numerics.polynomial_roots", 1e6),
    "numerics.solve_us": ("nu", "numerics.solve_linear_system", 1e6),
    "numerics.fixed_point_root_us": ("omega", "numerics.fixed_point_root", 1e6),
    "params.increment_distribution_us": ("stationary", "params.increment_distribution", 1e6),
    "mm_analysis.cdf_point_us": ("cdf_point", "mm_analysis.max_wait_cdf_mm1", 1e6),
    "stats.ks_lattice_us": ("ks_lattice", "stats.ks_distance", 1e6),
    "stats.ks_continuous_ms": ("ks_continuous", "stats.ks_distance", 1e3),
    "stats.gumbel_fit_us": ("gumbel_fit", "stats.gumbel_fit_two_moment", 1e6),
    "stats.summarize_us": ("summarize", "stats.summarize", 1e6),
    "replication.substream_us": ("substream", "replication.substream_generator", 1e6),
}

PER_LAYER_UNITS = dict(
    {name: "ms" if name.endswith("_ms") else "us" for name in UNIT_COSTS},
    **{"replication.rng_doubles_per_s": "doubles/s",
       "geo_sim.wide.slot_reps_per_s": "slot-reps/s", "geo_sim.long.slot_reps_per_s": "slot-reps/s",
       "geo_sim.scalar.slots_per_s": "slots/s", "geo_sim.busy_share": "fraction",
       "geo_sim.rng_floor_ratio": "fraction", "mm_sim.c1.customers_per_s": "customers/s",
       "mm_sim.c3.customers_per_s": "customers/s", "mm_sim.assign_share": "fraction",
       "cli.self_share": "fraction", "cli.write_ms": "ms", "cli.cdf_rows": "rows",
       "cli.bytes_written": "bytes", "geo_analysis.bracket_errors": "count",
       "geo_analysis.wrong_omega": "count", "trace.overhead_share": "fraction"})


def run_probes(tracer) -> float:
    """Call each layer's public functions on fixed inputs, one trace per probe.

    Returns the factor to the reference interpreter speed over the probes.
    """
    qm = queuemax
    geo3 = qm.validate_geo_params(1 / 3, 1 / 6, 3)
    mm1 = qm.validate_mm_params(1 / 3, 1 / 2, 1)
    analysis = qm.analyze_geo(geo3)
    law = qm.max_length_law(analysis, 10_000)
    rng = np.random.default_rng(20190706)
    # shaped like the maxima of geo_wide (2048 reps) and mm_wide (50 reps)
    geo_samples = np.rint(rng.gumbel(12.7, 2.3, 2048)).astype(np.int64)
    mm_samples = rng.gumbel(38.6, 6.0, 50)
    geo_ecdf = qm.ECDF.from_samples(geo_samples)
    mm_ecdf = qm.ECDF.from_samples(mm_samples)

    def mm_cdf(y):
        return qm.cli.max_wait_cdf_mm1(mm1, "system", 20000.0, y)

    probes = {
        "omega": (lambda i: qm.geo_analysis.decay_rate_omega(geo3), 200),
        "stationary": (lambda i: qm.geo_analysis._stationary_from_omega(geo3, analysis.omega), 200),
        "nu": (lambda i: qm.geo_analysis.hitting_probabilities(geo3), 100),
        "analyze": (lambda i: qm.cli.analyze_geo(geo3), 100),
        "mean_queue_length": (lambda i: qm.cli.mean_queue_length(geo3), 100),
        "cdf_point": (lambda i: mm_cdf(40.0), 500),
        "ks_lattice": (lambda i: qm.cli.ks_distance(geo_ecdf, law.cdf, lattice=True), 100),
        "ks_continuous": (lambda i: qm.cli.ks_distance(mm_ecdf, mm_cdf), 30),
        "gumbel_fit": (lambda i: qm.cli.gumbel_fit_two_moment(geo_samples), 200),
        "summarize": (lambda i: qm.replication.summarize(geo_samples), 100),
        "substream": (lambda i: qm.replication.substream_generator(123456789, i), 2000),
    }
    loops = [min(calibration_seconds() for _ in range(3))]
    for name, (call, repeats) in probes.items():
        with tracer.trace("bench.probe", name):
            for i in range(repeats):
                call(i)
        loops.append(min(calibration_seconds() for _ in range(3)))
    return CALIBRATION_REF_S / median(loops)


def _layer(label: str) -> str:
    return label.split(".", 1)[0]


def layer_metrics(tracer, probe_factor: float, outcomes, workload: str,
                  rng_floor: float) -> dict[str, float]:
    """Every per-layer metric, from the probes and the traced commands.

    Times are scaled to the reference interpreter speed like the end-to-end
    ones: a command's spans by that command's factor, probes by theirs.
    """
    metrics = {name: min(tracer.durations(label, probe)) * probe_factor * unit
               for name, (probe, label, unit) in UNIT_COSTS.items()}
    metrics["replication.rng_doubles_per_s"] = rng_floor

    spans = tracer.spans
    traced = {i: o for i, o in enumerate(outcomes) if o.phase == "traced"}
    roots = [s for s in spans if s[3] == -1 and s[4] in traced]
    wall = sum(s[2] - s[1] for s in roots)

    def total(label, keep=lambda o: True):
        """Scaled time in spans of one label."""
        return sum((s[2] - s[1]) * traced[s[4]].seconds / traced[s[4]].wall for s in spans
                   if s[0] == label and s[4] in traced and keep(traced[s[4]]))

    def work(name, keep=lambda o: True):
        return sum(o.work.get(name, 0) for o in traced.values() if keep(o))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    # spans of a layer entered from another layer: that layer's busy time (wall
    # time, like the command time and the RNG floor it is compared with)
    entered = defaultdict(float)
    for s in spans:
        if s[4] in traced and s[3] >= 0 and _layer(spans[s[3]][0]) != _layer(s[0]):
            entered[_layer(s[0])] += s[2] - s[1]

    replicate = rate(work("slot_reps"), total("geo_sim.replicate_max_length"))
    metrics["geo_sim.wide.slot_reps_per_s"] = replicate if workload == "geo_wide" else 0.0
    metrics["geo_sim.long.slot_reps_per_s"] = replicate if workload == "geo_long" else 0.0
    metrics["geo_sim.scalar.slots_per_s"] = rate(work("slots"),
                                                 total("geo_sim.time_average_queue_length"))
    metrics["geo_sim.busy_share"] = rate(entered["geo_sim"], wall)
    metrics["geo_sim.rng_floor_ratio"] = rate(rate(work("uniforms"), entered["geo_sim"]), rng_floor)
    for c in (1, 3):
        def of_c(o, key=f"compare mm c={c}"):
            return o.key == key
        metrics[f"mm_sim.c{c}.customers_per_s"] = rate(
            work("customers", of_c), total("mm_sim.replicate_wait_maxima", of_c))
    metrics["mm_sim.assign_share"] = rate(total("mm_sim.assign_service_starts"),
                                          total("mm_sim.replicate_wait_maxima"))

    cli_roots = [s for s in roots if s[0] == "cli.main"]
    cli_wall = sum(s[2] - s[1] for s in cli_roots)
    below_cli = sum(s[2] - s[1] for s in spans
                    if s[4] in traced and s[3] >= 0 and _layer(s[0]) != "cli"
                    and _layer(spans[s[3]][0]) == "cli")
    metrics["cli.self_share"] = rate(cli_wall - below_cli, cli_wall)
    writes = defaultdict(float)
    for s in spans:
        if s[0] == "cli._write_outputs" and s[4] in traced:
            writes[s[4]] += (s[2] - s[1]) * traced[s[4]].seconds / traced[s[4]].wall
    metrics["cli.write_ms"] = median(writes.values()) * 1e3 if writes else 0.0

    first = {}
    for o in outcomes:
        first.setdefault(o.key, o)
    metrics["cli.cdf_rows"] = sum(o.cdf_rows for o in first.values())
    metrics["cli.bytes_written"] = sum(o.bytes_written for o in first.values())
    metrics["geo_analysis.bracket_errors"] = sum(o.error == "BracketError" for o in first.values())
    metrics["geo_analysis.wrong_omega"] = sum(
        (o.cause or "").startswith("wrong omega") for o in first.values())

    untraced = {k: median(v) for k, v in by_command(outcomes, "untraced").items()}
    traced_s = {k: median(v) for k, v in by_command(outcomes, "traced").items()}
    both = untraced.keys() & traced_s.keys()
    before = sum(untraced[k] for k in both)
    metrics["trace.overhead_share"] = rate(sum(traced_s[k] for k in both) - before, before)
    return metrics

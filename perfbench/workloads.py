"""The four workloads: the commands each runs, and the check of every output.

Each workload is a pass of commands that the run repeats. Simulation
commands get fresh master seeds on every pass, so the statistical checks pool
the replications of all passes. The analyze sweep repeats the same grid in a
new order on every pass.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable, Optional

import queuemax

import oracles

OUTPUT_FILES = ("summary.json", "samples.csv", "cdf.csv")  # manifest.json records a duration


@dataclass
class Command:
    key: str                                # timings are grouped by key
    argv: Optional[list] = None             # CLI arguments without --out
    call: Optional[Callable] = None         # a library call instead of a CLI command
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """One run of a command: its timing, exit, and what the output check found."""

    key: str
    phase: str
    wall: float = 0.0                       # measured wall time
    seconds: float = 0.0                    # wall time at the reference interpreter speed
    code: int = 0
    error: Optional[str] = None             # type of the exception the command raised
    omega: Optional[float] = None           # omega an analyze geo command reported
    cause: Optional[str] = None             # None when the output passed its check
    known_defect: bool = False
    work: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    cdf_rows: int = 0
    bytes_written: int = 0
    sha256: Optional[str] = None


class Failed(Exception):
    """An output check found a wrong result."""


def _require(ok: bool, cause: str) -> None:
    if not ok:
        raise Failed(cause)


def _read_outputs(out_dir: Path, outcome: Outcome) -> dict:
    summary = json.loads((out_dir / "summary.json").read_text())
    for name in OUTPUT_FILES:
        path = out_dir / name
        if path.exists():
            outcome.bytes_written += path.stat().st_size
    if (out_dir / "cdf.csv").exists():  # analyze mm writes none for c >= 2
        outcome.cdf_rows = len((out_dir / "cdf.csv").read_text().splitlines()) - 1
    return summary


def _read_samples(out_dir: Path, info: dict, outcome: Outcome) -> list[list[str]]:
    """Rows of samples.csv, after checking the replication index and substream seed columns."""
    data = (out_dir / "samples.csv").read_bytes()
    outcome.sha256 = hashlib.sha256(data).hexdigest()
    rows = list(csv.reader(data.decode().splitlines()))[1:]
    _require(len(rows) == info["reps"], f"{len(rows)} sample rows for {info['reps']} reps")
    for i, row in enumerate(rows):
        _require(int(row[0]) == i and int(row[1]) == oracles.splitmix64(info["seed"], i),
                 f"replication {i}: index or substream seed differs from splitmix64")
    return rows


def _check_omega(omega: float, info: dict) -> None:
    want = oracles.omega_root(info["p"], info["r"], info["c"])
    _require(abs(omega - want) <= oracles.OMEGA_ABS_TOL,
             f"wrong omega: {omega!r}, polynomial root {want!r}")


# ------------------------------------------------------------------ checks


def check_analyze_geo(out_dir: Path, info: dict, outcome: Outcome) -> None:
    report = _read_outputs(out_dir, outcome)
    omega = outcome.omega = report["omega"]
    _check_omega(omega, info)
    pi = report["pi"]
    total = sum(pi["boundary"]) + pi["pi_c"] / (1.0 - omega)
    _require(abs(total - 1.0) <= oracles.ANALYTIC_REL_TOL, f"sum of pi is {total!r}")
    nu = report["nu"]
    for value in [nu["nu0"], nu["nu_minus1"], *nu["nu_up"]]:
        _require(0.0 < value <= 1.0, f"nu value {value!r} outside (0, 1]")
    _require(report["beta"] > 0.0, f"beta {report['beta']!r} not positive")


def check_analyze_mm(out_dir: Path, info: dict, outcome: Outcome) -> None:
    report = _read_outputs(out_dir, outcome)
    lam, mu, c, n = info["lam"], info["mu"], info["c"], info["n"]
    queue = oracles.erlang_c_queue_wait(lam, mu, c)
    waits = report["mean_wait"]
    _require(oracles.rel_close(waits["queue"], queue, oracles.ANALYTIC_REL_TOL)
             and oracles.rel_close(waits["system"], queue + 1.0 / mu, oracles.ANALYTIC_REL_TOL),
             f"mean waits {waits} differ from Erlang C {queue!r}")
    if c == 1:
        for kind, name in (("system", "expected_max_sys"), ("queue", "expected_max_que")):
            want = oracles.mm1_expected_max_wait(lam, mu, n, kind)
            _require(oracles.rel_close(report["max_wait"][name], want, oracles.ANALYTIC_REL_TOL),
                     f"{name} {report['max_wait'][name]!r}, formula {want!r}")


def check_geo_sim(out_dir: Path, info: dict, outcome: Outcome) -> None:
    report = _read_outputs(out_dir, outcome)
    rows = _read_samples(out_dir, info, outcome)
    maxima = [int(row[2]) for row in rows]
    _require(all(0 <= m <= info["n"] for m in maxima), "a maximum outside 0..n")
    mean = report["empirical"]["mean_max"] if "empirical" in report else report["max_length"]["mean"]
    _require(oracles.rel_close(mean, fmean(maxima), 1e-12), "reported mean differs from samples")
    if "analytic" in report:
        analytic = report["analytic"]
        _check_omega(analytic["omega"], info)
        outcome.pool.update(expected_max=analytic["expected_max"],
                            law=(analytic["omega"], analytic["beta"]))
    else:  # the scalar path must give replication 0 the same trajectory
        params = queuemax.validate_geo_params(info["p"], info["r"], info["c"])
        scalar = queuemax.simulate_max_length(params, info["n"], oracles.splitmix64(info["seed"], 0))
        _require(scalar == maxima[0], f"scalar path gives {scalar}, vectorized {maxima[0]}")
    outcome.pool["maxima"] = maxima
    outcome.work["slot_reps"] = info["n"] * info["reps"]
    outcome.work["uniforms"] = info["n"] * info["reps"] * (info["c"] + 1)


def check_mm_sim(out_dir: Path, info: dict, outcome: Outcome) -> None:
    report = _read_outputs(out_dir, outcome)
    rows = _read_samples(out_dir, info, outcome)
    table = [[float(v) for v in row[2:6]] + [int(row[6])] for row in rows]
    for max_sys, max_que, mean_sys, mean_que, customers in table:
        _require(max_sys >= max_que >= 0.0 and mean_sys >= mean_que >= 0.0 and customers >= 1,
                 "system waits must dominate queue waits in every replication")
    lam, mu, c = info["lam"], info["mu"], info["c"]
    queue = oracles.erlang_c_queue_wait(lam, mu, c)
    _require(oracles.rel_close(report["mean_wait_analytic"]["queue"], queue,
                               oracles.ANALYTIC_REL_TOL), "analytic mean wait differs from Erlang C")
    outcome.pool.update(max_sys=[t[0] for t in table], max_que=[t[1] for t in table],
                        wait_que_sum=sum(t[3] * t[4] for t in table))
    outcome.work["customers"] = sum(t[4] for t in table)


def check_time_average(result, info: dict, outcome: Outcome) -> None:
    mean, se = result
    _require(mean >= 0.0 and se > 0.0, f"time average {mean!r} with standard error {se!r}")
    outcome.pool["time_average"] = mean
    outcome.work["slots"] = info["n"]
    outcome.work["uniforms"] = info["n"] * (info["c"] + 1)


# ------------------------------------------------------------------ workloads

GEO1 = {"p": 1 / 3, "r": 1 / 2, "c": 1}
GEO3 = {"p": 1 / 3, "r": 1 / 6, "c": 3}
MM1 = {"lam": 1 / 3, "mu": 1 / 2, "c": 1}
MM3 = {"lam": 1 / 3, "mu": 1 / 6, "c": 3}
FRACTIONS = {1 / 3: "1/3", 1 / 2: "1/2", 1 / 6: "1/6"}


def _geo_argv(command: str, params: dict, n: int, reps: int, seed: int) -> list[str]:
    return [command, "geo", "--p", FRACTIONS[params["p"]], "--r", FRACTIONS[params["r"]],
            "--c", str(params["c"]), "--n", str(n), "--reps", str(reps), "--seed", str(seed)]


def _mm_argv(params: dict, n: float, reps: int, seed: int) -> list[str]:
    return ["compare", "mm", "--lambda", FRACTIONS[params["lam"]], "--mu", FRACTIONS[params["mu"]],
            "--c", str(params["c"]), "--n", str(n), "--reps", str(reps), "--seed", str(seed)]


def _pooled(outcomes, key):
    """The passing runs of one command, which the statistical checks pool."""
    return [o for o in outcomes if o.key == key and o.cause is None]


class Workload:
    def known_defect(self, info: dict, outcome: Outcome) -> bool:
        return False

    def pooled_failures(self, outcomes) -> list[str]:
        return []


class GeoWide(Workload):
    """Wide rep vectors: the vectorized slot loop does nearly all the work."""

    name = "geo_wide"
    # At n=2500 the ECDF lies up to 0.016 below the law's CDF at its lowest
    # central level, so the pool must be large enough that sampling error
    # (about 0.0012 at 32768 reps) cannot carry the gap past the 0.02 bound.
    N, REPS, MIN_POOLED = 2500, 2048, 32768

    def commands(self, rng: random.Random) -> list[Command]:
        out = []
        for params in (GEO1, GEO3):
            seed = rng.getrandbits(63)
            info = dict(params, n=self.N, reps=self.REPS, seed=seed)
            out.append(Command(f"compare geo c={params['c']}",
                               _geo_argv("compare", params, self.N, self.REPS, seed), info=info))
        return out

    check = staticmethod(check_geo_sim)

    def enough(self, outcomes) -> bool:
        return all(len(_pooled(outcomes, k)) * self.REPS >= self.MIN_POOLED
                   for k in ("compare geo c=1", "compare geo c=3"))

    def pooled_failures(self, outcomes) -> list[str]:
        """Acceptance criterion 06: mean of the maximum within 0.15 of the law's,
        and the ECDF within 0.02 of the law's CDF at its central levels."""
        failures = []
        for key in ("compare geo c=1", "compare geo c=3"):
            done = _pooled(outcomes, key)
            if not done:
                failures.append(f"{key}: no passing run to pool")
                continue
            maxima = sorted(m for o in done for m in o.pool["maxima"])
            gap = abs(fmean(maxima) - done[0].pool["expected_max"])
            if gap > oracles.GEO_MEAN_GAP:
                failures.append(f"{key}: mean maximum {fmean(maxima):.4f} is {gap:.4f} "
                                f"from the law over {len(maxima)} reps")
            omega, beta = done[0].pool["law"]
            levels, deviation = oracles.ecdf_gap(maxima, omega, beta, self.N)
            if levels < 3 or deviation > oracles.GEO_CDF_GAP:
                failures.append(f"{key}: ECDF is {deviation:.4f} from the law's CDF at "
                                f"{levels} central levels over {len(maxima)} reps")
        return failures


class GeoLong(Workload):
    """Narrow rep vectors over long horizons: per-slot overhead dominates."""

    name = "geo_long"
    N, REPS, TIME_AVERAGE_N, MIN_PASSES = 50_000, 16, 250_000, 16

    def commands(self, rng: random.Random) -> list[Command]:
        out = []
        for params in (GEO1, GEO3):
            seed = rng.getrandbits(63)
            info = dict(params, n=self.N, reps=self.REPS, seed=seed)
            out.append(Command(f"simulate geo c={params['c']}",
                               _geo_argv("simulate", params, self.N, self.REPS, seed), info=info))
        seed = rng.getrandbits(63)
        geo3 = queuemax.validate_geo_params(GEO3["p"], GEO3["r"], GEO3["c"])
        out.append(Command("time_average_queue_length c=3", info={"n": self.TIME_AVERAGE_N, "c": 3},
                           call=lambda: queuemax.geo_sim.time_average_queue_length(
                               geo3, self.TIME_AVERAGE_N, seed)))
        rng.shuffle(out)
        return out

    check = staticmethod(check_geo_sim)

    def enough(self, outcomes) -> bool:
        return len(_pooled(outcomes, "time_average_queue_length c=3")) >= self.MIN_PASSES

    def pooled_failures(self, outcomes) -> list[str]:
        """Time-average queue length within 2% of the stationary mean (criterion 09's bound)."""
        done = _pooled(outcomes, "time_average_queue_length c=3")
        if not done:
            return ["time_average_queue_length c=3: no passing run to pool"]
        mean = fmean(o.pool["time_average"] for o in done)
        want = queuemax.mean_queue_length(queuemax.validate_geo_params(**GEO3))
        if not oracles.rel_close(mean, want, oracles.MEAN_REL_TOL):
            return [f"time-average queue length {mean:.5f} vs stationary mean {want:.5f} "
                    f"over {len(done)} runs"]
        return []


class MMWide(Workload):
    """Customer-by-customer simulation of M/M/1 and M/M/3."""

    name = "mm_wide"
    N, REPS, MIN_POOLED = 20000.0, 50, 1000

    def commands(self, rng: random.Random) -> list[Command]:
        out = []
        for params in (MM1, MM3):
            seed = rng.getrandbits(63)
            info = dict(params, n=self.N, reps=self.REPS, seed=seed)
            out.append(Command(f"compare mm c={params['c']}",
                               _mm_argv(params, self.N, self.REPS, seed), info=info))
        return out

    check = staticmethod(check_mm_sim)

    def enough(self, outcomes) -> bool:
        return all(len(_pooled(outcomes, k)) * self.REPS >= self.MIN_POOLED
                   for k in ("compare mm c=1", "compare mm c=3"))

    def pooled_failures(self, outcomes) -> list[str]:
        """Acceptance criteria 08 (mean maxima) and 09 (pooled mean wait within 2%)."""
        failures = []
        for params in (MM1, MM3):
            key = f"compare mm c={params['c']}"
            done = _pooled(outcomes, key)
            if not done:
                failures.append(f"{key}: no passing run to pool")
                continue
            sys_ref, sys_tol, que_ref, que_tol = oracles.MM_MAX_REFS[params["c"]]
            for name, ref, tol in (("max_sys", sys_ref, sys_tol), ("max_que", que_ref, que_tol)):
                mean = fmean(v for o in done for v in o.pool[name])
                if abs(mean - ref) >= tol:
                    failures.append(f"{key}: mean {name} {mean:.3f}, reference {ref} +- {tol}")
            customers = sum(o.work["customers"] for o in done)
            pooled = sum(o.pool["wait_que_sum"] for o in done) / customers
            want = oracles.erlang_c_queue_wait(params["lam"], params["mu"], params["c"])
            if not oracles.rel_close(pooled, want, oracles.MEAN_REL_TOL):
                failures.append(f"{key}: pooled mean wait {pooled:.4f}, Erlang C {want:.4f}")
        return failures


class AnalyzeSweep(Workload):
    """Closed-form analysis over a load grid up to heavy traffic; no simulation."""

    name = "analyze_sweep"
    GEO_N, MM_N, MM_MU, MIN_PASSES = 100_000, 100_000.0, 0.5, 3
    RATES = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9)
    LOADS = (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999)
    # (c, r, load) points queuemax 0.1.0 gets wrong. They stay in the grid and
    # count as failures; `correct` turns false only on other failures.
    # Exit 3: the omega gap cancels to about -1e-16 at 1-1e-12.
    BRACKET_ERRORS = {(1, 0.1, 0.9999), (1, 0.45, 0.9999), (2, 0.1, 0.9999),
                      (2, 0.45, 0.9999), (3, 0.1, 0.9999)}
    # Exit 0 with omega = 1-1e-12, the end of the bisection's bracket.
    BRACKET_END = 1.0 - 1e-12
    WRONG_OMEGA = {(1, 0.1, 0.999), (1, 0.2, 0.9999), (1, 0.75, 0.9999),
                   (2, 0.1, 0.999), (3, 0.2, 0.9999)}

    def __init__(self):
        self.grid = []
        for c in (1, 2, 3):
            for r in self.RATES:
                for load in self.LOADS:
                    p = load * c * r
                    if p < 1.0:
                        argv = ["analyze", "geo", "--p", repr(p), "--r", repr(r), "--c", str(c),
                                "--n", str(self.GEO_N)]
                        self.grid.append(Command(f"analyze geo c={c} r={r} load={load}", argv,
                                                 info={"p": p, "r": r, "c": c, "load": load}))
            for load in self.LOADS:
                lam = load * c * self.MM_MU
                argv = ["analyze", "mm", "--lambda", repr(lam), "--mu", repr(self.MM_MU),
                        "--c", str(c), "--n", repr(self.MM_N)]
                self.grid.append(Command(f"analyze mm c={c} load={load}", argv,
                                         info={"lam": lam, "mu": self.MM_MU, "c": c,
                                               "n": self.MM_N, "load": load}))

    def commands(self, rng: random.Random) -> list[Command]:
        order = list(self.grid)
        rng.shuffle(order)
        return order

    @staticmethod
    def check(out_dir: Path, info: dict, outcome: Outcome) -> None:
        (check_analyze_mm if "lam" in info else check_analyze_geo)(out_dir, info, outcome)

    def known_defect(self, info: dict, outcome: Outcome) -> bool:
        """Whether a failure is the one recorded for its point; any other is unexpected."""
        point = (info["c"], info.get("r"), info["load"])
        if point in self.BRACKET_ERRORS:
            return outcome.code == 3 and outcome.error == "BracketError"
        if point in self.WRONG_OMEGA:
            return (outcome.code == 0 and outcome.omega == self.BRACKET_END
                    and outcome.cause.startswith("wrong omega"))
        return False

    def enough(self, outcomes) -> bool:
        return len(outcomes) >= self.MIN_PASSES * len(self.grid)


WORKLOADS = {w.name: w for w in (GeoWide, GeoLong, MMWide, AnalyzeSweep)}

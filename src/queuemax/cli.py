"""Command-line surface: reproducible analysis, simulation and comparison reports.

Three commands, each for a `geo` (discrete-time) or `mm` (continuous-time)
target, and each target takes only its own model flags:

    analyze   closed-form quantities and a plot-ready CDF table
    simulate  replicated maxima with samples, summary and manifest files
    compare   analytic predictions against a fresh simulation, side by side

--out alone decides what is written. Without it a command prints its
summary.json to stdout and writes nothing. With it, each file the command has
(summary.json, samples.csv, cdf.csv, manifest.json) goes there via a temp name
and a rename, so no partial file appears under a final name. The manifest
records the exact parameters, PRNG algorithm and master seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from math import ceil, inf, log
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HeuristicRangeWarning, NumericError, QueueMaxError, RangeError
from .geo_analysis import analyze_geo, expected_max_length, max_length_law
# not called here; kept as cli.mean_queue_length, which the perfbench tracer wraps and probes call
from .geo_analysis import mean_queue_length  # noqa: F401
from .geo_sim import INCREMENT_METHOD, GeoSimConfig, replicate_max_length
from .mm_analysis import (expected_max_wait_mm1, max_wait_cdf_mm1, mean_wait,
                          mm1_asymptotics, validate_mm_params)
from .mm_sim import EXPONENTIAL_METHOD, MMSimConfig, replicate_wait_maxima
from .params import validate_geo_params
from .replication import PRNG_ALGORITHM, SEED_DERIVATION, check_campaign
from .stats import gumbel_fit_two_moment, ks_distance

DEFAULT_MASTER_SEED = 123456789  # fixed so default runs reproduce; --seed random opts out
CDF_PROB_FLOOR = 1e-9
CDF_POINTS = 201

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def parse_number(text: str) -> float:
    """Accept decimals or exact fractions like '1/3'."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number or fraction: {text!r}") from exc


def parse_seed(text: str) -> int:
    """An integer master seed in [0, 2^64), or 'random' for one drawn from entropy."""
    if text == "random":
        return int.from_bytes(os.urandom(8), "big") >> 1  # 63 random bits
    try:
        seed = int(text, 0)
        check_campaign(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**64) or 'random': {text!r}") from exc
    return seed


TARGETS = {  # target: its model flags (flag, dest, help), what --n counts, how its stream draws
    "geo": ([("--p", "p", "arrival probability per slot"),
             ("--r", "r", "per-server departure probability per slot")],
            "time steps", {"increments": INCREMENT_METHOD}),
    "mm": ([("--lambda", "lam", "arrival rate"), ("--mu", "mu", "per-server service rate")],
           "interval length", {"exponentials": EXPONENTIAL_METHOD}),
}


@cache  # built once per process: building takes longer than an `analyze` command
def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per (command, target), holding only that target's model flags."""
    parser = argparse.ArgumentParser(
        prog="queuemax",
        description="Queue-maximum asymptotics and Monte Carlo simulators.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for command, needs_sim in (("analyze", False), ("simulate", True), ("compare", True)):
        targets = commands.add_parser(command).add_subparsers(dest="target", required=True)
        for target, (model, horizon, _) in TARGETS.items():
            sub = targets.add_parser(target)
            for flag, dest, text in model:
                sub.add_argument(flag, dest=dest, type=parse_number, required=True, help=text)
            sub.add_argument("--c", type=int, default=1, help="number of servers")
            sub.add_argument("--n", type=parse_number, default=10000, help=f"horizon: {horizon}")
            sub.add_argument("--out", type=Path, help="directory for every report file "
                                                      "(else summary.json goes to stdout)")
            if needs_sim:
                sub.add_argument("--reps", type=int, default=1000)
                sub.add_argument("--seed", type=parse_seed, default=DEFAULT_MASTER_SEED,
                                 help="master seed (integer), or 'random' for entropy")
            sub.set_defaults(parser=sub)  # run hands it the arguments it did not recognize
    return parser


def _inputs(args):
    """Validated parameters and horizon: time steps (geo) or interval length (mm)."""
    if args.target == "geo":
        params = validate_geo_params(args.p, args.r, args.c)
        if not 1 <= args.n < inf or args.n != int(args.n):
            raise RangeError(f"--n must be a positive integer of time steps, got {args.n}")
        return params, int(args.n)
    params = validate_mm_params(args.lam, args.mu, args.c)
    if not 0 < args.n < inf:
        raise RangeError(f"--n must be a positive, finite interval length, got {args.n}")
    return params, float(args.n)


# ---------------------------------------------------------------- reports
#
# One builder per (command, target): builder(params, n, reps, seed) returns
# (report, samples pack, cdf pack), a pack being (header, rows) or None.
# compare reuses simulate's replications and report header and analyze's
# analytic helpers. Every cdf pack comes from _cdf_pack.

def _prng(target) -> dict:
    return {"algorithm": PRNG_ALGORITHM, "substreams": SEED_DERIVATION, **TARGETS[target][2]}


def _sim_report(target, params, n, reps, seed) -> dict:
    return {"target": target, "params": params, "n": n, "reps": reps, "seed": seed,
            "prng": _prng(target)}


def _cdf_pack(axis, grid, columns):
    """cdf.csv as (header, rows): the grid, then each named CDF, called once on the grid."""
    cells = [grid.tolist()] + [cdf(grid).tolist() for cdf in columns.values()]
    return [axis, *columns], list(zip(*cells))


def _gumbel_fit(samples):
    """Two-moment Gumbel fit, or None for a sample without spread."""
    return gumbel_fit_two_moment(samples) if samples.std() > 0 else None


def _se(result):
    """The standard error of a replicated mean, or None from one replication, which has none."""
    return result.se if len(result.samples) > 1 else None


def _fit_report(fit):
    return {"location": fit.location, "scale": fit.scale} if fit else None


def _geo_law(params, n):
    analysis = analyze_geo(params)
    return analysis, max_length_law(analysis, n)


def _geo_cdf_table(law):
    """The levels k of a geo cdf.csv, across the informative probability range.

    The range runs from the first k >= servers whose predicted CDF
    law.cdf(k) reaches CDF_PROB_FLOOR to the first whose CDF reaches
    1 - CDF_PROB_FLOOR. The CDF increases in k, so each end is estimated from
    logs and settled on the exact values. A range longer than CDF_POINTS rows
    keeps every stride-th k from the low end, plus the high end, with the
    smallest stride that fits.
    """
    def first_reaching(level, start):
        k = max(start, ceil((log(-log(level)) - log(law.beta * law.n)) / log(law.omega)))
        while k > start and law.cdf(k - 1) >= level:
            k -= 1
        while law.cdf(k) < level:
            k += 1
        return k

    low = first_reaching(CDF_PROB_FLOOR, law.servers)
    high = first_reaching(1.0 - CDF_PROB_FLOOR, low)
    stride = max(1, -(-(high - low) // (CDF_POINTS - 1)))  # integer ceiling
    return np.array([*range(low, high, stride), high])


def _analyze_geo(params, n, *_):
    analysis, law = _geo_law(params, n)
    report = {
        "target": "geo",
        "params": {"p": params.p, "r": params.r, "c": params.c,
                   "q": params.q, "s": params.s},
        "n": n,
        "omega": analysis.omega,
        "pi": {
            "boundary": list(analysis.pi_boundary),
            "pi_c": analysis.pi_c,
            "tail_ratio": analysis.omega,
        },
        "nu": {
            "nu0": analysis.nu.nu0,
            "nu_minus1": analysis.nu.nu_minus1,
            "nu_up": list(analysis.nu.nu_up),
        },
        "beta": analysis.beta,
        "max_length": {
            "slope": law.slope,
            "intercept": law.intercept,
            "expected_max": expected_max_length(analysis, n),
        },
        "mean_queue_length": analysis.mean_queue_length,
    }
    return report, None, _cdf_pack("k", _geo_cdf_table(law), {"predicted": law.cdf})


def _geo_replicate(params, n, reps, seed):
    """The replications, with the report header and samples table simulate and compare share."""
    result = replicate_max_length(GeoSimConfig(params, n, reps, seed))
    report = _sim_report("geo", {"p": params.p, "r": params.r, "c": params.c}, n, reps, seed)
    rows = list(zip(range(reps), result.seeds.tolist(), result.samples.tolist()))
    return result, report, (["replication", "seed", "max_length"], rows)


def _simulate_geo(params, n, reps, seed):
    result, report, samples = _geo_replicate(params, n, reps, seed)
    report["max_length"] = {
        "mean": result.mean,
        "se": _se(result),
        "min": int(result.samples.min()),
        "max": int(result.samples.max()),
    }
    ecdf = result.ecdf
    return report, samples, _cdf_pack("value", ecdf.values, {"empirical": ecdf.evaluate})


def _compare_geo(params, n, reps, seed):
    analysis, law = _geo_law(params, n)
    expected_max = expected_max_length(analysis, n)  # rejects n < 2 before any replication
    result, report, samples = _geo_replicate(params, n, reps, seed)
    report["analytic"] = {
        "omega": analysis.omega,
        "beta": analysis.beta,
        "slope": law.slope,
        "intercept": law.intercept,
        "expected_max": expected_max,
        "mean_queue_length": analysis.mean_queue_length,
    }
    report["empirical"] = {
        "mean_max": result.mean,
        "se": _se(result),
        "gumbel_fit": _fit_report(_gumbel_fit(result.samples)),
    }
    report["ks_distance"] = ks_distance(result.ecdf, law.cdf, lattice=True)
    columns = {"predicted": law.cdf, "empirical": result.ecdf.evaluate}
    return report, samples, _cdf_pack("k", _geo_cdf_table(law), columns)


MM_KINDS = (("sys", "system"), ("que", "queue"))


def _mm_mean_waits(params) -> dict:
    return {"queue": mean_wait(params, "queue"), "system": mean_wait(params, "system")}


def _mm1_expected_maxima(params, n) -> dict:
    return {f"expected_max_{label}": expected_max_wait_mm1(params, kind, n)
            for label, kind in MM_KINDS}


def _mm1_cdfs(params, n) -> dict:
    """The single-server maximum-wait laws over [0, n], keyed by sys and que."""
    return {label: lambda y, kind=kind: max_wait_cdf_mm1(params, kind, n, y)
            for label, kind in MM_KINDS}


def _analyze_mm(params, n, *_):
    report = {
        "target": "mm",
        "params": {"lambda": params.lam, "mu": params.mu, "c": params.c,
                   "rho_single_server": params.rho_single,
                   "rho_per_server": params.utilization},
        "n": n,
        "mean_wait": _mm_mean_waits(params),
    }
    if params.c > 1:
        report["max_wait"] = {
            "available": False,
            "note": "no analytic maximum-wait formulas for c >= 2; use simulate or compare",
        }
        return report, None, None
    asym = mm1_asymptotics(params, "system")
    report["max_wait"] = {"available": True, **_mm1_expected_maxima(params, n),
                          "slope": asym.scale}
    # y from 0 up to the law's far tail, and at least to 1; RangeError where A*n overflows,
    # and where it underflows to 0 the law is 1 from y = 0 on
    exceedances, y_hi = asym.exceedances(n), 1.0
    if exceedances > 0.0:
        y_hi = (np.log(exceedances) - np.log(-np.log(1.0 - 1e-6))) / (params.mu - params.lam)
    grid = np.linspace(0.0, max(y_hi, 1.0), CDF_POINTS)
    columns = {f"predicted_{label}": cdf for label, cdf in _mm1_cdfs(params, n).items()}
    return report, None, _cdf_pack("y", grid, columns)


def _mm_replicate(params, n, reps, seed):
    """The replications, with the report header and samples table simulate and compare share."""
    result = replicate_wait_maxima(MMSimConfig(params, n, reps, seed))
    report = _sim_report("mm", {"lambda": params.lam, "mu": params.mu, "c": params.c},
                         n, reps, seed)
    columns = (result.max_sys.seeds, result.max_sys.samples, result.max_que.samples,
               result.mean_sys.samples, result.mean_que.samples, result.customers)
    rows = list(zip(range(reps), *(column.tolist() for column in columns)))
    header = ["replication", "seed", "max_sys", "max_que", "mean_sys", "mean_que", "customers"]
    return result, report, (header, rows)


def _simulate_mm(params, n, reps, seed):
    result, report, samples = _mm_replicate(params, n, reps, seed)
    report.update({
        "max_sys": {"mean": result.max_sys.mean, "se": _se(result.max_sys)},
        "max_que": {"mean": result.max_que.mean, "se": _se(result.max_que)},
        "mean_sys": {"pooled": result.pooled_mean_sys, "per_rep_mean": result.mean_sys.mean},
        "mean_que": {"pooled": result.pooled_mean_que, "per_rep_mean": result.mean_que.mean},
        "customers": int(result.customers.sum()),
    })
    ecdf = result.max_sys.ecdf
    return report, samples, _cdf_pack("value", ecdf.values, {"empirical": ecdf.evaluate})


def _compare_mm(params, n, reps, seed):
    result, report, samples = _mm_replicate(params, n, reps, seed)
    maxima = {"sys": result.max_sys, "que": result.max_que}
    fits = {label: _gumbel_fit(sim.samples) for label, sim in maxima.items()}
    report["empirical"] = {
        "mean_max_sys": result.max_sys.mean,
        "se_max_sys": _se(result.max_sys),
        "mean_max_que": result.max_que.mean,
        "se_max_que": _se(result.max_que),
        "pooled_mean_que": result.pooled_mean_que,
        "gumbel_fit_sys": _fit_report(fits["sys"]),
        "gumbel_fit_que": _fit_report(fits["que"]),
    }
    report["mean_wait_analytic"] = _mm_mean_waits(params)
    # analytic laws exist for c = 1 only; at c >= 2 the fits above are the whole model side
    laws = _mm1_cdfs(params, n) if params.c == 1 else {}
    report["analytic"] = _mm1_expected_maxima(params, n) if laws else None
    columns = {}
    for label, sim in maxima.items():
        if laws:
            report[f"ks_distance_{label}"] = ks_distance(sim.ecdf, laws[label])
            columns[f"predicted_{label}"] = laws[label]
        columns[f"empirical_{label}"] = sim.ecdf.evaluate

    hi = float(max(result.max_sys.samples.max(), result.max_que.samples.max())) * 1.05
    grid = np.linspace(0.0, max(hi, 1.0), CDF_POINTS)
    return report, samples, _cdf_pack("y", grid, columns)


_BUILDERS = {
    ("analyze", "geo"): _analyze_geo, ("analyze", "mm"): _analyze_mm,
    ("simulate", "geo"): _simulate_geo, ("simulate", "mm"): _simulate_mm,
    ("compare", "geo"): _compare_geo, ("compare", "mm"): _compare_mm,
}


# ---------------------------------------------------------------- file output

def _atomic_write(path: Path, text: str) -> None:
    """Write via a temp file unique to this call, so concurrent runs never share one."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header, rows) -> str:
    """Every cell is an int, a float or a header name, so none needs quoting."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_outputs(out_dir: Path, report, manifest, samples, cdf) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "summary.json", _json_text(report))
    written = ["summary.json"]
    for name, pack in (("samples.csv", samples), ("cdf.csv", cdf)):
        if pack is not None:
            _atomic_write(out_dir / name, _csv_text(*pack))
            written.append(name)
    written.append("manifest.json")
    _atomic_write(out_dir / "manifest.json", _json_text(dict(manifest, outputs=written)))
    return written


def _manifest(args, argv, seed, duration) -> dict:
    model = [dest for _, dest, _ in TARGETS[args.target][0]]
    params = {key: getattr(args, key) for key in (*model, "c", "n")}
    return {
        "command_line": argv,
        "command": args.command,
        "target": args.target,
        "parameters": params,
        "reps": getattr(args, "reps", None),
        "master_seed": seed,
        "prng": _prng(args.target),
        "version": __version__,
        "duration_seconds": duration,
    }


# ---------------------------------------------------------------- entry points

def run(argv) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported with the usage line of the (command, target) that was reached
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    started = time.perf_counter()

    seed = getattr(args, "seed", None)
    params, n = _inputs(args)
    report, samples_pack, cdf_pack = _BUILDERS[args.command, args.target](
        params, n, getattr(args, "reps", None), seed)
    if args.out is None:
        sys.stdout.write(_json_text(report))
        return EXIT_OK

    manifest = _manifest(args, list(argv), seed, time.perf_counter() - started)
    written = _write_outputs(args.out, report, manifest, samples_pack, cdf_pack)
    for key, value in report.items():  # the headline: every scalar of the report
        if not isinstance(value, (dict, list)):
            print(f"{key}: {value}")
    print(f"wrote {', '.join(written)} to {args.out}")
    return EXIT_OK


@contextmanager
def _warnings_like_errors():
    """Print each HeuristicRangeWarning shown on stderr as one `warning: ...` line."""
    default = warnings.formatwarning

    def one_line(message, category, *where):
        if issubclass(category, HeuristicRangeWarning):
            return f"warning: {message}\n"
        return default(message, category, *where)

    warnings.formatwarning = one_line
    try:
        yield
    finally:
        warnings.formatwarning = default


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    with _warnings_like_errors():
        try:
            return run(argv)
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return EXIT_IO
        except QueueMaxError as exc:  # the rest are validation errors: range, stability, ...
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

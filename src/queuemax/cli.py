"""Command-line surface: reproducible analysis, simulation and comparison reports.

Three commands, each for a `geo` (discrete-time) or `mm` (continuous-time)
target:

    analyze   closed-form quantities and a plot-ready CDF table
    simulate  replicated maxima with samples, summary and manifest files
    compare   analytic predictions against a fresh simulation, side by side

File outputs land in --out as summary.json, samples.csv, cdf.csv and
manifest.json; every file is written to a temp name and renamed, so partially
written outputs never appear under their final names. Runs are reproducible:
the manifest records the exact parameters, PRNG algorithm and master seed.
"""
from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (BracketError, ConvergenceError, DegenerateRootsError,
                     DegenerateSampleError, QueueMaxError, RangeError,
                     SingularError, StabilityError, UnsupportedError)
from .geo_analysis import analyze_geo, expected_max_length, max_length_law
# not called here; kept as cli.mean_queue_length, which the perfbench tracer wraps and probes call
from .geo_analysis import mean_queue_length  # noqa: F401
from .geo_sim import GeoSimConfig, replicate_max_length
from .mm_analysis import (expected_max_wait_mm1, max_wait_cdf_mm1, mean_wait,
                          validate_mm_params)
from .mm_sim import EXPONENTIAL_METHOD, MMSimConfig, replicate_wait_maxima
from .params import validate_geo_params
from .replication import PRNG_ALGORITHM, SEED_DERIVATION
from .stats import gumbel_fit_two_moment, ks_distance

DEFAULT_MASTER_SEED = 123456789  # fixed so default runs reproduce; --seed random opts out
CDF_PROB_FLOOR = 1e-9
CDF_POINTS = 201

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_VALIDATION_ERRORS = (RangeError, StabilityError, UnsupportedError, DegenerateSampleError)
_NUMERIC_ERRORS = (ConvergenceError, SingularError, BracketError, DegenerateRootsError)


def parse_number(text: str) -> float:
    """Accept decimals or exact fractions like '1/3'."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number or fraction: {text!r}") from exc


def parse_seed(text: str):
    if text == "random":
        return "random"
    try:
        return int(text, 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer or 'random': {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queuemax",
        description="Queue-maximum asymptotics and Monte Carlo simulators.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for command, needs_sim in (("analyze", False), ("simulate", True), ("compare", True)):
        sub = commands.add_parser(command)
        sub.add_argument("target", choices=("geo", "mm"))
        sub.add_argument("--p", type=parse_number, help="arrival probability per slot (geo)")
        sub.add_argument("--r", type=parse_number, help="per-server departure probability (geo)")
        sub.add_argument("--lambda", dest="lam", type=parse_number, help="arrival rate (mm)")
        sub.add_argument("--mu", type=parse_number, help="per-server service rate (mm)")
        sub.add_argument("--c", type=int, default=1, help="number of servers")
        sub.add_argument("--n", type=parse_number, default=10000,
                         help="horizon: time steps (geo) or interval length (mm)")
        sub.add_argument("--out", type=Path, default=None,
                         help="output directory (analyze prints to stdout when omitted)")
        sub.add_argument("--format", choices=("json", "csv", "both"), default="both")
        if needs_sim:
            sub.add_argument("--reps", type=int, default=1000)
            sub.add_argument("--seed", type=parse_seed, default=DEFAULT_MASTER_SEED,
                             help="master seed (integer), or 'random' for entropy")
            sub.add_argument("--threads", type=int, default=1)
    return parser


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--lambda" if name == "lam" else f"--{name}"
            raise RangeError(f"{flag} is required for target {args.target!r}")


def _geo_params(args):
    _require(args, ("p", "r"))
    return validate_geo_params(args.p, args.r, args.c)


def _mm_params(args):
    _require(args, ("lam", "mu"))
    return validate_mm_params(args.lam, args.mu, args.c)


def _geo_horizon(args) -> int:
    if args.n != int(args.n) or args.n < 1:
        raise RangeError(f"--n must be a positive integer of time steps, got {args.n}")
    return int(args.n)


def _resolve_seed(args) -> int:
    if args.seed == "random":
        return secrets.randbits(63)
    return int(args.seed)


# ---------------------------------------------------------------- reports

def _geo_cdf_table(law, empirical=None):
    """Rows (k, predicted[, empirical]) across the informative probability range."""
    k = law.servers
    while law.cdf(k) < CDF_PROB_FLOOR:
        k += 1
    rows = []
    while True:
        predicted = law.cdf(k)
        row = [k, predicted]
        if empirical is not None:
            row.append(float(empirical.evaluate(k)))
        rows.append(row)
        if predicted >= 1.0 - CDF_PROB_FLOOR:
            break
        k += 1
    return rows


def _analyze_geo_report(params, n):
    analysis = analyze_geo(params)
    law = max_length_law(analysis, n)
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
    return report, _geo_cdf_table(law), ["k", "predicted"]


def _mm_cdf_grid(params, n):
    """y grid covering the single-server maximum-wait law up to its far tail."""
    asym_rate = params.lam * (1.0 - params.rho_single) ** 2
    y_hi = (np.log(asym_rate * n) - np.log(-np.log(1.0 - 1e-6))) * \
        1.0 / (params.mu - params.lam)
    return np.linspace(0.0, max(y_hi, 1.0), CDF_POINTS)


def _analyze_mm_report(params, n):
    report = {
        "target": "mm",
        "params": {"lambda": params.lam, "mu": params.mu, "c": params.c,
                   "rho_single_server": params.rho_single,
                   "rho_per_server": params.utilization},
        "n": n,
        "mean_wait": {"queue": mean_wait(params, "queue"),
                      "system": mean_wait(params, "system")},
    }
    rows, header = [], ["y", "predicted_sys", "predicted_que"]
    if params.c == 1:
        report["max_wait"] = {
            "available": True,
            "expected_max_sys": expected_max_wait_mm1(params, "system", n),
            "expected_max_que": expected_max_wait_mm1(params, "queue", n),
            "slope": 1.0 / (params.mu - params.lam),
        }
        for y in _mm_cdf_grid(params, n):
            rows.append([float(y),
                         max_wait_cdf_mm1(params, "system", n, float(y)),
                         max_wait_cdf_mm1(params, "queue", n, float(y))])
    else:
        report["max_wait"] = {
            "available": False,
            "note": "no analytic maximum-wait formulas for c >= 2; use simulate or compare",
        }
    return report, rows, header


def _simulate_geo(params, n, reps, seed, threads):
    result = replicate_max_length(GeoSimConfig(params, n, reps, seed), threads=threads)
    report = {
        "target": "geo",
        "params": {"p": params.p, "r": params.r, "c": params.c},
        "n": n, "reps": reps, "seed": seed,
        "prng": {"algorithm": PRNG_ALGORITHM, "substreams": SEED_DERIVATION},
        "max_length": {
            "mean": result.mean,
            "se": result.se,
            "min": int(result.samples.min()),
            "max": int(result.samples.max()),
        },
    }
    samples_rows = [[i, int(result.seeds[i]), int(result.samples[i])] for i in range(reps)]
    cdf_rows = [[float(v), float(prob)]
                for v, prob in zip(result.ecdf.values, result.ecdf.probabilities)]
    return report, result, samples_rows, ["replication", "seed", "max_length"], cdf_rows


def _simulate_mm(params, n, reps, seed, threads):
    result = replicate_wait_maxima(MMSimConfig(params, n, reps, seed), threads=threads)
    report = {
        "target": "mm",
        "params": {"lambda": params.lam, "mu": params.mu, "c": params.c},
        "n": n, "reps": reps, "seed": seed,
        "prng": {"algorithm": PRNG_ALGORITHM, "substreams": SEED_DERIVATION,
                 "exponentials": EXPONENTIAL_METHOD},
        "max_sys": {"mean": result.max_sys.mean, "se": result.max_sys.se},
        "max_que": {"mean": result.max_que.mean, "se": result.max_que.se},
        "mean_sys": {"pooled": result.pooled_mean_sys, "per_rep_mean": result.mean_sys.mean},
        "mean_que": {"pooled": result.pooled_mean_que, "per_rep_mean": result.mean_que.mean},
        "customers": int(result.customers.sum()),
    }
    samples_rows = [
        [i, int(result.max_sys.seeds[i]),
         repr(float(result.max_sys.samples[i])), repr(float(result.max_que.samples[i])),
         repr(float(result.mean_sys.samples[i])), repr(float(result.mean_que.samples[i])),
         int(result.customers[i])]
        for i in range(reps)
    ]
    header = ["replication", "seed", "max_sys", "max_que", "mean_sys", "mean_que", "customers"]
    cdf_rows = [[float(v), float(prob)]
                for v, prob in zip(result.max_sys.ecdf.values, result.max_sys.ecdf.probabilities)]
    return report, result, samples_rows, header, cdf_rows


def _compare_geo(params, n, reps, seed, threads):
    analysis = analyze_geo(params)
    law = max_length_law(analysis, n)
    sim_report, result, samples_rows, samples_header, _ = _simulate_geo(
        params, n, reps, seed, threads)
    fit = gumbel_fit_two_moment(result.samples) if result.samples.std() > 0 else None
    distance = ks_distance(result.ecdf, law.cdf, lattice=True)
    report = {
        "target": "geo",
        "params": sim_report["params"],
        "n": n, "reps": reps, "seed": seed,
        "prng": sim_report["prng"],
        "analytic": {
            "omega": analysis.omega,
            "beta": analysis.beta,
            "slope": law.slope,
            "intercept": law.intercept,
            "expected_max": law.mean(),
            "mean_queue_length": analysis.mean_queue_length,
        },
        "empirical": {
            "mean_max": result.mean,
            "se": result.se if reps > 1 else None,
            "gumbel_fit": {"location": fit.location, "scale": fit.scale} if fit else None,
        },
        "ks_distance": distance,
    }
    cdf_rows = _geo_cdf_table(law, empirical=result.ecdf)
    return report, samples_rows, samples_header, cdf_rows, ["k", "predicted", "empirical"]


def _compare_mm(params, n, reps, seed, threads):
    sim_report, result, samples_rows, samples_header, _ = _simulate_mm(
        params, n, reps, seed, threads)
    report = {
        "target": "mm",
        "params": sim_report["params"],
        "n": n, "reps": reps, "seed": seed,
        "prng": sim_report["prng"],
        "empirical": {
            "mean_max_sys": result.max_sys.mean,
            "se_max_sys": result.max_sys.se if reps > 1 else None,
            "mean_max_que": result.max_que.mean,
            "se_max_que": result.max_que.se if reps > 1 else None,
            "pooled_mean_que": result.pooled_mean_que,
        },
        "mean_wait_analytic": {"queue": mean_wait(params, "queue"),
                               "system": mean_wait(params, "system")},
    }
    fits = {}
    for label, sim in (("sys", result.max_sys), ("que", result.max_que)):
        fits[label] = gumbel_fit_two_moment(sim.samples) if sim.samples.std() > 0 else None
    report["empirical"]["gumbel_fit_sys"] = (
        {"location": fits["sys"].location, "scale": fits["sys"].scale} if fits["sys"] else None)
    report["empirical"]["gumbel_fit_que"] = (
        {"location": fits["que"].location, "scale": fits["que"].scale} if fits["que"] else None)

    if params.c == 1:
        report["analytic"] = {
            "expected_max_sys": expected_max_wait_mm1(params, "system", n),
            "expected_max_que": expected_max_wait_mm1(params, "queue", n),
        }
        report["ks_reference"] = "analytic"
        ks_sys = ks_distance(result.max_sys.ecdf,
                             lambda y: max_wait_cdf_mm1(params, "system", n, y))
        ks_que = ks_distance(result.max_que.ecdf,
                             lambda y: max_wait_cdf_mm1(params, "queue", n, y))
        predict_sys = lambda y: max_wait_cdf_mm1(params, "system", n, y)
        predict_que = lambda y: max_wait_cdf_mm1(params, "queue", n, y)
    else:
        report["analytic"] = None
        report["ks_reference"] = "gumbel_fit"
        ks_sys = ks_distance(result.max_sys.ecdf, fits["sys"].cdf) if fits["sys"] else None
        ks_que = ks_distance(result.max_que.ecdf, fits["que"].cdf) if fits["que"] else None
        predict_sys = fits["sys"].cdf if fits["sys"] else (lambda y: float("nan"))
        predict_que = fits["que"].cdf if fits["que"] else (lambda y: float("nan"))
    report["ks_distance_sys"] = ks_sys
    report["ks_distance_que"] = ks_que

    lo = 0.0
    hi = float(max(result.max_sys.samples.max(), result.max_que.samples.max())) * 1.05
    grid = np.linspace(lo, max(hi, 1.0), CDF_POINTS)
    cdf_rows = [[float(y),
                 float(predict_sys(float(y))), float(result.max_sys.ecdf.evaluate(y)),
                 float(predict_que(float(y))), float(result.max_que.ecdf.evaluate(y))]
                for y in grid]
    header = ["y", "predicted_sys", "empirical_sys", "predicted_que", "empirical_que"]
    return report, samples_rows, samples_header, cdf_rows, header


# ---------------------------------------------------------------- file output

def _atomic_write(path: Path, text: str) -> None:
    """Write via a temp file unique to this call, so concurrent runs never share one."""
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header, rows) -> str:
    def cell(value):
        text = value if isinstance(value, str) else repr(value) if isinstance(value, float) else str(value)
        if any(ch in text for ch in ",\"\n"):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_outputs(out_dir: Path, fmt: str, report, manifest,
                   samples=None, cdf=None) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        _atomic_write(out_dir / "summary.json", json.dumps(report, indent=2) + "\n")
        written.append("summary.json")
    if fmt in ("csv", "both"):
        if samples is not None:
            header, rows = samples
            _atomic_write(out_dir / "samples.csv", _csv_text(header, rows))
            written.append("samples.csv")
        if cdf is not None:
            header, rows = cdf
            _atomic_write(out_dir / "cdf.csv", _csv_text(header, rows))
            written.append("cdf.csv")
    manifest = dict(manifest, outputs=written + ["manifest.json"])
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    written.append("manifest.json")
    return written


def _manifest(args, argv, seed, duration) -> dict:
    params = {key: getattr(args, key) for key in ("p", "r", "lam", "mu", "c", "n")
              if getattr(args, key, None) is not None}
    prng = {"algorithm": PRNG_ALGORITHM, "substreams": SEED_DERIVATION}
    if args.target == "mm":
        prng["exponentials"] = EXPONENTIAL_METHOD
    return {
        "command_line": argv,
        "command": args.command,
        "target": args.target,
        "parameters": params,
        "reps": getattr(args, "reps", None),
        "master_seed": seed,
        "prng": prng,
        "version": __version__,
        "duration_seconds": duration,
    }


def _print_headline(report) -> None:
    skip = {"prng", "params"}
    flat = {k: v for k, v in report.items() if not isinstance(v, (dict, list)) and k not in skip}
    for key, value in flat.items():
        print(f"{key}: {value}")


# ---------------------------------------------------------------- entry points

def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()

    seed = _resolve_seed(args) if hasattr(args, "seed") else None
    threads = getattr(args, "threads", 1)
    if threads < 1:
        raise RangeError(f"--threads must be at least 1, got {threads}")

    samples_pack = None
    cdf_pack = None
    if args.command == "analyze":
        if args.target == "geo":
            report, cdf_rows, cdf_header = _analyze_geo_report(_geo_params(args), _geo_horizon(args))
        else:
            report, cdf_rows, cdf_header = _analyze_mm_report(_mm_params(args), float(args.n))
        cdf_pack = (cdf_header, cdf_rows) if cdf_rows else None
    elif args.command == "simulate":
        if getattr(args, "reps", 1) < 1:
            raise RangeError(f"--reps must be at least 1, got {args.reps}")
        if args.target == "geo":
            report, _, rows, header, cdf_rows = _simulate_geo(
                _geo_params(args), _geo_horizon(args), args.reps, seed, threads)
        else:
            report, _, rows, header, cdf_rows = _simulate_mm(
                _mm_params(args), float(args.n), args.reps, seed, threads)
        samples_pack = (header, rows)
        cdf_pack = (["value", "empirical"], cdf_rows)
    else:  # compare
        if getattr(args, "reps", 1) < 1:
            raise RangeError(f"--reps must be at least 1, got {args.reps}")
        if args.target == "geo":
            report, rows, header, cdf_rows, cdf_header = _compare_geo(
                _geo_params(args), _geo_horizon(args), args.reps, seed, threads)
        else:
            report, rows, header, cdf_rows, cdf_header = _compare_mm(
                _mm_params(args), float(args.n), args.reps, seed, threads)
        samples_pack = (header, rows)
        cdf_pack = (cdf_header, cdf_rows)

    duration = time.perf_counter() - started
    manifest = _manifest(args, list(argv), seed, duration)

    if args.out is None and args.command == "analyze":
        print(json.dumps(report, indent=2))
        return EXIT_OK
    out_dir = args.out if args.out is not None else Path("queuemax_out")
    written = _write_outputs(out_dir, args.format, report, manifest,
                             samples=samples_pack, cdf=cdf_pack)
    _print_headline(report)
    print(f"wrote {', '.join(written)} to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except QueueMaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def console_main() -> None:
    sys.exit(main())

"""Command-line surface: reports, file outputs, determinism, exit codes."""
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import queuemax
from queuemax import (ECDF, HeuristicRangeWarning, MaxLengthLaw, RangeError, StabilityError,
                      summarize, validate_mm_params)
from queuemax.cli import (CDF_POINTS, CDF_PROB_FLOOR, _atomic_write, _cdf_pack, _geo_cdf_table,
                          build_parser, console_main, main, parse_number)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParsing:
    def test_fractions_parse_exactly(self):
        assert parse_number("1/3") == 1 / 3
        assert parse_number("0.25") == 0.25

    def test_bad_number_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_number("abc")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_number("1/0")


MODEL_FLAGS = {"geo": ["--p", "1/3", "--r", "1/6"], "mm": ["--lambda", "1/3", "--mu", "1/2"]}


def readme_commands():
    """Every `queuemax ...` line of README.md's sh blocks, continuations joined, split."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("queuemax ")]


class TestTargetParsers:
    """One parser per (command, target), holding only that target's model flags."""

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    @pytest.mark.parametrize("target", ["geo", "mm"])
    def test_help_lists_only_the_target_flags(self, command, target, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, target, "-h"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        sim = [] if command == "analyze" else ["--reps", "--seed"]
        own = ["--help", *MODEL_FLAGS[target][::2], "--c", "--n", "--out", *sim]
        assert set(re.findall(r"--\w+", out)) == set(own)
        assert ("time steps" if target == "geo" else "interval length") in out

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    @pytest.mark.parametrize("target,foreign", [("geo", ["--lambda", "5"]),
                                                ("mm", ["--p", "0.3"])])
    def test_foreign_model_flag_is_a_usage_error(self, command, target, foreign, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([command, target, *MODEL_FLAGS[target], *foreign, "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: queuemax {command} {target} " in err
        assert (f"queuemax {command} {target}: error: unrecognized arguments: "
                f"{' '.join(foreign)}") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    @pytest.mark.parametrize("target", ["geo", "mm"])
    def test_out_alone_decides_what_is_written(self, command, target, tmp_path,
                                               monkeypatch, capsys):
        # without --out: summary.json on stdout and nothing on disk; with it: the files
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        reps = [] if command == "analyze" else ["--reps", "4", "--seed", "3"]
        argv = [command, target, *MODEL_FLAGS[target], "--c", "3", "--n", "100", *reps]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == printed.encode()
        files = read_json(out / "manifest.json")["outputs"]
        assert sorted(path.name for path in out.iterdir()) == sorted(files)
        assert capsys.readouterr().out.endswith(f"wrote {', '.join(files)} to {out}\n")
        assert not any(cwd.iterdir())

    def test_readme_commands_parse(self):
        # parsing only: a flag the parsers no longer take cannot stay in the README
        commands = readme_commands()
        assert {argv[1] for argv in commands} == {"analyze", "simulate", "compare"}
        for argv in commands:
            try:
                _, unknown = build_parser().parse_known_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")
            assert unknown == [], shlex.join(argv)

    def test_options_before_the_target_do_not_parse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", *MODEL_FLAGS["geo"], "geo"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("target,keys", [("geo", {"p", "r", "c", "n"}),
                                             ("mm", {"lam", "mu", "c", "n"})])
    def test_manifest_records_only_the_target_parameters(self, command, target, keys,
                                                         tmp_path, capsys):
        reps = [] if command == "analyze" else ["--reps", "3"]
        assert main([command, target, *MODEL_FLAGS[target], "--c", "3", "--n", "100", *reps,
                     "--out", str(tmp_path)]) == 0
        assert set(read_json(tmp_path / "manifest.json")["parameters"]) == keys


class TestAnalyze:
    def test_geo_reference_report(self, capsys):
        code = main(["analyze", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                     "--n", "100000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["omega"] == pytest.approx(0.5744080010, abs=1e-8)
        assert report["beta"] == pytest.approx(0.0841657058, abs=1e-8)
        assert report["pi"]["pi_c"] == pytest.approx(0.1777380492, abs=1e-8)
        assert report["max_length"]["slope"] == pytest.approx(1.8037019224, abs=1e-8)
        assert report["mean_queue_length"] == pytest.approx(2.56365, abs=1e-4)

    def test_mm_reference_report(self, capsys):
        code = main(["analyze", "mm", "--lambda", "1/3", "--mu", "0.5", "--c", "1",
                     "--n", "20000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_wait"]["expected_max_sys"] == pytest.approx(43.109, abs=1e-3)
        assert report["max_wait"]["expected_max_que"] == pytest.approx(40.676, abs=1e-3)
        assert report["mean_wait"]["queue"] == pytest.approx(4.0, abs=1e-9)

    def test_mm_multi_server_reports_no_max_formula(self, capsys):
        code = main(["analyze", "mm", "--lambda", "1/3", "--mu", "1/4", "--c", "2",
                     "--n", "20000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_wait"]["available"] is False
        assert report["mean_wait"]["queue"] == pytest.approx(3.2, abs=1e-9)

    def test_mm_four_servers_analyze_and_compare(self, tmp_path, capsys):
        args = ["mm", "--lambda", "1.6", "--mu", "1/2", "--c", "4", "--n", "200"]
        assert main(["analyze"] + args + ["--out", str(tmp_path / "a")]) == 0
        assert main(["compare"] + args + ["--reps", "20", "--seed", "4",
                                          "--out", str(tmp_path / "c")]) == 0
        report = read_json(tmp_path / "a" / "summary.json")
        assert report["mean_wait"]["queue"] == pytest.approx(1.4910811794685117, rel=1e-12)
        compared = read_json(tmp_path / "c" / "summary.json")
        assert compared["mean_wait_analytic"] == report["mean_wait"]

    def test_unstable_parameters_exit_2(self, capsys):
        code = main(["analyze", "geo", "--p", "0.9", "--r", "0.2", "--c", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unstable" in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_missing_parameter_exit_2(self, capsys):
        # a usage error: argparse exits 2 and names the flag
        for argv, flag in ((["geo", "--p", "0.3"], "--r"), (["mm", "--mu", "2"], "--lambda")):
            with pytest.raises(SystemExit) as info:
                main(["analyze", *argv])
            assert info.value.code == 2
            assert f"required: {flag}" in capsys.readouterr().err

    def test_geo_horizon_must_be_integer(self, capsys):
        code = main(["analyze", "geo", "--p", "0.3", "--r", "0.2", "--c", "3",
                     "--n", "10.5"])
        assert code == 2

    def test_writes_files_when_out_given(self, tmp_path):
        out = tmp_path / "report"
        code = main(["analyze", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                     "--n", "1000", "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "cdf.csv").exists()
        assert (out / "manifest.json").exists()
        header, rows = read_csv(out / "cdf.csv")
        assert header == ["k", "predicted"]
        probs = [float(row[1]) for row in rows]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.999

    def test_no_partial_files_on_success(self, tmp_path):
        out = tmp_path / "clean"
        main(["analyze", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
              "--n", "1000", "--out", str(out)])
        leftovers = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []


def scanned_cdf_table(law):
    """The CDF table row by row: from the first k >= servers whose CDF reaches
    the floor, up to and including the first whose CDF reaches 1 - floor."""
    k = law.servers
    while law.cdf(k) < CDF_PROB_FLOOR:
        k += 1
    rows = [(k, law.cdf(k))]
    while rows[-1][1] < 1.0 - CDF_PROB_FLOOR:
        k += 1
        rows.append((k, law.cdf(k)))
    return rows


def table_rows(law, **columns):
    """The rows cdf.csv gets from _geo_cdf_table's levels: (k, predicted[, ...])."""
    return _cdf_pack("k", _geo_cdf_table(law), {"predicted": law.cdf, **columns})[1]


def thinned(rows):
    """The scan as the table caps it: every stride-th row from the first, plus the last,
    with the smallest stride that leaves at most CDF_POINTS rows."""
    stride = max(1, -(-(len(rows) - 1) // (CDF_POINTS - 1)))
    return rows[:-1:stride] + rows[-1:]


class TestGeoCdfTable:
    @pytest.mark.parametrize("omega,beta,n,servers", [
        (0.5744080010, 0.07, 1e4, 3),
        (0.5, 1.0, 1e5, 1),
        (0.9, 0.01, 1e5, 2),
        (0.999, 0.3, 1e6, 1),        # heavy traffic: a scan of about 24000 rows
        (1.0 - 1e-12, 1e-15, 1e5, 1),  # one row
        (0.5, 5e-324, 1.0, 1),        # beta at the bottom of the doubles
        (1e-300, 1e300, 1e5, 3),
        (0.5, 1326.28901356457, 1.0, 1),  # the log estimate of the first row is one too high
    ])
    def test_matches_thinned_row_by_row_scan(self, omega, beta, n, servers):
        law = MaxLengthLaw(omega, beta, n, servers)
        scan = scanned_cdf_table(law)
        table = table_rows(law)
        assert table == thinned(scan)
        assert len(table) <= CDF_POINTS
        assert (table[0], table[-1]) == (scan[0], scan[-1])
        if len(scan) <= CDF_POINTS:
            assert table == scan

    @pytest.mark.parametrize("omega,beta,n,servers", [
        (1.0 - 1e-9, 1e-10, 1e5, 1),  # a scan of about 2.4e10 rows
        (0.9999999, 0.3, 1e6, 3),
    ])
    def test_heavy_traffic_table_capped_at_scan_ends(self, omega, beta, n, servers):
        # too long to scan: each end is the first k past its level
        law = MaxLengthLaw(omega, beta, n, servers)
        table = table_rows(law)
        assert len(table) == CDF_POINTS
        (low, first), (high, last) = table[0], table[-1]
        assert first >= CDF_PROB_FLOOR and (low == servers or law.cdf(low - 1) < CDF_PROB_FLOOR)
        assert last >= 1.0 - CDF_PROB_FLOOR > law.cdf(high - 1)
        steps = {b[0] - a[0] for a, b in zip(table[:-2], table[1:-1])}
        assert len(steps) == 1 and 0 < high - table[-2][0] <= steps.pop()

    def test_empirical_column(self):
        law = MaxLengthLaw(0.5, 1.0, 1e3, 1)
        ecdf = ECDF.from_samples([9, 10, 10, 12])
        rows = table_rows(law, empirical=ecdf.evaluate)
        assert [row[:2] for row in rows] == scanned_cdf_table(law)
        assert [row[2] for row in rows] == [ecdf.evaluate(row[0]) for row in rows]


class TestAtomicWrite:
    def test_concurrent_writers_into_one_path(self, tmp_path):
        target = tmp_path / "summary.json"
        texts = [f"writer {i}\n" * (2000 + i) for i in range(8)]
        errors = []
        deadline = time.monotonic() + 1.0

        def writer(text):
            try:
                while time.monotonic() < deadline:
                    _atomic_write(target, text)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(text,)) for text in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert target.read_text() in texts
        assert [path.name for path in tmp_path.iterdir()] == ["summary.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("synthetic rename failure")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            _atomic_write(tmp_path / "summary.json", "text\n")
        assert list(tmp_path.iterdir()) == []

    def test_permissions_match_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("text\n")
        _atomic_write(tmp_path / "atomic.txt", "text\n")
        assert (tmp_path / "atomic.txt").stat().st_mode == plain.stat().st_mode


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                "--n", "500", "--reps", "60", "--seed", "7"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()

    def test_summary_round_trips_from_samples(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                     "--n", "400", "--reps", "80", "--seed", "3",
                     "--out", str(out)]) == 0
        report = read_json(out / "summary.json")
        _, rows = read_csv(out / "samples.csv")
        samples = np.array([int(row[2]) for row in rows])
        recomputed = summarize(samples)
        assert recomputed.mean == report["max_length"]["mean"]
        assert recomputed.se == report["max_length"]["se"]

    def test_mm_summary_round_trips_from_samples(self, tmp_path, capsys):
        out = tmp_path / "runmm"
        assert main(["simulate", "mm", "--lambda", "1/3", "--mu", "1/4", "--c", "2",
                     "--n", "200", "--reps", "50", "--seed", "5",
                     "--out", str(out)]) == 0
        report = read_json(out / "summary.json")
        _, rows = read_csv(out / "samples.csv")
        max_sys = np.array([float(row[2]) for row in rows])
        assert summarize(max_sys).mean == report["max_sys"]["mean"]
        assert summarize(max_sys).se == report["max_sys"]["se"]

    @pytest.mark.parametrize("args,keys", [
        (["geo", "--p", "1/3", "--r", "1/6", "--c", "3", "--n", "500"], ["max_length"]),
        (["mm", "--lambda", "1/3", "--mu", "1/4", "--c", "2", "--n", "200"],
         ["max_sys", "max_que"])])
    def test_single_replication_reports_no_se(self, tmp_path, capsys, args, keys):
        # one maximum has no spread to estimate, so se is null, as compare reports it
        assert main(["simulate", *args, "--reps", "1", "--seed", "2",
                     "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "summary.json")
        assert [report[key]["se"] for key in keys] == [None] * len(keys)

    def test_manifest_replays_identically(self, tmp_path, capsys):
        out = tmp_path / "orig"
        args = ["simulate", "mm", "--lambda", "0.5", "--mu", "1.0", "--c", "1",
                "--n", "100", "--reps", "30", "--seed", "11", "--out", str(out)]
        assert main(args) == 0
        manifest = read_json(out / "manifest.json")
        replay_out = tmp_path / "replay"
        replay = ["simulate", manifest["target"],
                  "--lambda", repr(manifest["parameters"]["lam"]),
                  "--mu", repr(manifest["parameters"]["mu"]),
                  "--c", str(manifest["parameters"]["c"]),
                  "--n", repr(manifest["parameters"]["n"]),
                  "--reps", str(manifest["reps"]),
                  "--seed", str(manifest["master_seed"]),
                  "--out", str(replay_out)]
        assert main(replay) == 0
        assert (out / "samples.csv").read_bytes() == (replay_out / "samples.csv").read_bytes()

    def test_manifest_names_each_stream(self, tmp_path, capsys):
        """geo records its increment decoding; the mm block is as it was before geo's."""
        geo, mm = tmp_path / "geo", tmp_path / "mm"
        assert main(["simulate", "geo", "--p", "0.2", "--r", "0.3", "--c", "2", "--n", "100",
                     "--reps", "5", "--out", str(geo)]) == 0
        assert main(["simulate", "mm", "--lambda", "0.2", "--mu", "0.3", "--c", "2",
                     "--n", "100", "--reps", "5", "--out", str(mm)]) == 0
        substreams = "splitmix64(master_seed, replication_index)"
        want_geo = {"algorithm": "PCG64", "substreams": substreams,
                    "increments": "one uniform per slot, inverse CDF from +1 down"}
        assert read_json(geo / "manifest.json")["prng"] == want_geo
        assert read_json(geo / "summary.json")["prng"] == want_geo
        assert read_json(mm / "manifest.json")["prng"] == {
            "algorithm": "PCG64", "substreams": substreams,
            "exponentials": "inverse CDF: -log1p(-U)/mu"}

    def test_random_seed_opt_in(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        args = ["simulate", "geo", "--p", "0.2", "--r", "0.3", "--c", "1",
                "--n", "300", "--reps", "20", "--seed", "random"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        # two entropy-seeded runs almost surely differ
        assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()

    def test_format_option_is_gone(self, tmp_path, capsys):
        out = tmp_path / "jsononly"
        with pytest.raises(SystemExit) as info:
            main(["simulate", "geo", "--p", "0.2", "--r", "0.3", "--c", "1",
                  "--n", "100", "--reps", "10", "--format", "json", "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                  "--n", "300", "--reps", "40", "--threads", "2"])
        assert info.value.code == 2


class TestCompare:
    def test_geo_compare_report(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                     "--n", "1000", "--reps", "800", "--seed", "13",
                     "--out", str(out)]) == 0
        report = read_json(out / "summary.json")
        assert report["analytic"]["omega"] == pytest.approx(0.5744080010, abs=1e-8)
        assert 0.0 <= report["ks_distance"] <= 1.0
        assert report["empirical"]["gumbel_fit"]["scale"] > 0.0
        band = 3.0 * report["empirical"]["se"] + 0.35  # finite-n bias allowance
        assert abs(report["empirical"]["mean_max"]
                   - report["analytic"]["expected_max"]) < band
        header, rows = read_csv(out / "cdf.csv")
        assert header == ["k", "predicted", "empirical"]
        assert len(rows) > 3

    def test_mm_single_server_compare_within_band(self, tmp_path, capsys):
        out = tmp_path / "cmpmm"
        assert main(["compare", "mm", "--lambda", "1/3", "--mu", "0.5", "--c", "1",
                     "--n", "20000", "--reps", "300", "--seed", "21",
                     "--out", str(out)]) == 0
        report = read_json(out / "summary.json")
        se = report["empirical"]["se_max_sys"]
        assert abs(report["empirical"]["mean_max_sys"] - 43.109) < 3.0 * se + 0.3
        assert "ks_reference" not in report
        assert 0.0 <= report["ks_distance_sys"] <= 1.0
        header, _ = read_csv(out / "cdf.csv")
        assert header == ["y", "predicted_sys", "empirical_sys", "predicted_que", "empirical_que"]

    def test_mm_multi_server_compare_reports_only_the_fit(self, tmp_path, capsys):
        # no analytic law at c >= 2: a KS distance to a fit of the same sample would be circular
        out = tmp_path / "cmpmm2"
        assert main(["compare", "mm", "--lambda", "1/3", "--mu", "1/4", "--c", "2",
                     "--n", "500", "--reps", "60", "--seed", "23",
                     "--out", str(out)]) == 0
        report = read_json(out / "summary.json")
        assert report["analytic"] is None
        assert not [key for key in report if key.startswith("ks_")]
        for label in ("sys", "que"):
            fit = report["empirical"][f"gumbel_fit_{label}"]
            assert set(fit) == {"location", "scale"} and fit["scale"] > 0.0
        header, rows = read_csv(out / "cdf.csv")
        assert header == ["y", "empirical_sys", "empirical_que"]
        assert len(rows) == CDF_POINTS

    def test_compare_geo_warns_once_below_the_boundary(self, tmp_path, capsys):
        # the lattice KS grid starts at the lowest maximum less one: here k = 0, 1 and 2
        argv = ["compare", "geo", "--p", "0.05", "--r", "0.5", "--c", "3", "--n", "300",
                "--reps", "50", "--seed", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        below = [w for w in caught if issubclass(w.category, HeuristicRangeWarning)
                 and "below the 3-server boundary" in str(w.message)]
        assert len(below) == 1

    def test_compare_single_replication_reports_no_se(self, tmp_path, capsys):
        out = tmp_path / "cmp1"
        assert main(["compare", "geo", "--p", "0.2", "--r", "0.3", "--c", "1",
                     "--n", "200", "--reps", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        report = read_json(out / "summary.json")
        assert report["empirical"]["se"] is None


def _python(*args):
    """`python ARGS` in a fresh interpreter, with this checkout's package."""
    src = str(Path(queuemax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _cli_process(*argv):
    """`python -m queuemax.cli ARGV` in a fresh interpreter, with this checkout's package."""
    return _python("-m", "queuemax.cli", *argv)


# each costs every CLI launch time that only some commands need: numpy.random is loaded
# once a simulation builds its first generator, numpy.polynomial and secrets not at all
DEFERRED_MODULES = ("numpy.random", "numpy.polynomial", "secrets")
START_UP = f"""
import json, sys
import numpy  # numpy 1.x loads numpy.random itself; only what queuemax adds counts
before = set(sys.modules)
import queuemax.cli
queuemax.cli.build_parser()
print(json.dumps([m for m in {DEFERRED_MODULES!r} if m in sys.modules and m not in before]))
"""


def test_start_up_defers_unneeded_modules():
    run = _python("-c", START_UP)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert main(["analyze", "geo", "--p", "0.1", "--r", "0.2", "--c", "3"]) == 0

    @pytest.mark.parametrize("servers,code", [("3", 0), ("0", 2)])
    def test_console_entry_exits_with_main_code(self, servers, code, monkeypatch, capsys):
        argv = ["analyze", "geo", "--p", "0.1", "--r", "0.2", "--c", servers]
        assert main(argv) == code
        monkeypatch.setattr(sys, "argv", ["queuemax", *argv])
        with pytest.raises(SystemExit) as info:
            console_main()
        assert info.value.code == code

    def test_validation_is_two(self, capsys):
        assert main(["analyze", "mm", "--lambda", "2", "--mu", "0.5", "--c", "1"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("target", [["geo", "--p", "0.2", "--r", "0.3"],
                                        ["mm", "--lambda", "0.2", "--mu", "0.3"]])
    def test_zero_reps_is_two(self, command, target, tmp_path, capsys):
        code = main([command, *target, "--n", "50", "--reps", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "replication" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [["geo", "--p", "0.2", "--r", "0.3"],
                                        ["mm", "--lambda", "0.2", "--mu", "0.3"]])
    @pytest.mark.parametrize("seed", ["-1", "-5", str(2**64), str(2**65 - 5)])
    def test_seed_outside_64_bits_is_two(self, target, seed, tmp_path, capsys):
        # -5, 2**64 - 5 and 2**65 - 5 once ran the same streams under three manifests
        with pytest.raises(SystemExit) as info:
            main(["simulate", *target, "--n", "50", "--reps", "3", "--seed", seed,
                  "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "[0, 2**64)" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("target", [["geo", "--p", "0.2", "--r", "0.3"],
                                        ["mm", "--lambda", "0.2", "--mu", "0.3"]])
    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seed_at_64_bit_ends_runs(self, target, seed, tmp_path, capsys):
        assert main(["simulate", *target, "--n", "50", "--reps", "3", "--seed", seed,
                     "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "manifest.json")["master_seed"] == int(seed)

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    @pytest.mark.parametrize("target", [["geo", "--p", "0.2", "--r", "0.3"],
                                        ["mm", "--lambda", "0.2", "--mu", "0.3"]])
    @pytest.mark.parametrize("n", ["inf", "nan"])
    def test_non_finite_horizon_is_two(self, command, target, n, tmp_path, capsys):
        reps = [] if command == "analyze" else ["--reps", "5"]
        code = main([command, *target, "--n", n, *reps, "--out", str(tmp_path)])
        assert code == 2
        assert "--n must be" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    @pytest.mark.parametrize("rates", [["--lambda", "0.2", "--mu", "inf"],
                                       ["--lambda", "inf", "--mu", "inf"]])
    def test_non_finite_rate_is_two(self, command, rates, tmp_path, capsys):
        reps = [] if command == "analyze" else ["--reps", "5"]
        code = main([command, "mm", *rates, "--c", "1", "--n", "50", *reps,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_customer_count_past_poisson_limit_is_two(self, command, tmp_path, capsys):
        code = main([command, "mm", "--lambda", "1e308", "--mu", "1e308", "--c", "3",
                     "--n", "1", "--reps", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "Poisson limit" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_mm_servers_past_every_customer_run(self, command, tmp_path, capsys):
        # no run has more customers than servers, so nobody waits in the queue
        code = main([command, "mm", "--lambda", "1", "--mu", "1", "--c", str(2**62),
                     "--n", "20", "--reps", "3", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "samples.csv")
        assert [float(row[header.index("max_que")]) for row in rows] == [0.0] * 3

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_mm_servers_past_the_float_range_is_two(self, command, tmp_path, capsys):
        reps = [] if command == "analyze" else ["--reps", "3"]
        code = main([command, "mm", "--lambda", "1", "--mu", "1", "--c", str(10**400),
                     "--n", "20", *reps, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: server count of 1329 bits overflows a float")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_io_failure_is_four(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["simulate", "geo", "--p", "0.2", "--r", "0.3", "--c", "1",
                     "--n", "50", "--reps", "5", "--out", str(blocker)])
        assert code == 4

    def test_argparse_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "nowhere"])
        assert info.value.code == 2

    @pytest.mark.parametrize("error,code,prefix", [
        (queuemax.ConvergenceError, 3, "numeric failure"),
        (queuemax.SingularError, 3, "numeric failure"),
        (queuemax.BracketError, 3, "numeric failure"),
        (queuemax.DegenerateRootsError, 3, "numeric failure"),
        (RangeError, 2, "error"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_numeric_failure_is_three(self, error, code, prefix, capsys, monkeypatch):
        # every NumericError exits 3, whatever its other bases; a validation error exits 2
        import queuemax.cli as cli_module

        def explode(params):
            raise error("synthetic failure")

        monkeypatch.setattr(cli_module, "analyze_geo", explode)
        assert main(["analyze", "geo", "--p", "0.1", "--r", "0.2", "--c", "3"]) == code
        assert capsys.readouterr().err == f"{prefix}: synthetic failure\n"

    def test_module_entry_point(self):
        version = _cli_process("--version")
        assert version.returncode == 0
        assert version.stdout.strip() == f"queuemax {queuemax.__version__}"
        rejected = _cli_process("analyze", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                                "--n", "1")
        assert rejected.returncode == 2
        assert "n >= 2" in rejected.stderr

    def test_warning_prints_one_line_like_an_error(self):
        # outside pytest's warnings-as-errors filters, as a user runs it
        run = _cli_process("analyze", "mm", "--lambda", "1e-300", "--mu", "2", "--c", "1",
                           "--n", "10")
        assert run.returncode == 2
        warning, error = run.stderr.splitlines()
        assert warning == ("warning: expected maximum wait evaluated at A*n=1e-299 < 1; "
                           "the asymptotic approximation is unreliable there")
        assert error.startswith("error: ")


class TestAnalyticEdges:
    @pytest.mark.parametrize("argv,section,key", [
        (["geo", "--p", "0.5", "--r", "0.5000000001", "--c", "1", "--n", "1e6"],
         "max_length", "expected_max"),  # beta * n = 4e-14: -7.6e10
        (["mm", "--lambda", "1", "--mu", "2", "--c", "1", "--n", "1e-300"],
         "max_wait", "expected_max_que"),  # A * n = 1.25e-301: -692
    ])
    def test_negative_expected_maximum_warns_and_exits_0(self, argv, section, key, tmp_path,
                                                         capsys):
        with pytest.warns(HeuristicRangeWarning):
            assert main(["analyze", *argv, "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "summary.json")[section][key] < 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rate_constant_exits_2_without_numpy_warnings(self, tmp_path, capsys):
        # A*n = 2.5e199 * 1e200 is past the float range: no CDF grid is built
        code = main(["analyze", "mm", "--lambda", "1e200", "--mu", "2e200", "--c", "1",
                     "--n", "1e200", "--out", str(tmp_path)])
        assert code == 2
        assert "overflows" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_rate_constant_gives_the_unit_grid(self, tmp_path, capsys):
        # A*n = 1.25e-301 * 1e-300 underflows to 0: the law is 1 from y = 0 on
        with pytest.warns(HeuristicRangeWarning):
            code = main(["analyze", "mm", "--lambda", "5e-301", "--mu", "1e-300", "--c", "1",
                         "--n", "1e-300", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "cdf.csv")
        ys = [float(row[0]) for row in rows]
        assert (ys[0], ys[-1], len(ys)) == (0.0, 1.0, CDF_POINTS)
        assert {row[1] for row in rows} == {row[2] for row in rows} == {"1.0"}

    def test_boundary_mass_of_one_analyzes(self, capsys):
        with pytest.warns(HeuristicRangeWarning):  # beta * n = 1e-13 at the default n
            assert main(["analyze", "geo", "--p", "1e-17", "--r", "0.5", "--c", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["pi"]["boundary"] == [1.0]


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


MM_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)  # log-uniform


@settings(max_examples=300, deadline=None)
@given(c=st.integers(1, 4), mu=MM_SCALE, n=MM_SCALE,
       load=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(c=1, mu=2.0, n=10.0, load=0.5e-300)  # lambda = 1e-300: the queue-wait constant underflows
@example(c=1, mu=2e200, n=1e200, load=0.5)  # A*n overflows
@example(c=4, mu=1e-300, n=1.0, load=1 - 2**-53)  # the mean wait overflows
def test_analyze_mm_reports_finite_numbers_or_exits_2(c, mu, n, load):
    """`analyze mm` on every stable input: exit 0 with finite report numbers and a
    cdf.csv free of nan, or exit 2 with one of the library's typed errors."""
    lam = load * c * mu
    try:
        validate_mm_params(lam, mu, c)
    except (RangeError, StabilityError):
        assume(False)
    argv = ["analyze", "mm", "--lambda", repr(lam), "--mu", repr(mu), "--c", str(c),
            "--n", repr(n)]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore", HeuristicRangeWarning)
        code = main(argv + ["--out", tmp])
        out = Path(tmp)
        if code == 2:
            assert stderr.getvalue().startswith("error: ")
            assert not any(out.iterdir())
            return
        assert code == 0
        assert _finite_numbers(read_json(out / "summary.json"))
        if c == 1:
            _, rows = read_csv(out / "cdf.csv")
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)

"""The bytes of every CLI report, pinned per (command, target).

`data/cli_golden.json` holds the exit code and the sha256 of `summary.json`,
`samples.csv` and `cdf.csv` (null when a command writes no such file) for
analyze, simulate and compare on both targets, plus heavy-traffic
`analyze geo` points with capped CDF tables and compare runs whose samples
admit no standard error or Gumbel fit. A refactor of the report builders,
the CDF tables or the CSV writer must leave every byte in place.
`manifest.json` is left out: it records a duration and the output path.
Each case, and each help, version and usage-error command line, also runs on
both parse routes (a pair's own parser, the full tree), which must give the
same exit code, stdout, stderr and files.
Regenerate the file after a deliberate output change with
`PYTHONPATH=src python tests/test_cli_golden.py`, which prints each case whose
exit code or digests moved from the recorded file, with what moved.
"""
import hashlib
import json
from pathlib import Path

import pytest

from queuemax import cli
from queuemax.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FILES = ("summary.json", "samples.csv", "cdf.csv")
GEO = {1: ["--p", "1/3", "--r", "1/2", "--c", "1"], 3: ["--p", "1/3", "--r", "1/6", "--c", "3"]}
MM = {1: ["--lambda", "1/3", "--mu", "1/2", "--c", "1"],
      2: ["--lambda", "1/3", "--mu", "1/4", "--c", "2"],
      3: ["--lambda", "1/3", "--mu", "1/6", "--c", "3"]}
SIM = {"geo": ["--n", "2000", "--reps", "64", "--seed", "17"],
       "mm": ["--n", "500", "--reps", "12", "--seed", "19"]}


def _heavy_geo(c, r, load):
    return ["analyze", "geo", "--p", repr(load * c * r), "--r", repr(r), "--c", str(c),
            "--n", "100000"]


def _cases():
    for command in ("analyze", "simulate", "compare"):
        for target, flags in (("geo", GEO), ("mm", MM)):
            for c, params in flags.items():
                extra = SIM[target] if command != "analyze" else SIM[target][:2]
                yield [command, target, *params, *extra]
    yield _heavy_geo(2, 0.2, 0.999)
    yield _heavy_geo(2, 0.2, 0.9999)  # a scan of 92788 CDF rows, capped at 201
    yield _heavy_geo(1, 0.1, 0.999)  # small slack c*r - p: omega = 0.99888901233196...
    yield ["compare", "geo", *GEO[3], "--n", "1", "--reps", "10"]  # exit 2, as analyze geo --n 1
    yield ["compare", "geo", *GEO[3], "--n", "300", "--reps", "1"]  # no SE, no Gumbel fit
    yield ["compare", "mm", *MM[2], "--n", "0.001", "--reps", "3"]  # all-zero maxima, no fit
    yield ["compare", "mm", *MM[1], "--n", "0.001", "--reps", "3"]  # all-zero maxima, c=1 law


def _run(argv, out):
    code = main(argv + ["--out", str(out)])
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               if (out / name).exists() else None for name in FILES}
    return {"argv": argv, "exit": code, "sha256": digests}


def _golden():
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())["cases"]}


@pytest.mark.filterwarnings("ignore::queuemax.HeuristicRangeWarning")
@pytest.mark.parametrize("argv", list(_cases()), ids=" ".join)
def test_outputs_match_recorded_bytes(argv, tmp_path, capsys):
    assert _run(argv, tmp_path) == _golden()[" ".join(argv)]


@pytest.mark.filterwarnings("ignore::queuemax.HeuristicRangeWarning")
@pytest.mark.parametrize("argv", list(_cases()), ids=" ".join)
def test_no_cdf_table_holds_nan(argv, tmp_path, capsys):
    main(argv + ["--out", str(tmp_path)])
    table = tmp_path / "cdf.csv"
    assert not table.exists() or "nan" not in table.read_text()


# command lines with no report: help, version and usage errors, on both parse routes
PAIRS = [[command, target] for command in ("analyze", "simulate", "compare")
         for target in ("geo", "mm")]
NO_REPORT = [
    *([*pair, "-h"] for pair in PAIRS),
    ["--version"],
    ["analyze", "geo", "--p", "1/3"],  # --r missing
    ["simulate", "mm", "--lambda", "1/3"],  # --mu missing
    ["compare", "mm", *MM[1], "--p", "0.3"],  # a flag of the other target
    ["analyze", "--p", "1/3", "--r", "1/6", "geo"],  # options before the target
    ["analyze"],
    ["analyze", "nope"],
    [],
]


def _outcome(argv, out, capsys):
    """Exit code, stdout, stderr and every file written, with the output path read as OUT."""
    try:
        code = main(argv if out is None else argv + ["--out", str(out)])
    except SystemExit as exc:  # help, version and usage errors leave through argparse
        code = exc.code
    printed = capsys.readouterr()
    files = {}
    if out is not None and out.exists():
        files = {path.name: path.read_bytes().replace(str(out).encode(), b"OUT")
                 for path in out.iterdir()}
    if "manifest.json" in files:
        files["manifest.json"] = json.loads(files["manifest.json"])
        del files["manifest.json"]["duration_seconds"]
    return code, printed.out.replace(str(out), "OUT"), printed.err, files


@pytest.mark.filterwarnings("ignore::queuemax.HeuristicRangeWarning")
@pytest.mark.parametrize("argv,writes", [
    *(pytest.param(argv, True, id=" ".join(argv)) for argv in _cases()),
    *(pytest.param(argv, False, id=" ".join(argv) or "no arguments") for argv in NO_REPORT)])
def test_both_parse_routes_agree(argv, writes, tmp_path, capsys, monkeypatch):
    # as shipped, a command line that starts with a (command, target) pair is parsed by that
    # pair's parser alone; with the leaf table emptied, every one goes through the full tree
    cli.build_parser()
    shipped = _outcome(argv, tmp_path / "leaf" if writes else None, capsys)
    monkeypatch.setattr(cli, "_LEAVES", {})
    tree = _outcome(argv, tmp_path / "tree" if writes else None, capsys)
    assert shipped == tree


@pytest.mark.parametrize("pair", PAIRS, ids=" ".join)
def test_only_a_command_line_without_a_pair_reaches_the_tree(pair, monkeypatch, capsys):
    parser = cli.build_parser()
    tree_calls = []
    parse = parser.parse_known_args

    def counted(*args):
        tree_calls.append(args)
        return parse(*args)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    for argv, code, calls in (([*pair, "-h"], 0, 0), (pair[:1], 2, 1)):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert (info.value.code, len(tree_calls)) == (code, calls)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    import warnings

    warnings.simplefilter("ignore")
    recorded = _golden() if GOLDEN.exists() else {}
    cases = []
    for argv in _cases():
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            case = _run(argv, Path(tmp))
        cases.append(case)
        old = recorded.get(" ".join(argv), {"exit": None, "sha256": {}})
        moved = ["exit"] if old["exit"] != case["exit"] else []
        moved += [name for name in FILES if old["sha256"].get(name) != case["sha256"][name]]
        if moved:
            print(f"{' '.join(argv)}: {', '.join(moved)}")
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")

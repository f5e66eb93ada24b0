"""The bytes of every CLI report, pinned per (command, target).

`data/cli_golden.json` holds the exit code and the sha256 of `summary.json`,
`samples.csv` and `cdf.csv` (null when a command writes no such file) for
analyze, simulate and compare on both targets, plus heavy-traffic
`analyze geo` points with capped CDF tables and compare runs whose samples
admit no standard error or Gumbel fit. A refactor of the report builders,
the CDF tables or the CSV writer must leave every byte in place.
`manifest.json` is left out: it records a duration and the output path.
Regenerate the file after a deliberate output change with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""
import hashlib
import json
from pathlib import Path

import pytest

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


if __name__ == "__main__":
    import tempfile
    import warnings

    warnings.simplefilter("ignore")
    cases = []
    for argv in _cases():
        with tempfile.TemporaryDirectory() as tmp:
            cases.append(_run(argv, Path(tmp)))
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")

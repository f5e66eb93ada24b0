"""The outputs of the continuous-time queue simulator, pinned bit for bit.

`data/mm_stream_golden.json` holds, per case, the sha256 of the
per-replication table of `replicate_wait_maxima`: one little-endian float64
row (max_sys, max_que, mean_sys, mean_que, customers) per replication. The
cases cover c = 1 at loads 0.05, 0.5, 0.9 and 0.99 over a short and a long
horizon, where busy periods run from one customer to thousands, and one
point each at c = 2 and c = 3. The hashes were first recorded with the
per-customer heap loop, before the single-server kernel folded busy periods
in numpy; any change to a kernel, the substream derivation or the draws
shows here. A deliberate stream change must be versioned in the run
manifest; regenerate the file then with
`PYTHONPATH=src python tests/test_mm_stream.py`, which computes every table
through the per-server scan `oracles.service_starts_by_server_scan`, not
through the kernels under test.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from queuemax import MMSimConfig, replicate_wait_maxima, validate_mm_params

GOLDEN = Path(__file__).parent / "data" / "mm_stream_golden.json"
MU = 0.5
HORIZONS = ((400.0, 24), (20000.0, 6))  # (n, reps)


def _cases():
    single = [(load * MU, MU, 1, n, reps)
              for load in (0.05, 0.5, 0.9, 0.99) for n, reps in HORIZONS]
    multi = [(1 / 3, 1 / 4, 2, 5000.0, 10), (1 / 3, 1 / 6, 3, 5000.0, 10)]
    for seed, case in enumerate(single + multi, 1100):
        yield *case, seed


def _table_sha256(lam, mu, c, n, reps, seed):
    result = replicate_wait_maxima(MMSimConfig(validate_mm_params(lam, mu, c), n, reps, seed))
    table = np.column_stack([result.max_sys.samples, result.max_que.samples,
                             result.mean_sys.samples, result.mean_que.samples,
                             result.customers.astype(np.float64)])
    return hashlib.sha256(np.ascontiguousarray(table, dtype="<f8").tobytes()).hexdigest()


def _golden():
    cases = json.loads(GOLDEN.read_text())["cases"]
    return {tuple(case["case"]): case["sha256"] for case in cases}


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: "lam={:.6g} mu={:.6g} c={} "
                         "n={:g} reps={} seed={}".format(*case))
def test_tables_match_recorded_stream(case):
    assert _table_sha256(*case) == _golden()[case]


if __name__ == "__main__":
    from unittest import mock

    from oracles import service_starts_by_server_scan
    from queuemax import mm_sim

    with mock.patch.object(mm_sim, "assign_service_starts", service_starts_by_server_scan):
        cases = [{"case": list(case), "sha256": _table_sha256(*case)} for case in _cases()]
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")

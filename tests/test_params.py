"""Parameter validation and the one-step increment law."""
import numpy as np
import pytest

from queuemax import (RangeError, StabilityError, UnsupportedError,
                      increment_distribution, validate_geo_params)


def stable_grid():
    """(p, r, c) triples across the stability region."""
    triples = []
    for c in (1, 2, 3):
        for p in np.linspace(0.1, 0.9, 5):
            for r in np.linspace(0.1, 0.9, 5):
                if p < c * r:
                    triples.append((float(p), float(r), c))
    return triples


class TestValidation:
    def test_paper_three_server_parameters(self):
        params = validate_geo_params(1 / 3, 1 / 6, 3)
        assert params.q == pytest.approx(2 / 3, abs=1e-15)
        assert params.s == pytest.approx(5 / 6, abs=1e-15)

    def test_fast_single_server(self):
        params = validate_geo_params(1 / 3, 1 / 2, 1)
        assert params.c == 1

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            validate_geo_params(0.9, 0.2, 3)  # 0.9 >= 3 * 0.2

    @pytest.mark.parametrize("p,r", [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5),
                                     (0.2, 0.0), (0.2, 1.0), (0.2, 1.3)])
    def test_out_of_range_rejected(self, p, r):
        with pytest.raises(RangeError):
            validate_geo_params(p, r, 3)

    @pytest.mark.parametrize("c", [0, 4, -1, 2.5])
    def test_unsupported_server_count(self, c):
        with pytest.raises(UnsupportedError):
            validate_geo_params(0.1, 0.5, c)

    def test_boundary_of_stability_rejected(self):
        with pytest.raises(StabilityError):
            validate_geo_params(0.5, 0.25, 2)  # exactly p == c*r


class TestIncrementDistribution:
    def test_fully_busy_three_servers_matches_polynomials(self):
        params = validate_geo_params(1 / 3, 1 / 6, 3)
        p, q, r, s = params.p, params.q, params.r, params.s
        law = increment_distribution(params)[3]
        expected = {
            -3: q * r**3,
            -2: p * r**3 + 3 * q * r**2 * s,
            -1: 3 * p * r**2 * s + 3 * q * r * s**2,
            0: 3 * p * r * s**2 + q * s**3,
            1: p * s**3,
        }
        for step, value in expected.items():
            assert law[3 + step] == pytest.approx(value, abs=1e-15)
        assert law[0] == pytest.approx(1 / 324, abs=1e-15)

    def test_two_busy_servers_matches_matrix_row(self):
        params = validate_geo_params(1 / 3, 1 / 6, 3)
        p, q, r, s = params.p, params.q, params.r, params.s
        law = increment_distribution(params)[2]
        expected = {
            -3: 0.0,
            -2: q * r**2,
            -1: p * r**2 + 2 * q * r * s,
            0: 2 * p * r * s + q * s**2,
            1: p * s**2,
        }
        for step, value in expected.items():
            assert law[3 + step] == pytest.approx(value, abs=1e-15)

    def test_one_busy_server_matches_matrix_row(self):
        params = validate_geo_params(1 / 3, 1 / 6, 3)
        p, q, r, s = params.p, params.q, params.r, params.s
        law = increment_distribution(params)[1]
        assert law.tolist()[:2] == [0.0, 0.0]
        assert law[2] == pytest.approx(q * r, abs=1e-15)
        assert law[3] == pytest.approx(p * r + q * s, abs=1e-15)
        assert law[4] == pytest.approx(p * s, abs=1e-15)

    def test_empty_queue_row(self):
        params = validate_geo_params(0.42, 0.7, 2)
        law = increment_distribution(params)[0]
        assert law[3] == pytest.approx(params.p, abs=1e-15)
        assert law[2] == pytest.approx(params.q, abs=1e-15)
        assert law.tolist()[:2] == [0.0, 0.0]

    @pytest.mark.parametrize("p,r,c", stable_grid())
    def test_pmf_sums_to_one_everywhere(self, p, r, c):
        table = increment_distribution(validate_geo_params(p, r, c))
        assert table.shape == (c + 1, c + 2)
        assert np.all(np.abs(table.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(table >= 0.0)
        for busy in range(c + 1):  # no step below -busy
            assert not table[busy, :c - busy].any()

    @pytest.mark.parametrize("p,r,c", stable_grid())
    def test_fully_busy_mean_is_net_drift(self, p, r, c):
        params = validate_geo_params(p, r, c)
        drift = float(np.dot(np.arange(-c, 2), increment_distribution(params)[c]))
        assert drift == pytest.approx(p - c * r, abs=1e-14)
        assert drift < 0.0

    def test_table_is_read_only(self):
        table = increment_distribution(validate_geo_params(0.1, 0.3, 2))
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

"""Numeric kernels: polynomial roots, linear solve, bisection."""
import math

import numpy as np
import pytest

from numpy.polynomial.polynomial import polyval

from queuemax import (BracketError, ConvergenceError, RangeError, SingularError,
                      validate_geo_params)
from queuemax.geo_analysis import _divide_out_root_at_one
from queuemax.numerics import fixed_point_root, polynomial_roots, solve_linear_system
from oracles import real_roots_by_bisection


def f_denominator_cubic(params):
    """Cubic factor of the ascent generating-function denominator."""
    from queuemax import increment_distribution
    c = params.c
    alpha = dict(enumerate(increment_distribution(params)[c].tolist(), -c))
    quartic = np.zeros(c + 2)
    for m in range(1, c + 1):
        quartic[c - m] += alpha[-m]
    quartic[c] -= 1.0 - alpha[0]
    quartic[c + 1] += alpha[1]
    return _divide_out_root_at_one(quartic)


class TestPolynomialRoots:
    def test_quadratic_z2_minus_1(self):
        roots = polynomial_roots([-1.0, 0.0, 1.0])
        assert sorted(z.real for z in roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert max(abs(z.imag) for z in roots) < 1e-12

    def test_factorable_cubic(self):
        # z^3 - 2 z^2 - z + 2 = (z-1)(z+1)(z-2)
        roots = polynomial_roots([2.0, -1.0, -2.0, 1.0])
        assert sorted(z.real for z in roots) == pytest.approx([-1.0, 1.0, 2.0], abs=1e-11)
        assert max(abs(z.imag) for z in roots) < 1e-11

    def test_ascent_denominator_cubic_at_reference_parameters(self):
        params = validate_geo_params(1 / 3, 1 / 6, 3)
        cubic = f_denominator_cubic(params)
        roots = polynomial_roots(cubic)
        scale = float(np.max(np.abs(cubic)))
        assert np.all(np.abs(polyval(roots, cubic)) < 1e-10 * scale)
        inside = [z for z in roots if abs(z) <= 1.0]
        assert len(inside) == 2
        # oracle 1: the lone real root by scan + bisection
        real_roots = real_roots_by_bisection(cubic, -5.0, 5.0)
        assert len(real_roots) == 1
        found_real = [z for z in roots if abs(z.imag) < 1e-9]
        assert len(found_real) == 1
        assert found_real[0].real == pytest.approx(real_roots[0], abs=1e-9)
        # oracle 2: synthetic division by the real root, then the quadratic formula
        import cmath
        a0, a1, a2, a3 = cubic
        root = real_roots[0]
        b2 = a3
        b1 = a2 + b2 * root
        b0 = a1 + b1 * root
        disc = cmath.sqrt(b1 * b1 - 4.0 * b2 * b0)
        pair = [(-b1 + disc) / (2.0 * b2), (-b1 - disc) / (2.0 * b2)]
        complex_found = sorted((z for z in roots if abs(z.imag) >= 1e-9),
                               key=lambda z: z.imag)
        expected = sorted(pair, key=lambda z: z.imag)
        assert len(complex_found) == 2
        for got, want in zip(complex_found, expected):
            assert got.real == pytest.approx(want.real, abs=1e-9)
            assert got.imag == pytest.approx(want.imag, abs=1e-9)

    def test_conjugate_pairs_adjacent(self):
        # z^4 + 1: two conjugate pairs
        roots = polynomial_roots([1.0, 0.0, 0.0, 0.0, 1.0])
        assert roots[0] == pytest.approx(np.conj(roots[1]), abs=1e-10)
        assert roots[2] == pytest.approx(np.conj(roots[3]), abs=1e-10)

    def test_residuals_on_random_low_degree_polynomials(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            degree = int(rng.integers(1, 5))
            coeffs = rng.normal(size=degree + 1)
            coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
            roots = polynomial_roots(coeffs)
            scale = float(np.max(np.abs(coeffs)))
            assert np.all(np.abs(polyval(roots, coeffs)) < 1e-10 * scale)
            assert len(roots) == degree

    def test_residuals_on_random_polynomials_of_degree_5_to_8(self):
        # beyond the unit disk the bound scales with sum |a_i| |z|^i, the size
        # of the rounding noise in evaluating P(z) there
        rng = np.random.default_rng(103)
        for _ in range(200):
            degree = int(rng.integers(5, 9))
            coeffs = rng.normal(size=degree + 1)
            coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
            roots = polynomial_roots(coeffs)
            assert len(roots) == degree
            for z in roots:
                eval_scale = sum(abs(a) * abs(z) ** i for i, a in enumerate(coeffs))
                bound = 1e-10 * max(float(np.max(np.abs(coeffs))), eval_scale)
                assert abs(polyval(z, coeffs)) < bound
            # the roots rebuild the monic coefficients
            monic = coeffs[::-1] / coeffs[-1]
            assert np.poly(roots).real == pytest.approx(monic, rel=1e-10, abs=1e-10)

    def test_degree_out_of_range(self):
        with pytest.raises(RangeError):
            polynomial_roots([1.0])  # degree 0
        with pytest.raises(RangeError):
            polynomial_roots([1.0, 1e-16])  # degree 0 once trimmed

    def test_failed_root_certificate_raises(self, monkeypatch):
        exact_roots = np.roots
        monkeypatch.setattr(np, "roots", lambda coeffs: exact_roots(coeffs) + 1e-6)
        with pytest.raises(ConvergenceError):
            polynomial_roots([2.0, -1.0, -2.0, 1.0])

    def test_trailing_zero_trim(self):
        # 1 + 2z with two zero high-order coefficients has the single root -1/2
        assert polynomial_roots([1.0, 2.0, 0.0, 0.0]) == pytest.approx([-0.5])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(RangeError):
            polynomial_roots([0.0, 0.0])

    @pytest.mark.parametrize("coefficients", [[], [[1.0, 2.0], [3.0, 4.0]]])
    def test_malformed_coefficients_rejected(self, coefficients):
        with pytest.raises(RangeError):
            polynomial_roots(coefficients)


class TestLinearSolve:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.5])
        assert solve_linear_system(np.eye(3), rhs) == pytest.approx(rhs)

    def test_diagonal(self):
        x = solve_linear_system([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert x == pytest.approx([1.0, 2.0])

    def test_complex_system(self):
        a = np.array([[1.0 + 1.0j, 2.0], [0.0, 1.0 - 1.0j]])
        x_true = np.array([1.0 - 2.0j, 3.0 + 0.5j])
        x = solve_linear_system(a, a @ x_true)
        assert x == pytest.approx(x_true, abs=1e-12)

    def test_backward_residual_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = solve_linear_system(a, b)
            assert float(np.max(np.abs(a @ x - b))) < 1e-10 * float(np.max(np.abs(b)))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularError):
            solve_linear_system([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])

    def test_random_systems_up_to_dimension_16(self):
        rng = np.random.default_rng(11)
        for n in range(1, 17):
            for _ in range(10):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3.0 * np.eye(n)
                x_true = rng.normal(size=n) + 1j * rng.normal(size=n)
                b = a @ x_true
                x = solve_linear_system(a, b)
                assert float(np.max(np.abs(a @ x - b))) < 1e-10 * float(np.max(np.abs(b)))
                assert x == pytest.approx(x_true, abs=1e-9)

    def test_near_singular_matrix_rejected(self):
        with pytest.raises(SingularError):
            solve_linear_system([[1.0, 1.0], [1.0, 1.0 + 1e-15]], [1.0, 2.0])

    def test_badly_scaled_rows_accepted(self):
        # row equilibration: a tiny but well-conditioned row is not singular
        a = np.array([[1e-20, 2e-20], [3.0, 1.0]])
        x = solve_linear_system(a, a @ np.array([1.0, -1.0]))
        assert x == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(SingularError):
            solve_linear_system([[1.0, 2.0], [0.0, 0.0]], [1.0, 0.0])

    def test_library_singularity_maps_to_singular_error(self, monkeypatch):
        def refuse(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        with pytest.raises(SingularError):
            solve_linear_system(np.eye(2), [1.0, 2.0])

    def test_non_square_rejected(self):
        with pytest.raises(RangeError):
            solve_linear_system(np.ones((2, 3)), [1.0, 2.0])

    def test_zero_rhs(self):
        assert solve_linear_system(np.eye(2) * 3.0, [0.0, 0.0]) == pytest.approx([0.0, 0.0])


class TestFixedPointRoot:
    def test_linear(self):
        assert fixed_point_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5

    def test_reference_decay_rate_cubic(self):
        p, r = 1 / 3, 1 / 6
        q, s = 1 - p, 1 - r

        def gap(w):
            return w - (q * w + p) * (r * w + s) ** 3

        root = fixed_point_root(gap, 1e-12, 1 - 1e-12)
        assert root == pytest.approx(0.5744080010, abs=1e-9)

    def test_sqrt_two_to_one_ulp(self):
        root = fixed_point_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            fixed_point_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root_returned(self):
        assert fixed_point_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_empty_bracket_rejected(self):
        with pytest.raises(RangeError):
            fixed_point_root(lambda x: x, 1.0, 1.0)

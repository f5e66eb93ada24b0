"""Small numeric kernels on plain numpy arrays: complex polynomial roots, a
dense complex linear solve, and bisection to float resolution.

Roots and solves come from numpy (np.roots, np.linalg.solve); what this module
adds is the certificate around each: every root is residual-checked, every
solve is guarded against near-singularity and residual-checked, and a result
that fails its check raises a typed error instead of being returned.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError, RangeError, SingularError

COEFF_TRIM_REL = 1e-15
ROOT_RESIDUAL_REL = 1e-10
PIVOT_REL = 1e-13
SOLVE_RESIDUAL_REL = 1e-10


def polynomial_roots(coefficients) -> np.ndarray:
    """All complex roots of a real polynomial of degree >= 1, sorted by
    (real, imag) so that conjugate pairs come out adjacent.

    Coefficients are in ascending degree order; high-order ones below
    1e-15 * max|coefficient| are trimmed first. np.roots finds the roots as
    companion-matrix eigenvalues; each root is then certified by
    |P(z)| < 1e-10 * max|coefficient|.
    """
    coeffs = np.atleast_1d(np.asarray(coefficients, dtype=np.float64))
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise RangeError("coefficients must be a nonempty 1-d sequence")
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise RangeError("the zero polynomial has no defined degree")
    # trim high-order coefficients that are numerically zero
    keep = coeffs.size
    while keep > 1 and abs(coeffs[keep - 1]) < COEFF_TRIM_REL * scale:
        keep -= 1
    if keep < 2:
        raise RangeError(f"degree must be at least 1, got {keep - 1}")
    coeffs = coeffs[:keep]
    roots = np.roots(coeffs[::-1]).astype(complex)

    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    residuals = np.abs(np.polyval(coeffs[::-1], roots))
    # For |z| >> 1 the evaluation of P(z) itself carries rounding noise of
    # order eps * sum |a_i z^i|, so the certificate is normalized by that
    # scale; for |z| <= 1 it reduces to the flat 1e-10 * max|coeff| bound.
    powers = np.abs(roots)[:, None] ** np.arange(coeffs.size)[None, :]
    eval_scale = powers @ np.abs(coeffs)
    bounds = ROOT_RESIDUAL_REL * np.maximum(scale, eval_scale)
    if np.any(residuals >= bounds):
        raise ConvergenceError(
            f"root residuals {residuals} exceed tolerances {bounds}")
    return roots


def solve_linear_system(matrix, rhs) -> np.ndarray:
    """Solve a small dense complex system with np.linalg.solve.

    Rows are equilibrated to unit max-norm first; raises SingularError when a
    row is identically zero or the reciprocal 1-norm condition number of the
    equilibrated matrix is below 1e-13. The solution is verified against the
    backward residual ||Ax - b||_inf < 1e-10 ||b||_inf.
    """
    a = np.array(matrix, dtype=complex)
    b = np.array(rhs, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise RangeError(f"need a square matrix and matching rhs, got {a.shape} and {b.shape}")

    scales = np.max(np.abs(a), axis=1)
    if np.any(scales == 0.0):
        raise SingularError("matrix has an identically zero row")
    equilibrated = a / scales[:, None]
    rcond = 1.0 / np.linalg.cond(equilibrated, 1)  # 0 for an exactly singular matrix
    if rcond < PIVOT_REL:
        raise SingularError(f"reciprocal condition number {rcond} below {PIVOT_REL}")
    try:
        x = np.linalg.solve(equilibrated, b / scales)
    except np.linalg.LinAlgError as exc:
        raise SingularError(str(exc)) from exc

    rhs_norm = float(np.max(np.abs(b)))
    if rhs_norm > 0.0:
        residual = float(np.max(np.abs(a @ x - b)))
        if residual >= SOLVE_RESIDUAL_REL * rhs_norm:
            raise SingularError(
                f"backward residual {residual} exceeds {SOLVE_RESIDUAL_REL * rhs_norm}")
    return x


def fixed_point_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a continuous scalar function by bisection to float resolution.

    Requires a sign change on [lo, hi]. Halves the bracket until no float lies
    between its ends and returns the end where |f| is smaller. Convergence is
    guaranteed for any continuous f, which is why bisection is used over
    anything faster.
    """
    if not lo < hi:
        raise RangeError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"f({lo})={flo} and f({hi})={fhi} have the same sign")

    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        mid = 0.5 * (lo + hi)
    return lo if abs(flo) <= abs(fhi) else hi

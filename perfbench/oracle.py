"""Exact sine series of the polynomial initial condition, used as an oracle.

On the unit interval x(1-x) = sum over odd j of b_j sin(j pi x) with
b_j = 8 / (j pi)^3, so from u0 = x(1-x) y(1-y) and zero velocity the wave
equation's solution is

    u(x, y, t) = sum_{j,k odd} b_j b_k sin(j pi x) sin(k pi y) cos(w_jk t),
    w_jk = c pi sqrt(j^2 + k^2).

Two closed sums bound the truncation: sum_{j odd} b_j^2 = 1/15 (Parseval,
since the integral of (x(1-x))^2 is 1/30) and sum_{j odd} b_j = 7 zeta(3) / pi^3.
"""

from __future__ import annotations

import math

import numpy as np

SUM_B2 = 1.0 / 15.0
SUM_B = 7.0 * 1.2020569031595942 / math.pi**3

# The floor is measured on the mesh the program scores solvers on at the
# desk config (the DoF-matched CN mesh, n = 12), so it is comparable with
# the errors in the report.
MESH_N = 12
# Truncation starts at odd j, k <= J_START and doubles (J -> 2J + 1) until
# the series tail is below a tenth of the measured floor, so the oracle's
# own error moves the floor by at most 10%.
J_START = 31
J_MAX = 1023


def coefficients(J: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd mode numbers j <= J and their coefficients b_j."""
    j = np.arange(1, J + 1, 2, dtype=float)
    return j, 8.0 / (j * math.pi) ** 3


class PolynomialSeries:
    """The series truncated to odd j, k <= J, as a callable (x, y, t)."""

    def __init__(self, J: int, c: float = 1.0):
        self.J = J
        self.j, b = coefficients(J)
        self.B = np.outer(b, b)
        self.omega = c * math.pi * np.hypot(self.j[:, None], self.j[None, :])
        self._points = None

    def _tables(self, x, y):
        # the error report passes the same quadrature arrays at every time
        if self._points is None or self._points[0] is not x \
                or self._points[1] is not y:
            sx = np.sin(math.pi * np.multiply.outer(np.asarray(x, float), self.j))
            sy = np.sin(math.pi * np.multiply.outer(np.asarray(y, float), self.j))
            self._points = (x, y, sx, sy)
        return self._points[2], self._points[3]

    def __call__(self, x, y, t):
        sx, sy = self._tables(x, y)
        return np.sum((sx @ (self.B * np.cos(self.omega * t))) * sy, axis=1)

    def l2_tail(self, T: float) -> float:
        """Bound on the space-time L2 norm of the dropped terms over (0, T).

        Each dropped mode has spatial L2 norm |b_j b_k| / 2 and |cos| <= 1.
        """
        kept = float(np.sum(coefficients(self.J)[1] ** 2))
        return math.sqrt(T / 4.0 * max(SUM_B2**2 - kept**2, 0.0))

    def max_tail(self) -> float:
        """Bound on the pointwise size of the dropped terms."""
        kept = float(np.sum(coefficients(self.J)[1]))
        return max(SUM_B**2 - kept**2, 0.0)


def reference_floor(ref, Nt_eval: int = 200):
    """Space-time relative error of a polynomial reference vs the series.

    Measured with the program's own error report on the MESH_N x MESH_N
    evaluation mesh at `Nt_eval` times.
    """
    from wavebench import metrics
    from wavebench.mesh import build_structured_mesh

    p = ref.problem
    if p.ic != "polynomial" or p.L1 != 1.0 or p.L2 != 1.0:
        raise ValueError("the series oracle covers the polynomial IC on the "
                         "unit square only")
    mesh = build_structured_mesh(1.0, 1.0, MESH_N, MESH_N)
    J = J_START
    while J <= J_MAX:
        series = PolynomialSeries(J, p.c)
        report = metrics.compute_error_report(series, ref, mesh, Nt_eval)
        tail_rel = series.l2_tail(p.T) / report.ref_st_norm
        if tail_rel < 0.1 * report.st_rel:
            return report.st_rel
        J = 2 * J + 1
    raise ArithmeticError(f"series tail not below a tenth of the floor "
                          f"with J <= {J_MAX}")

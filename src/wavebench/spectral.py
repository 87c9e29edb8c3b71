"""Sine-basis spectral surrogate for the Dirichlet wave equation.

Each basis function sin(j pi x / L1) sin(k pi y / L2) cos(w_{jk} t) with
w_{jk} = c pi sqrt((j/L1)^2 + (k/L2)^2) satisfies the wave equation and the
homogeneous Dirichlet condition exactly, so only the weights are fitted.
Fitting samples the initial displacement on a Latin hypercube design and
solves a ridge problem whose parameter is selected by generalized
cross-validation. The m x N^2 design Phi is never formed on the usual
route: the product-to-sum identity sin a sin b = (cos(a - b) - cos(a + b)) / 2
turns Phi^T Phi into a gather from the (2N+1)^2 cosine moments of the
samples, and Phi^T u into a product of the two m x N sine tables. As in
Elden (BIT 24, 1984), who evaluates GCV after one bidiagonal reduction, one
tridiagonal reduction Phi^T Phi = Q T Q^T, from the one Gram triangle it
reads, serves the whole GCV search and forms no eigenvector or spectrum:
the LDL^T pivots of T + lambda I give the effective DoF (Meurant, SIAM J.
Matrix Anal. Appl. 13, 1992), solves with it the residuals and weights,
and Q is applied to two vectors. Designs with cond(Phi) above 1e3 take a
direct SVD, a diagonal T on the directions above round-off. Every threaded
BLAS call of the fit runs on scipy's OpenBLAS, next to dsytrd: numpy brings
its own OpenBLAS, whose worker spins about 0.1 s after each threaded call,
and a numpy product right after dsytrd waited for it (36 ms median, not 2).

Weight / column order: (j, k) lexicographic with j outer, i.e. column
(j-1)*N + (k-1) holds mode (j, k).
"""

from __future__ import annotations

import json
import logging
import mmap
import numbers
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import blas, eigvalsh_tridiagonal, lapack

__all__ = [
    "SpectralBasis",
    "DesignMatrix",
    "RidgeSVD",
    "SpectralModel",
    "lhs_sample",
    "build_design_matrix",
    "ridge_fit_svd",
    "select_lambda_gcv",
    "default_lambda_grid",
    "fit_spectral_model",
    "predict",
]

log = logging.getLogger("wavebench")
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Largest eigenvalue ratio of Phi^T Phi accepted from the Gram route, i.e.
# cond(Phi) <= 1e3. Forming the Gram matrix squares the condition number,
# so its smallest eigenvalues carry a relative error of about
# ratio * machine epsilon (2e-10 here); worse designs take the direct SVD.
_GRAM_MAX_EV_RATIO = 1e6


def _sine_table(coords, N: int, L: float) -> np.ndarray:
    """sin(j pi x / L) for j = 1..N; exact zeros wherever j x / L is integral."""
    coords = np.asarray(coords, dtype=float)
    if not np.all((coords >= 0) & (coords <= L)):       # NaN fails too
        raise ValueError(f"point outside the closed rectangle: not in [0, {L}]")
    z = np.multiply.outer(coords / L, np.arange(1, N + 1, dtype=float))
    out = np.sin(np.pi * z)
    out[z == np.round(z)] = 0.0
    return out


@dataclass(frozen=True)
class SpectralBasis:
    """Mode table for the rectangle: N modes per direction."""

    N: int
    L1: float = 1.0
    L2: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if (not isinstance(self.N, numbers.Integral) or isinstance(self.N, bool)
                or self.N < 1):
            raise ValueError(f"N must be an integer of at least 1, got {self.N!r}")
        if not all(0 < v < np.inf for v in (self.L1, self.L2, self.c)):
            raise ValueError("lengths and wave speed must be finite and positive")

    @cached_property
    def omegas(self) -> np.ndarray:
        """Angular frequencies w_{jk}, shape (N, N), j indexing rows; formed
        once per basis and read-only, since every reader shares it."""
        j = np.arange(1, self.N + 1, dtype=float)
        w = self.c * np.pi * np.sqrt((j[:, None] / self.L1) ** 2
                                     + (j[None, :] / self.L2) ** 2)
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class DesignMatrix:
    """Spatial basis at the m sample points, kept as its two sine tables.

    Column (j-1)*N + (k-1) of the m x N^2 design Phi is
    sx[:, j-1] * sy[:, k-1]; `values` forms that product when it is read.
    `moments` is M = Cx^T Cy with Cx[p, d] = cos(d pi x_p / L1) and
    Cy[p, d] = cos(d pi y_p / L2) for d = 0..2N, from which `_gram_upper`
    gathers Phi^T Phi.
    """

    sx: np.ndarray
    sy: np.ndarray
    moments: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.sx.shape[0], self.sx.shape[1] * self.sy.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The dense m x N^2 design, built on each read."""
        return (self.sx[:, :, None] * self.sy[:, None, :]).reshape(self.shape)

    def _gram_upper(self) -> np.ndarray:
        """The blocks (j, j') with j <= j' of Phi^T Phi, zeros below them:
        the triangle that dsytrd(G.T, lower=1) reads, without forming Phi.

        Applying sin a sin b = (cos(a - b) - cos(a + b)) / 2 in each
        direction gives G[(j,k),(j',k')] = (M[|j-j'|,|k-k'|] - M[|j-j'|,k+k']
        - M[j+j',|k-k'|] + M[j+j',k+k']) / 4.
        """
        N = self.sx.shape[1]
        j = np.arange(1, N + 1)
        diff = np.abs(j[:, None] - j[None, :])
        add = j[:, None] + j[None, :]
        # y direction first: Mk[d, k, k'], with the exact factor 1/4
        Mk = 0.25 * (self.moments[:, diff] - self.moments[:, add])
        # an anonymous mapping goes back to the OS when the fit drops it; a
        # freed heap block of this size can stay resident in the process
        G = np.frombuffer(mmap.mmap(-1, 8 * N**4)).reshape(N * N, N * N)
        rows = G.reshape(N, N, N, N)                # [j, k, j', k']
        for jj in range(N):          # a block row at a time: no N^4 temporaries
            np.subtract(Mk[diff[jj, jj:]], Mk[add[jj, jj:]],
                        out=rows[jj, :, jj:].transpose(1, 0, 2))
        return G

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """Phi^T u = vec(sx^T diag(u) sy), without forming Phi."""
        return blas.dgemm(1.0, self.sx.T * u, self.sy.T, trans_b=1).ravel()


def lhs_sample(m: int, L1: float, L2: float, seed: int = 0) -> np.ndarray:
    """Jittered Latin hypercube sample of m points in (0, L1) x (0, L2).

    Each coordinate is split into m equal strata, each containing exactly
    one point drawn uniformly within it. The pairing between coordinates
    is a seeded random permutation, so the same (m, seed) always yields
    the same point set.
    """
    if m < 1:
        raise ValueError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    pts = np.empty((m, 2))
    for dim, L in enumerate((L1, L2)):
        strata = rng.permutation(m)
        pts[:, dim] = (strata + rng.random(m)) / m * L
    return pts


def build_design_matrix(points: np.ndarray, basis: SpectralBasis) -> DesignMatrix:
    """Sine tables and cosine moments of the basis at the sample points."""
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    # the sine tables reject points outside the rectangle before cos sees them
    sx, sy = _sine_table(x, basis.N, basis.L1), _sine_table(y, basis.N, basis.L2)
    d = np.pi * np.arange(2 * basis.N + 1, dtype=float)
    cx = np.cos(np.multiply.outer(x / basis.L1, d))
    cy = np.cos(np.multiply.outer(y / basis.L2, d))
    return DesignMatrix(sx, sy,               # (m, N) each: j and k index
                        blas.dgemm(1.0, cx.T, cy.T, trans_b=1))  # Fortran views


def _tri_solve(d: np.ndarray, e: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs for the positive definite tridiagonal T = (d, e)."""
    if not rhs.size:                    # a zero design keeps no direction
        return rhs
    *_, x, info = lapack.dptsv(d, e, rhs[:, None])
    if info:
        raise np.linalg.LinAlgError("ridge system is not positive definite")
    return x[:, 0]


@dataclass(frozen=True)
class RidgeSVD:
    """Ridge fit of one observation vector u to an m x n design Phi.

    Phi^T Phi = Q T Q^T on its r directions above round-off, with T
    tridiagonal (diagonal d, off-diagonal e) and `ev_ratio` = cond(T), None
    if r < n. The fit keeps c = Q^T Phi^T u and the squared norm of u outside
    col(Phi), u^T u - c^T T^-1 c, so each ridge parameter costs tridiagonal
    solves; `q` (y -> Q y) is applied only to form the weights.
    """

    d: np.ndarray
    e: np.ndarray
    c: np.ndarray
    out_of_range: float
    shape: tuple
    q: Callable
    factor: str                      # "tridiagonal" or "svd"
    ev_ratio: float | None

    def coefficients(self, lam: float) -> np.ndarray:
        if lam < 0:
            raise ValueError("ridge parameter must be nonnegative")
        if lam == 0 and self.d.size < min(self.shape):
            raise np.linalg.LinAlgError(
                "design matrix is rank deficient; a positive ridge parameter "
                "is required")
        return self.q(_tri_solve(self.d + lam, self.e, self.c))

    def rss(self, lam: float) -> float:
        """||u - Phi w_lam||^2: the part outside col(Phi) plus
        lam^2 y^T T^-1 y, with y = (T + lam I)^-1 c."""
        y = _tri_solve(self.d + lam, self.e, self.c)
        shrunk = lam**2 * float(y @ _tri_solve(self.d, self.e, y))
        return max(self.out_of_range, 0.0) + shrunk

    def edof(self, lam: float) -> float:
        """Trace of the hat matrix, r - lam sum_i 1 / (D+_i + D-_i - d_i - lam)
        with D+, D- the top-down, bottom-up LDL^T pivots of T + lam I."""
        if lam < 0:
            raise ValueError("ridge parameter must be nonnegative")
        a = self.d + lam
        down = lapack.dpttrf(a, self.e)[0]
        up = lapack.dpttrf(a[::-1], self.e[::-1])[0][::-1]
        return float(self.d.size - lam * np.sum(1.0 / (down + up - a)))

    def gcv(self, lam: float) -> float:
        """GCV(lam) = ||u - Phi w_lam||^2 / (m - tr(H_lam))^2."""
        if lam <= 0:
            raise ValueError("GCV requires a strictly positive ridge parameter")
        return self.rss(lam) / (self.shape[0] - self.edof(lam)) ** 2


def _reduce_gram(G: np.ndarray, b: np.ndarray):
    """(d, e, Q^T b, y -> Q y, cond(T)) from LAPACK's dsytrd of G's upper
    triangle in G's own buffer, or None past `_GRAM_MAX_EV_RATIO`."""
    n = G.shape[0]
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    # G is symmetric, so G.T is a Fortran-order view that dsytrd overwrites
    A, d, e, tau, _ = lapack.dsytrd(G.T, lower=1, lwork=lwork, overwrite_a=1)
    lo, hi = (eigvalsh_tridiagonal(d, e[:n - 1], select="i", select_range=(i, i),
                                   lapack_driver="stebz")[0] for i in (0, n - 1))
    if not (lo > 0 and hi <= _GRAM_MAX_EV_RATIO * lo):
        return None
    # the LAPACK wrappers want an off-diagonal of length >= 1, also at n = 1
    e = np.append(e, 0.0)[:max(n - 1, 1)]
    # Q = diag(1, Q'); dormqr takes Q' as dormtr passes it: rows 2..n of A
    # as a Fortran view with lda = n (A[1:, :-1] is copied on every call)
    refl = A.ravel(order="F")[1:1 + n * (n - 1)].reshape(n, n - 1, order="F")

    def qmul(v, trans):
        out = v.copy()
        if n > 1:    # no empty reflector block; lwork = 1: unblocked, no query
            out[1:] = lapack.dormqr("L", trans, refl, tau, v[1:, None], 1)[0][:, 0]
        return out
    return d, e, qmul(b, "T"), lambda y: qmul(y, "N"), float(hi / lo)


def ridge_fit_svd(Phi: DesignMatrix | np.ndarray, u: np.ndarray) -> RidgeSVD:
    """Factor the design Phi and project the observations u onto it, once.

    A tall Phi with cond(Phi) <= 1e3 takes one tridiagonal reduction of
    Phi^T Phi; any other takes `np.linalg.svd`: T = diag(s^2) and Q = V on
    the directions with s above round-off. A plain array stands in for a
    `DesignMatrix` through A^T A and A^T u.
    """
    if isinstance(Phi, DesignMatrix):
        tables, gram, rmatvec = (Phi.sx, Phi.sy), Phi._gram_upper, Phi.rmatvec
        dense = lambda: Phi.values
    else:
        Phi = np.asarray(Phi, dtype=float)
        # dsyrk's lower triangle, transposed: `_gram_upper`'s C-order layout
        tables, gram = (Phi,), lambda: blas.dsyrk(1.0, Phi.T, lower=1).T
        rmatvec = lambda v: blas.dgemv(1.0, Phi.T, v)
        dense = lambda: Phi
    u = np.asarray(u, dtype=float)
    if not (all(np.all(np.isfinite(t)) for t in tables) and np.all(np.isfinite(u))):
        raise ValueError("non-finite entries in the ridge system")
    m, n = Phi.shape
    if m == 0 or n == 0:
        raise ValueError(f"empty {m}x{n} design: need at least one sample "
                         "and one basis function")
    if u.shape != (m,):
        raise ValueError("observation vector length does not match the design")
    b = rmatvec(u)
    reduced = _reduce_gram(gram(), b) if m >= n else None
    if reduced is not None:
        (d, e, c, q, ratio), factor = reduced, "tridiagonal"
    else:
        log.warning("ridge fit of a %dx%d design takes the SVD route: %s", m, n,
                    "wide design" if m < n else
                    f"eigenvalue ratio above {_GRAM_MAX_EV_RATIO:g}")
        _, s, Vt = np.linalg.svd(dense(), full_matrices=False)
        Vt = Vt[s > max(m, n) * np.finfo(float).eps * s[0]]
        d, c, e = s[:len(Vt)] ** 2, Vt @ b, np.zeros(max(len(Vt) - 1, 1))
        q, factor = Vt.T.__matmul__, "svd"
        ratio = float(d[0] / d[-1]) if d.size == n else None
    out_of_range = float(u @ u - c @ _tri_solve(d, e, c))
    return RidgeSVD(d, e, c, out_of_range, (m, n), q, factor, ratio)


def default_lambda_grid() -> np.ndarray:
    """Log-spaced search grid over [1e-12, 1e2], 8 points per decade."""
    return np.logspace(-12.0, 2.0, 14 * 8 + 1)


def select_lambda_gcv(fit: RidgeSVD, grid=None):
    """Minimize the GCV score over a grid, then refine by golden section.

    Ties on the grid break toward larger (more regularizing) values. The
    refinement runs one golden-section search on log(lambda) in the interval
    bracketing the grid minimizer. Returns (lambda_star, edof, score,
    at_edge), at_edge telling whether the grid minimizer is an end point.
    """
    if grid is None:
        grid = default_lambda_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("grid must be nonempty with positive entries")
    grid = np.sort(grid)

    scores = np.array([fit.gcv(lam) for lam in grid])
    i = grid.size - 1 - int(np.argmin(scores[::-1]))   # last (largest-lam) min
    best_lam, best_score = grid[i], scores[i]

    lo = np.log(grid[max(i - 1, 0)])
    hi = np.log(grid[min(i + 1, grid.size - 1)])
    if hi > lo:
        a, b = lo, hi
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
        f1 = fit.gcv(np.exp(x1))
        f2 = fit.gcv(np.exp(x2))
        for _ in range(60):
            if b - a < 1e-4:
                break
            if f1 > f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLDEN * (b - a)
                f2 = fit.gcv(np.exp(x2))
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLDEN * (b - a)
                f1 = fit.gcv(np.exp(x1))
        for x, f in ((x1, f1), (x2, f2)):
            if f < best_score:
                best_lam, best_score = np.exp(x), f
    return (float(best_lam), fit.edof(best_lam), float(best_score),
            i in (0, grid.size - 1))


@dataclass(frozen=True)
class SpectralModel:
    """Fitted surrogate: basis, weights, chosen ridge parameter, diagnostics."""

    basis: SpectralBasis
    weights: np.ndarray
    lam: float
    edof: float
    diagnostics: dict = field(default_factory=dict)
    _tables: tuple = field(default=(), init=False, repr=False, compare=False)

    def sine_tables(self, x: np.ndarray, y: np.ndarray):
        """Sine tables at the points (x, y), reused while their values repeat.

        Returns (sx, inv, sy): sx is the x table at the distinct x values
        only, and point p takes its row inv[p]; sy is the y table. The last
        point set is kept with private copies of x and y, so arrays changed
        in place get fresh tables. Points outside the closed rectangle, NaN
        included, are rejected when their tables are formed; a repeat of the
        kept set was checked then.
        """
        last = self._tables
        if last and np.array_equal(last[0], x) and np.array_equal(last[1], y):
            return last[2:]
        b = self.basis
        xu, inv = np.unique(x, return_inverse=True)
        tables = (_sine_table(xu, b.N, b.L1), inv, _sine_table(y, b.N, b.L2))
        object.__setattr__(self, "_tables", (x.copy(), y.copy()) + tables)
        return tables

    def to_json(self) -> str:
        doc = {
            **asdict(self.basis),
            "lambda": self.lam,
            "edof": self.edof,
            "seed": self.diagnostics.get("seed"),
            "weights": self.weights.tolist(),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "SpectralModel":
        doc = json.loads(text)
        basis = SpectralBasis(doc["N"], doc["L1"], doc["L2"], doc["c"])
        w = np.asarray(doc["weights"], dtype=float)
        if w.shape != (basis.N**2,):
            raise ValueError("weight vector length does not match N^2")
        lam, edof = doc["lambda"], doc["edof"]
        if not (np.all(np.isfinite(w)) and 0 <= lam < np.inf and np.isfinite(edof)):
            raise ValueError("weights, lambda and edof must be finite and lambda >= 0")
        return cls(basis, w, lam, edof, {"seed": doc.get("seed")})


def fit_spectral_model(problem, N: int, m: int, seed: int = 0) -> SpectralModel:
    """Full fitting pipeline: sample, design matrix, factorization, GCV, weights.

    The ridge parameter is searched over `default_lambda_grid()`. The
    diagnostics name the factorization, the eigenvalue ratio of Phi^T Phi
    (None if singular), whether the grid's GCV minimum is at its end, and
    the seconds of `design_s`, `factor_s` (`ridge_fit_svd`) and `gcv_s`.
    """
    t0 = time.perf_counter()
    basis = SpectralBasis(N, problem.L1, problem.L2, problem.c)
    pts = lhs_sample(m, problem.L1, problem.L2, seed=seed)
    Phi = build_design_matrix(pts, basis)
    u = np.asarray(problem.initial_condition()(pts[:, 0], pts[:, 1]), dtype=float)
    t1 = time.perf_counter()
    fit = ridge_fit_svd(Phi, u)
    t2 = time.perf_counter()
    lam, edof, _, edge = select_lambda_gcv(fit)
    weights = fit.coefficients(lam)
    diagnostics = {
        "seed": seed,
        "factor": fit.factor,
        "ev_ratio": fit.ev_ratio,
        "lambda_at_grid_edge": edge,
        "design_s": t1 - t0, "factor_s": t2 - t1, "gcv_s": time.perf_counter() - t2,
    }
    return SpectralModel(basis, weights, lam, edof, diagnostics)


def predict(model: SpectralModel, x, y, t: float):
    """Evaluate the surrogate at points (x, y) and time t.

    x and y broadcast against each other and the result takes their shape;
    a scalar pair gives a float. The time-t weights W_t are applied to the
    sine table of the distinct x values, and each point gathers its row of
    that product: the n = 12 quadrature points have 79 distinct x values
    among 1,152, so a call costs 79 N^2 multiply-adds instead of 1,152 N^2.
    Repeated calls at equal point arrays (one per evaluation time in an
    error report) reuse the model's tables of the previous call.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("time must be finite and nonnegative")
    b = model.basis
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    shape = x.shape
    sx, inv, sy = model.sine_tables(x.ravel(), y.ravel())
    Wt = model.weights.reshape(b.N, b.N) * np.cos(b.omegas * t)
    out = np.einsum("pk,pk->p", (sx @ Wt)[inv], sy)
    return out.reshape(shape) if shape else float(out[0])

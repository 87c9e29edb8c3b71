"""Sine-basis spectral surrogate for the Dirichlet wave equation.

Each basis function sin(j pi x / L1) sin(k pi y / L2) cos(w_{jk} t) with
w_{jk} = c pi sqrt((j/L1)^2 + (k/L2)^2) satisfies the wave equation and the
homogeneous Dirichlet condition exactly, so only the weights are fitted.
Fitting samples the initial displacement on a Latin hypercube design and
solves a ridge problem through one factorization of the design matrix Phi,
whose ridge parameter is selected by generalized cross-validation. The
m x N^2 matrix Phi is never formed on the usual route: the product-to-sum
identity sin a sin b = (cos(a - b) - cos(a + b)) / 2 turns the Gram matrix
Phi^T Phi into a gather from the (2N+1)^2 cosine moments of the samples,
and Phi^T u into a product of the two m x N sine tables. `eigh` of that
Gram matrix gives the singular values and right singular vectors when Phi
is well conditioned (the LHS sine design is nearly orthogonal); otherwise
Phi is formed and factored by a direct SVD. The left singular vectors U
are not kept: every ridge and GCV quantity needs only U^T u, which is
Vt (Phi^T u) / s. `ridge_fit_svd` forms it once, so a `RidgeSVD` is the
fit of one sample vector and its GCV search takes no further input.

Weight / column order: (j, k) lexicographic with j outer, i.e. column
(j-1)*N + (k-1) holds mode (j, k).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

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

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Largest eigenvalue ratio of Phi^T Phi accepted from the Gram route, i.e.
# cond(Phi) <= 1e3. Forming the Gram matrix squares the condition number,
# so its smallest eigenvalues carry a relative error of about
# ratio * machine epsilon (2e-10 here); worse designs take the direct SVD.
_GRAM_MAX_EV_RATIO = 1e6


def _sine_table(coords, N: int, L: float) -> np.ndarray:
    """sin(j pi x / L) for j = 1..N; exact zeros wherever j x / L is integral."""
    z = np.multiply.outer(np.asarray(coords, dtype=float) / L,
                          np.arange(1, N + 1, dtype=float))
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
        if self.N < 1:
            raise ValueError("need at least one mode per direction")
        if min(self.L1, self.L2, self.c) <= 0:
            raise ValueError("lengths and wave speed must be positive")

    @property
    def omegas(self) -> np.ndarray:
        """Angular frequencies w_{jk}, shape (N, N), j indexing rows."""
        j = np.arange(1, self.N + 1, dtype=float)
        return self.c * np.pi * np.sqrt((j[:, None] / self.L1) ** 2
                                        + (j[None, :] / self.L2) ** 2)


@dataclass(frozen=True)
class DesignMatrix:
    """Spatial basis at the m sample points, kept as its two sine tables.

    Column (j-1)*N + (k-1) of the m x N^2 design Phi is
    sx[:, j-1] * sy[:, k-1]; `values` forms that product when it is read.
    `moments` is M = Cx^T Cy with Cx[p, d] = cos(d pi x_p / L1) and
    Cy[p, d] = cos(d pi y_p / L2) for d = 0..2N, from which `gram` gathers
    Phi^T Phi.
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

    def gram(self) -> np.ndarray:
        """Phi^T Phi from the cosine moments, without forming Phi.

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
        G = np.empty((N * N, N * N))
        rows = G.reshape(N, N, N, N)                # [j, k, j', k']
        for jj in range(N):          # a block row at a time: no N^4 temporaries
            np.subtract(Mk[diff[jj]], Mk[add[jj]],
                        out=rows[jj].transpose(1, 0, 2))
        return G

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """Phi^T u = vec(sx^T diag(u) sy), without forming Phi."""
        return ((self.sx.T * u) @ self.sy).ravel()


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
    if np.any(x < 0) or np.any(x > basis.L1) or np.any(y < 0) or np.any(y > basis.L2):
        raise ValueError("sample point outside the closed rectangle")
    d = np.pi * np.arange(2 * basis.N + 1, dtype=float)
    cx = np.cos(np.multiply.outer(x / basis.L1, d))
    cy = np.cos(np.multiply.outer(y / basis.L2, d))
    return DesignMatrix(_sine_table(x, basis.N, basis.L1),   # (m, N), j index
                        _sine_table(y, basis.N, basis.L2),   # (m, N), k index
                        cx.T @ cy)


@dataclass(frozen=True)
class RidgeSVD:
    """Ridge fit of one observation vector u through Phi = U diag(s) Vt.

    U is not kept: the weights, residual and GCV score need it only through
    the projection a = U^T u = Vt (Phi^T u) / s, which `ridge_fit_svd` forms
    once, together with u^T u and the sample count m.
    """

    s: np.ndarray
    Vt: np.ndarray
    a: np.ndarray
    uu: float
    m: int

    def coefficients(self, lam: float) -> np.ndarray:
        if lam < 0:
            raise ValueError("ridge parameter must be nonnegative")
        tol = max(self.m, self.Vt.shape[1]) * np.finfo(float).eps * self.s[0]
        if lam == 0 and self.s[-1] <= tol:
            raise np.linalg.LinAlgError(
                "design matrix is rank deficient; a positive ridge parameter "
                "is required")
        return self.Vt.T @ (self.s / (self.s**2 + lam) * self.a)

    def rss(self, lam: float) -> float:
        """Residual sum of squares ||u - Phi w_lam||^2 via the spectral filter."""
        out_of_range = float(self.uu - self.a @ self.a)   # outside col(Phi)
        shrunk = (lam / (self.s**2 + lam)) * self.a
        return max(out_of_range, 0.0) + float(shrunk @ shrunk)

    def edof(self, lam: float) -> float:
        """Trace of the hat matrix, sum of s_i^2 / (s_i^2 + lam)."""
        if lam < 0:
            raise ValueError("ridge parameter must be nonnegative")
        return float(np.sum(self.s**2 / (self.s**2 + lam)))

    def gcv(self, lam: float) -> float:
        """GCV(lam) = ||u - Phi w_lam||^2 / (m - tr(H_lam))^2."""
        if lam <= 0:
            raise ValueError("GCV requires a strictly positive ridge parameter")
        return self.rss(lam) / (self.m - self.edof(lam)) ** 2


def ridge_fit_svd(Phi: DesignMatrix | np.ndarray, u: np.ndarray) -> RidgeSVD:
    """Factor the design Phi and project the observations u onto it, once.

    s and Vt come from `eigh` of the Gram matrix Phi^T Phi when Phi is tall
    and cond(Phi) is at most 1e3, else from `np.linalg.svd`. A `DesignMatrix`
    supplies Phi^T Phi and Phi^T u from its tables; a plain array uses A^T A
    and A^T u. Directions with s at round-off level get a = 0.
    """
    if isinstance(Phi, DesignMatrix):
        tables, gram, rmatvec = (Phi.sx, Phi.sy), Phi.gram, Phi.rmatvec
        dense = lambda: Phi.values
    else:
        Phi = np.asarray(Phi, dtype=float)
        tables, gram, rmatvec = (Phi,), lambda: Phi.T @ Phi, lambda v: Phi.T @ v
        dense = lambda: Phi
    u = np.asarray(u, dtype=float)
    if not (all(np.all(np.isfinite(t)) for t in tables) and np.all(np.isfinite(u))):
        raise ValueError("non-finite entries in the ridge system")
    m, n = Phi.shape
    if u.shape != (m,):
        raise ValueError("observation vector length does not match the design")
    s = None
    if m >= n:
        ev, V = np.linalg.eigh(gram())                      # ascending
        if ev[0] > 0 and ev[-1] <= _GRAM_MAX_EV_RATIO * ev[0]:
            s, Vt = np.sqrt(ev[::-1]), V[:, ::-1].T
    if s is None:
        _, s, Vt = np.linalg.svd(dense(), full_matrices=False)
    b = Vt @ rmatvec(u)
    tol = max(m, n) * np.finfo(float).eps * s[0]
    a = np.divide(b, s, out=np.zeros_like(b), where=s > tol)
    return RidgeSVD(s, Vt, a, float(u @ u), m)


def default_lambda_grid() -> np.ndarray:
    """Log-spaced search grid over [1e-12, 1e2], 8 points per decade."""
    return np.logspace(-12.0, 2.0, 14 * 8 + 1)


def select_lambda_gcv(fit: RidgeSVD, grid=None):
    """Minimize the GCV score over a grid, then refine by golden section.

    Ties on the grid break toward larger (more regularizing) values. The
    refinement runs one golden-section search on log(lambda) in the interval
    bracketing the grid minimizer. Returns (lambda_star, edof, score).
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
    return float(best_lam), fit.edof(best_lam), float(best_score)


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

        The last pair is kept with private copies of x and y, so arrays
        changed in place get fresh tables.
        """
        last = self._tables
        if last and np.array_equal(last[0], x) and np.array_equal(last[1], y):
            return last[2], last[3]
        b = self.basis
        sx = _sine_table(x, b.N, b.L1)
        sy = _sine_table(y, b.N, b.L2)
        object.__setattr__(self, "_tables", (x.copy(), y.copy(), sx, sy))
        return sx, sy

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
        return cls(basis, w, doc["lambda"], doc["edof"], {"seed": doc.get("seed")})


def fit_spectral_model(problem, N: int, m: int, seed: int = 0) -> SpectralModel:
    """Full fitting pipeline: sample, design matrix, SVD, GCV, weights.

    The ridge parameter is searched over `default_lambda_grid()`.
    """
    basis = SpectralBasis(N, problem.L1, problem.L2, problem.c)
    pts = lhs_sample(m, problem.L1, problem.L2, seed=seed)
    Phi = build_design_matrix(pts, basis)
    u = np.asarray(problem.initial_condition()(pts[:, 0], pts[:, 1]), dtype=float)
    fit = ridge_fit_svd(Phi, u)
    lam, edof, score = select_lambda_gcv(fit)
    diagnostics = {
        "seed": seed,
        "m": m,
        "gcv_score": score,
        "residual_norm": float(np.sqrt(fit.rss(lam))),
    }
    return SpectralModel(basis, fit.coefficients(lam), lam, edof, diagnostics)


def predict(model: SpectralModel, x, y, t: float):
    """Evaluate the surrogate at points (x, y) and time t.

    Repeated calls at equal point arrays (one per evaluation time in an
    error report) reuse the model's sine tables of the previous call.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    b = model.basis
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    if np.any(x < 0) or np.any(x > b.L1) or np.any(y < 0) or np.any(y > b.L2):
        raise ValueError("evaluation point outside the closed rectangle")
    sx, sy = model.sine_tables(x, y)
    Wt = model.weights.reshape(b.N, b.N) * np.cos(b.omegas * t)
    out = np.einsum("pk,pk->p", sx @ Wt, sy)
    return float(out[0]) if scalar else out

"""Fitting the spectral surrogate and watching GCV pick the ridge weight.

The surrogate's coefficients come from a ridge regression of the sampled
initial condition onto the sine basis. One ridge fit factors the design
matrix and projects the samples onto it once; generalized cross-validation
then scores every candidate ridge parameter from that fit alone. This
script prints a slice of the GCV curve around the winning lambda, the
resulting effective degrees of freedom, and which factorization the fit
used (the tridiagonal reduction of the Gram matrix, or the direct SVD
fallback) with the Gram eigenvalue ratio it was chosen by, and the
seconds of the fit's three stages.

Run:  python3 demos/gcv_selection.py
"""

import numpy as np

from wavebench import spectral
from wavebench.problem import WaveProblem


def main():
    problem = WaveProblem(ic="polynomial")
    N, m = 12, 1200

    basis = spectral.SpectralBasis(N, problem.L1, problem.L2, problem.c)
    pts = spectral.lhs_sample(m, problem.L1, problem.L2, seed=0)
    Phi = spectral.build_design_matrix(pts, basis)
    u = problem.initial_condition()(pts[:, 0], pts[:, 1])
    fit = spectral.ridge_fit_svd(Phi, u)

    grid = spectral.default_lambda_grid()
    scores = np.array([fit.gcv(lam) for lam in grid])
    best = int(np.argmin(scores))

    print("      lambda        GCV score       edof")
    for i in range(max(best - 4, 0), min(best + 5, grid.size)):
        mark = "  <-- grid minimum" if i == best else ""
        print(f"{grid[i]:12.3e}  {scores[i]:14.6e}  {fit.edof(grid[i]):9.1f}{mark}")

    lam, edof, score, _ = spectral.select_lambda_gcv(fit, grid)
    print(f"\nafter golden-section refinement: lambda = {lam:.3e}, "
          f"edof = {edof:.1f}, score = {score:.6e}")

    model = spectral.fit_spectral_model(problem, N, m, seed=0)
    d = model.diagnostics
    print(f"factorization: {d['factor']}, Gram eigenvalue ratio "
          f"{d['ev_ratio']:.2f}, lambda at a grid end: "
          f"{d['lambda_at_grid_edge']}")
    print(f"fit stages: design {d['design_s']:.4f} s, factor "
          f"{d['factor_s']:.4f} s, GCV {d['gcv_s']:.4f} s")
    mid = float(spectral.predict(model, 0.5, 0.5, 0.0))
    print(f"fitted model reproduces u0(0.5, 0.5) = 1/16: {mid:.8f}")


if __name__ == "__main__":
    main()

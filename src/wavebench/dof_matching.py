"""Fairness protocol: match the FEM discretization to the surrogate's DoF.

The surrogate's complexity is its effective DoF (hat-matrix trace). The FEM
run with n intervals per direction and time step T/n has (n-1)^2 interior
nodes and n+1 time levels, so its DoF is (n-1)^2 (n+1). Matching takes the
smallest n whose DoF reaches the target, so the nearest achievable
resolution is n-1 or n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MatchResult", "dof_cn", "match_cn_to_dof"]


@dataclass(frozen=True)
class MatchResult:
    """Matched FEM resolution for a given effective DoF."""

    n: int
    dt: float
    Nt: int
    dof_cn: int
    mismatch: float


def dof_cn(n: int, Nt_levels: int) -> int:
    """FEM degrees of freedom: interior nodes times time levels."""
    if n < 2:
        raise ValueError("need n >= 2 for interior nodes to exist")
    if Nt_levels < 1:
        raise ValueError("need at least one time level")
    return (n - 1) ** 2 * Nt_levels


def match_cn_to_dof(dof_ep: float, T: float) -> MatchResult:
    """Pick the integer resolution whose DoF is nearest the target.

    Ties break toward the smaller n. The time step is coupled to the
    spatial resolution, dt = T/n, giving n+1 stored time levels.
    """
    if not 1 <= dof_ep < math.inf:
        raise ValueError("effective DoF must be finite and at least 1")
    if not 0 < T < math.inf:
        raise ValueError("final time must be positive and finite")
    # (n-1)^2 (n+1) < n^3, so the smallest n with dof_cn >= dof_ep is at
    # least floor(cbrt(dof_ep)) and at most two steps above it
    n = max(2, math.floor(dof_ep ** (1.0 / 3.0)))
    while dof_cn(n, n + 1) < dof_ep:
        n += 1
    best = min({max(n - 1, 2), n},
               key=lambda k: (abs(dof_cn(k, k + 1) - dof_ep), k))
    d = dof_cn(best, best + 1)
    return MatchResult(n=best, dt=T / best, Nt=best, dof_cn=d,
                       mismatch=abs(d - dof_ep))

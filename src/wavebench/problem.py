"""Problem definition and initial conditions for the 2-D Dirichlet wave equation.

The governing problem is u_tt = c^2 (u_xx + u_yy) on the rectangle
(0, L1) x (0, L2) with u = 0 on the boundary, initial displacement u0 and
zero initial velocity.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable

import numpy as np

__all__ = [
    "WaveProblem",
    "ic_polynomial",
    "ic_mollifier",
    "ic_single_mode",
    "single_mode_solution",
]

IC_NAMES = ("polynomial", "mollifier", "single_mode")


def is_real_number(value) -> bool:
    """True for int and float values (numpy scalars too), False for bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def ic_polynomial(x, y):
    """Smooth polynomial bump x(1-x)y(1-y) on the unit square."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x * (1.0 - x) * y * (1.0 - y)


def ic_mollifier(x, y, x0=0.3, y0=0.7, R=0.24):
    """Compactly supported smooth bump centred at (x0, y0) with support radius R.

    Returns exp(-R^2 / (R^2 - r^2)) inside the support circle r < R and 0
    outside, where r^2 = (x-x0)^2 + (y-y0)^2.
    """
    if not R > 0:                                   # NaN fails too
        raise ValueError("support radius must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = (x - x0) ** 2 + (y - y0) ** 2
    R2 = R * R
    inside = r2 < R2
    out = np.zeros(np.broadcast(x, y).shape)
    # evaluate only strictly inside the support to avoid division by zero
    denom = np.where(inside, R2 - r2, 1.0)
    np.copyto(out, np.exp(-R2 / denom), where=inside)
    if out.ndim == 0:
        return float(out)
    return out


_MOLLIFIER_PARAMS = dict(zip(("x0", "y0", "R"), ic_mollifier.__defaults__))


def ic_single_mode(x, y, L1=1.0, L2=1.0):
    """Lowest standing mode sin(pi x / L1) sin(pi y / L2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sin(np.pi * x / L1) * np.sin(np.pi * y / L2)


def single_mode_solution(x, y, t, c=1.0, L1=1.0, L2=1.0):
    """Closed-form evolution of the single-mode initial condition.

    u(x, y, t) = sin(pi x/L1) sin(pi y/L2) cos(omega t) with
    omega = c pi sqrt(1/L1^2 + 1/L2^2).
    """
    omega = c * np.pi * np.sqrt(1.0 / L1**2 + 1.0 / L2**2)
    return ic_single_mode(x, y, L1, L2) * np.cos(omega * t)


@dataclass(frozen=True)
class WaveProblem:
    """Shared problem definition: domain, wave speed, horizon, initial data.

    The initial velocity is identically zero by construction; only the
    initial displacement is selectable, by a name from `IC_NAMES`. Only the
    mollifier takes `ic_params` (`x0`, `y0`, `R`). Both solvers impose u = 0
    on the boundary, so u0 must vanish there, by exact rules: L1 = L2 = 1 for
    the polynomial, 0 < R <= min(x0, L1 - x0, y0, L2 - y0) for the mollifier.
    """

    L1: float = 1.0
    L2: float = 1.0
    c: float = 1.0
    T: float = 1.0
    ic: str = "polynomial"
    ic_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("L1", "L2", "c", "T"):
            v = getattr(self, name)
            if not is_real_number(v):
                raise ValueError(f"{name} must be a number, got {v!r}")
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be strictly positive, got {v}")
        if not isinstance(self.ic_params, dict):
            raise ValueError(f"ic_params must be a dict, got {self.ic_params!r}")
        if self.ic not in IC_NAMES:
            raise ValueError(f"unknown initial condition {self.ic!r}; "
                             f"expected one of {IC_NAMES}")
        params = dict(self.ic_params)
        if not all(map(is_real_number, params.values())):
            raise ValueError(f"ic_params values must be numbers, got {params}")
        params = {k: float(v) for k, v in params.items()}
        # a read-only copy, so no change after these checks can skip them
        object.__setattr__(self, "ic_params", MappingProxyType(params))
        if self.ic != "mollifier" and params:
            raise ValueError(f"the {self.ic} initial condition takes no "
                             f"ic_params, got {params}")
        if self.ic == "polynomial" and not self.L1 == self.L2 == 1:
            raise ValueError(f"x(1-x)y(1-y) is not zero on the boundary unless"
                             f" L1 = L2 = 1, got {self.L1} and {self.L2}")
        if self.ic == "mollifier":
            unknown = sorted(params.keys() - _MOLLIFIER_PARAMS.keys())
            if unknown:
                raise ValueError(f"the mollifier takes ic_params x0, y0 and R;"
                                 f" unknown {', '.join(unknown)}")
            x0, y0, R = {**_MOLLIFIER_PARAMS, **params}.values()
            if not R > 0:                                # NaN fails too
                raise ValueError(f"support radius must be positive, got R={R}")
            # np.min keeps a NaN, so a NaN centre fails too
            if not R <= np.min([x0, self.L1 - x0, y0, self.L2 - y0]):
                raise ValueError(f"the mollifier is not zero on the boundary: "
                                 f"its support disk (x0={x0}, y0={y0}, R={R}) "
                                 "must satisfy R <= min(x0, L1-x0, y0, L2-y0)")

    def initial_condition(self) -> Callable:
        """Vectorized initial displacement u0(x, y)."""
        if self.ic == "polynomial":
            return ic_polynomial
        if self.ic == "mollifier":
            return lambda x, y: ic_mollifier(x, y, **self.ic_params)
        return lambda x, y: ic_single_mode(x, y, self.L1, self.L2)

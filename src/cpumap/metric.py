"""Singularity-free time-dilation profiles from environment-state families.

A radial coordinate r and mass M (geometric units, G = c = 1) map to the
dilation factor 32 M^3 exp(-r/2M) / r.  Evaluating it at r + r0 for a
fixed offset r0 > 0 keeps the profile finite down to r = 0, and each grid
point is realized as the charging constant phi of a synthesized
environment state, clipped at the truncation bound phi <= d - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .battery import EnvState
from .errors import DimensionError, DomainError

MAX_TRUNCATION = 1024  # largest d; each grid point allocates d x d matrices


@dataclass(frozen=True)
class MetricParams:
    """Mass, regularization offset, truncation and radial grid."""

    M: float
    r0: float
    d: int
    r_grid: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.M) and self.M > 0):
            raise DomainError(f"mass must be positive and finite, got {self.M}")
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise DomainError(f"offset r0 must be positive and finite, got {self.r0}")
        _check_truncation(self.d)
        grid = np.asarray(self.r_grid, dtype=float).reshape(-1)
        if grid.size == 0:
            raise DomainError("radial grid is empty")
        if not (grid[0] >= 0 and np.all(np.diff(grid) >= 0)):  # NaN fails
            raise DomainError("radial grid must be ascending and nonnegative")
        object.__setattr__(self, "r_grid", grid)


def _check_truncation(d: int) -> None:
    if d < 2:
        raise DimensionError(f"need truncation d >= 2, got {d}")
    if d > MAX_TRUNCATION:
        raise DimensionError(f"truncation d must be at most {MAX_TRUNCATION}, got {d}")


def default_r0(M: float) -> float:
    """Default offset 0.1 * M when none is specified."""
    return 0.1 * M


@dataclass(frozen=True)
class ProfileRecord:
    """One radial sample: target factor, achieved phi, and its environment."""

    r: float
    target_factor: float
    phi_achieved: float
    clipped: bool
    env: EnvState


@dataclass(frozen=True)
class MetricProfile:
    records: tuple[ProfileRecord, ...]
    params: MetricParams


def dilation_factor(r: float, M: float) -> float:
    """Kruskal-form dilation factor 32 M^3 exp(-r/2M) / r.

    Raises DomainError where the factor overflows the float range.
    """
    if r <= 0 or M <= 0:
        raise DomainError(f"need r > 0 and M > 0, got r={r}, M={M}")
    try:
        cube = M**3
    except OverflowError:
        cube = math.inf
    factor = 32.0 * cube * math.exp(-r / (2.0 * M)) / r
    if not math.isfinite(factor):
        raise DomainError(f"dilation factor at r={r}, M={M} is not finite")
    return factor


def offset_factor(r: float, params: MetricParams) -> float:
    """dilation_factor evaluated at r + r0; finite at r = 0."""
    return dilation_factor(r + params.r0, params.M)


def synth_env(target_phi: float, d: int) -> tuple[EnvState, bool]:
    """Environment state with phi equal to ``target_phi``, clipping at d - 1.

    Unclipped targets use a two-level Fock-diagonal mixture
    (1-p)|0><0| + p|n><n| with n the smallest level >= target and
    p = target/n, aligned basis V = I.  Targets above d - 1 return the
    maximal state |d-1><d-1| with the clipped flag set.
    """
    if target_phi < 0:
        raise DomainError(f"target phi must be nonnegative, got {target_phi}")
    _check_truncation(d)
    spectrum = np.zeros(d)
    eye = np.eye(d, dtype=complex)
    if target_phi > d - 1:
        spectrum[d - 1] = 1.0
        return EnvState(dim=d, spectrum=spectrum, basis=eye), True
    if target_phi == 0.0:
        spectrum[0] = 1.0
        return EnvState(dim=d, spectrum=spectrum, basis=eye), False
    level = max(1, math.ceil(target_phi))
    p = target_phi / level
    spectrum[0] = 1.0 - p
    spectrum[level] += p
    return EnvState(dim=d, spectrum=spectrum, basis=eye), False


def build_profile(params: MetricParams) -> MetricProfile:
    """Evaluate the offset dilation factor over the grid and synthesize
    one environment per point; clipped exactly where the target exceeds
    the truncation bound d - 1."""
    from .battery import phi as phi_of

    records = []
    for r in params.r_grid:
        target = offset_factor(float(r), params)
        env, clipped = synth_env(target, params.d)
        records.append(
            ProfileRecord(
                r=float(r),
                target_factor=target,
                phi_achieved=phi_of(env),
                clipped=clipped,
                env=env,
            )
        )
    return MetricProfile(records=tuple(records), params=params)

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

from .battery import EnvState, _validate_env
from .errors import DomainError
from .linalg import _ensure_array_fits, _ensure_grid, _ensure_positive, _ensure_size, _prevalidated

MAX_TRUNCATION = 1024  # largest d; a profile allocates one d x d basis and P x d spectra
# a profile's peak memory per point besides its spectrum row: its other
# columns and the grid's and targets' transient Python floats
POINT_BYTES = 64  # 54 measured with tracemalloc on CPython 3.11 at d = 16, 42 at d = 2


@dataclass(frozen=True)
class MetricParams:
    """Mass, regularization offset, truncation and radial grid."""

    M: float
    r0: float
    d: int
    r_grid: np.ndarray

    def __post_init__(self):
        _ensure_positive(self.M, "mass")
        _ensure_positive(self.r0, "offset r0")
        object.__setattr__(self, "d", _ensure_size(self.d, "truncation d", 2, MAX_TRUNCATION))
        object.__setattr__(self, "r_grid", _ensure_grid(self.r_grid, "radial grid"))


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
    """A profile as read-only columns, one entry per grid point: the radius
    ``r``, the ``target`` factor, the achieved ``phi``, the ``clipped`` flag
    and a row of the (P, d) ``spectra``; every environment shares the one
    identity ``basis``."""

    params: MetricParams
    r: np.ndarray
    target: np.ndarray
    phi: np.ndarray
    clipped: np.ndarray
    spectra: np.ndarray
    basis: np.ndarray

    @property
    def records(self) -> tuple[ProfileRecord, ...]:
        """One ProfileRecord per point, built from the columns on each read;
        each environment holds a read-only row view and the shared basis."""
        d, basis = self.params.d, self.basis
        return tuple(
            _prevalidated(ProfileRecord, r=r, target_factor=target, phi_achieved=phi, clipped=flag,
                          env=_prevalidated(EnvState, dim=d, spectrum=spectrum, basis=basis))
            for r, target, phi, flag, spectrum in zip(
                self.r.tolist(), self.target.tolist(), self.phi.tolist(),
                self.clipped.tolist(), self.spectra)
        )


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


def _targets(r: np.ndarray, params: MetricParams) -> np.ndarray:
    """offset_factor at every radius of ``r``, bit for bit: the arithmetic of
    dilation_factor in its order, as array operations around math.exp per
    point (np.exp differs from it in the last bit for some r)."""
    M = params.M
    try:
        cube = M**3
    except OverflowError:
        cube = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        rr = r + params.r0
        arg = (-rr / (2.0 * M)).tolist()
        target = 32.0 * cube * np.fromiter(map(math.exp, arg), float, len(arg)) / rr
    finite = np.isfinite(target)
    if not finite.all():
        offset_factor(float(r[np.argmin(finite)]), params)  # raises its DomainError
    return target


def _spectra(targets: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (P, d) with phi equal to each target, and the clipped flags (P,).

    Targets above d - 1 get the maximal state |d-1><d-1| and the clipped
    flag; a zero target gets |0><0|; every other target t gets the
    two-level mixture (1-p)|0><0| + p|n><n| with n = max(1, ceil(t)) and
    p = t/n.
    """
    bad = ~(targets >= 0)  # NaN is bad too
    if bad.any():
        raise DomainError(f"target phi must be nonnegative, got {float(targets[bad][0])}")
    d = _ensure_size(d, "truncation d", 2, MAX_TRUNCATION)
    clipped = targets > d - 1
    spectra = np.zeros((targets.size, d))
    spectra[clipped, d - 1] = 1.0
    spectra[targets == 0.0, 0] = 1.0
    mixed = np.flatnonzero(~clipped & (targets > 0.0))
    t = targets[mixed]
    level = np.maximum(1.0, np.ceil(t))
    p = t / level
    spectra[mixed, 0] = 1.0 - p
    spectra[mixed, level.astype(np.intp)] = p
    return spectra, clipped


def synth_env(target_phi: float, d: int) -> tuple[EnvState, bool]:
    """Environment state with phi equal to ``target_phi``, clipping at d - 1.

    Unclipped targets use a two-level Fock-diagonal mixture
    (1-p)|0><0| + p|n><n| with n the smallest level >= target and
    p = target/n, aligned basis V = I.  Targets above d - 1 return the
    maximal state |d-1><d-1| with the clipped flag set.
    """
    spectra, clipped = _spectra(np.array([target_phi], dtype=float), d)
    env = EnvState(dim=d, spectrum=spectra[0], basis=np.eye(d, dtype=complex))
    return env, bool(clipped[0])


def build_profile(params: MetricParams) -> MetricProfile:
    """Evaluate the offset dilation factor over the grid and synthesize
    one environment per point; clipped exactly where the target exceeds
    the truncation bound d - 1.

    The spectra are validated together once against the identity basis.
    """
    d = params.d
    # checked before the P targets are computed
    _ensure_array_fits((params.r_grid.size,), 8 * d + POINT_BYTES, "profile points")
    r = params.r_grid.copy()
    target = _targets(r, params)
    spectra, clipped = _spectra(target, d)
    basis = np.eye(d, dtype=complex)
    _validate_env(spectra, basis)
    # phi of every row at once; exact because the basis is the identity
    achieved = np.arange(d, dtype=float) @ (np.abs(basis) ** 2) @ spectra.T
    for column in (r, target, achieved, clipped, spectra, basis):
        column.flags.writeable = False
    return MetricProfile(params=params, r=r, target=target, phi=achieved,
                         clipped=clipped, spectra=spectra, basis=basis)

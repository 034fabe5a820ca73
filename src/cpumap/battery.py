"""Quantum-battery charging on a truncated Fock space.

The battery exchanges excitations with an environment through the
number-preserving swap unitary U = sum_{n,r} |n,r><r,n|.  On the truncated
space this induces an exact replacement channel: the battery state is
replaced by the environment state sigma, and the dual map sends any
observable X to tr[sigma X] I.  For the number operator this gives

    Phi[N] = phi I,     phi = sum_{j,n} sigma_j n |<j|n>|^2,

so the stored charge grows exactly linearly, <N(t)> = rate * phi * t, for
every initial battery state.  phi is bounded by sum_j sigma_j j <= d - 1;
alignment of the environment eigenbasis with the Fock basis controls where
inside [0, phi_max] it falls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dual_map import EvolutionTrace, KrausSet, apply_dual_kraus
from .errors import DimensionError, DomainError
from .linalg import (
    _ensure_array_fits,
    _ensure_dim,
    _ensure_grid,
    _ensure_positive,
    _ensure_size,
    ensure_density_matrix,
    max_abs,
)

SPECTRUM_SUM_TOL = 1e-12
SPECTRUM_NEG_TOL = 1e-15
UNITARITY_TOL = 1e-9


def _validate_env(spectra: np.ndarray, basis: np.ndarray) -> None:
    """Check float spectra of shape (..., d) against one complex (d, d) basis.

    Every row must sum to 1 within SPECTRUM_SUM_TOL and weigh at least
    -SPECTRUM_NEG_TOL everywhere; the basis must be unitary within
    UNITARITY_TOL.  Each test is phrased so that a NaN entry fails it.
    """
    rows = spectra.reshape(-1, spectra.shape[-1])
    sums = rows.sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= SPECTRUM_SUM_TOL)
    if bad.any():
        raise DomainError(f"spectrum sums to {sums[bad][0]!r}, expected 1")
    if not float(rows.min()) >= -SPECTRUM_NEG_TOL:
        raise DomainError(f"spectrum has negative weight {rows.min()!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = max_abs(basis.conj().T @ basis - np.eye(basis.shape[0]))
    if not residual <= UNITARITY_TOL:
        raise DomainError("basis is not unitary within 1e-9")


@dataclass(frozen=True)
class EnvState:
    """Environment state: spectrum {sigma_j} and eigenbasis-to-Fock unitary.

    Column j of ``basis`` is the eigenvector |j> expressed in the Fock
    basis {|n>}, so the overlap <j|n> equals conj(basis[n, j]).

    The state owns ``spectrum`` and ``basis`` as read-only arrays, copying a
    caller's array that it could share memory with, so what the
    construction checked stays true: no later write by the caller reaches
    ``phi``, ``env_kraus`` or ``dual_apply_number``.
    """

    dim: int
    spectrum: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _ensure_size(self.dim, "environment d"))
        sig = np.asarray(self.spectrum, dtype=float).reshape(-1)
        v = np.asarray(self.basis, dtype=complex)
        if sig.shape[0] != self.dim or v.shape != (self.dim, self.dim):
            raise DimensionError(
                f"spectrum/basis shapes {sig.shape}/{v.shape} do not match d={self.dim}"
            )
        _validate_env(sig, v)
        for name, a in (("spectrum", sig), ("basis", v)):
            given = getattr(self, name)
            if isinstance(given, np.ndarray) and np.may_share_memory(a, given):
                a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def sigma_fock(self) -> np.ndarray:
        """The state V diag(sigma) V^dagger in the Fock basis."""
        return (self.basis * self.spectrum) @ self.basis.conj().T

    def phi_max(self) -> float:
        """Upper bound sum_j sigma_j j attained for aligned bases."""
        return float(np.dot(self.spectrum, np.arange(self.dim)))


@dataclass(frozen=True)
class BatteryConfig:
    """Truncation, environment, initial battery state and coupling rate."""

    d: int
    env: EnvState
    rho0: np.ndarray
    rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "d", _ensure_size(self.d, "battery d"))
        if self.env.dim != self.d:
            raise DimensionError(f"env dim {self.env.dim} does not match d={self.d}")
        _ensure_positive(self.rate, "rate")
        rho = _ensure_dim(ensure_density_matrix(self.rho0), self.d, "rho0")
        object.__setattr__(self, "rho0", rho)


def number_operator(d: int) -> np.ndarray:
    """diag(0, 1, ..., d-1): the excitation-number observable."""
    d = _ensure_size(d, "d", 2)
    _ensure_array_fits((d, d), 16, "number operator")
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def swap_unitary(d: int) -> np.ndarray:
    """Permutation exchanging the two tensor factors; U^2 = I and U = U^dagger."""
    d = _ensure_size(d, "d", 2)
    _ensure_array_fits((d * d, d * d), 8, "swap unitary")
    n, r = np.divmod(np.arange(d * d), d)
    u = np.zeros((d * d, d * d))
    u[n * d + r, r * d + n] = 1.0
    return u


def _env_rows(env: EnvState) -> np.ndarray:
    """Row j is sqrt(sigma_j) <j| in Fock coordinates: row i of E_{i,j} for every i."""
    return np.sqrt(np.clip(env.spectrum, 0.0, None))[:, None] * env.basis.conj().T


@functools.lru_cache(maxsize=8)
def _env_split(d: int) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """``(index, which, tags)`` of the d^2 operators E_{i,j}, flat index
    k = i*d + j: E_k is zero but for row ``index[k]`` = i, which holds row
    ``which[k]`` = j of :func:`_env_rows`, and is tagged ``E{i},{j}``.
    Built once per d; the arrays are read-only."""
    index, which = np.divmod(np.arange(d * d), d)
    index.flags.writeable = which.flags.writeable = False
    return index, which, tuple(f"E{i},{j}" for i in range(d) for j in range(d))


def env_kraus(env: EnvState) -> KrausSet:
    """The d^2 dual operators E_{i,j} = sqrt(sigma_j) |i><j| of the swap channel.

    |i> runs over the Fock basis and <j| over the environment eigenbasis
    expressed in Fock coordinates.  The primal channel sum E^dagger rho E
    replaces every rho by env.sigma_fock().

    The set is in row form: E_{i,j}'s one nonzero row, row i, is row j of
    the (d, d) array of rows sqrt(sigma_j) <j|, which the set holds once
    for all d^2 operators.  Its Kraus sums form each of the d rows'
    products once, in O(d^3), without writing or scanning the 16 d^4 bytes
    of the stack.  ``stack[i*d + j]`` is E_{i,j}, written on first read;
    the array budget refuses a d whose stack would exceed it.
    """
    d = env.dim
    _ensure_array_fits((d, d, d, d), 16, "swap-channel Kraus stack")
    index, which, tags = _env_split(d)
    return KrausSet._from_rows(d, index, which, _env_rows(env), tags)


def phi(env: EnvState) -> float:
    """Charging constant phi = sum_{j,n} sigma_j n |<j|n>|^2 = tr[sigma N]."""
    weights = np.abs(env.basis) ** 2          # weights[n, j] = |<j|n>|^2
    levels = np.arange(env.dim, dtype=float)
    return float(levels @ weights @ env.spectrum)


def dual_apply_number(env: EnvState) -> np.ndarray:
    """Explicit Kraus evaluation of Phi[N] through the row-form set of
    :func:`env_kraus`; equals phi(env) * I entrywise, and a per-operator
    loop to rounding, not bit for bit."""
    return apply_dual_kraus(env_kraus(env), number_operator(env.dim))


def simulate_charging(cfg: BatteryConfig, times) -> EvolutionTrace:
    """Charging trajectory <N(t)> = rate * phi * t.

    Phi[N] is proportional to the identity, so the slope is independent of
    the initial state; rho0 is validated but does not enter the values.
    """
    t = _ensure_grid(times, "times")
    slope = cfg.rate * phi(cfg.env)
    return EvolutionTrace.linear(t, slope)


def alignment_unitary(d: int, theta: float) -> np.ndarray:
    """One-parameter basis-alignment path V(theta), theta in [0, 1].

    Disjoint Givens rotations between levels a and d-1-a interpolate from
    the index-reversal permutation at theta = 0 to the identity at
    theta = 1.  For a spectrum sorted ascending, phi(V(theta)) is
    nondecreasing in theta; a spectrum concentrated on the top eigenvector
    gives phi(0) = 0 and phi(1) = d - 1.
    """
    d = _ensure_size(d, "d", 2)
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    _ensure_array_fits((d, d), 8, "alignment unitary")
    angle = (1.0 - theta) * np.pi / 2.0
    a = np.arange(d // 2)
    b = d - 1 - a
    v = np.eye(d)
    v[a, a] = v[b, b] = np.cos(angle)
    v[a, b] = 0.0 - np.sin(angle)  # +0.0 at theta = 1, as a product of the blocks gives
    v[b, a] = np.sin(angle)
    return v


def aligned_env(d: int, spectrum, theta: float = 1.0) -> EnvState:
    """EnvState with the given spectrum on the alignment path V(theta)."""
    return EnvState(dim=d, spectrum=spectrum, basis=alignment_unitary(d, theta))

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

from dataclasses import dataclass

import numpy as np

from .dual_map import EvolutionTrace, KrausSet, apply_dual_kraus
from .errors import DimensionError, DomainError
from .linalg import (
    _ensure_dim,
    _ensure_grid,
    _ensure_min_dim,
    _ensure_positive,
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
    """

    dim: int
    spectrum: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"environment d must be >= 1, got {self.dim}")
        sig = np.asarray(self.spectrum, dtype=float).reshape(-1)
        v = np.asarray(self.basis, dtype=complex)
        if sig.shape[0] != self.dim or v.shape != (self.dim, self.dim):
            raise DimensionError(
                f"spectrum/basis shapes {sig.shape}/{v.shape} do not match d={self.dim}"
            )
        _validate_env(sig, v)
        object.__setattr__(self, "spectrum", sig)
        object.__setattr__(self, "basis", v)

    @classmethod
    def _prevalidated(cls, dim: int, spectrum: np.ndarray, basis: np.ndarray) -> EnvState:
        """EnvState from arrays that already passed _validate_env, not checked again."""
        env = object.__new__(cls)
        object.__setattr__(env, "dim", dim)
        object.__setattr__(env, "spectrum", spectrum)
        object.__setattr__(env, "basis", basis)
        return env

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
        if self.env.dim != self.d:
            raise DimensionError(f"env dim {self.env.dim} does not match d={self.d}")
        _ensure_positive(self.rate, "rate")
        rho = _ensure_dim(ensure_density_matrix(self.rho0), self.d, "rho0")
        object.__setattr__(self, "rho0", rho)


def number_operator(d: int) -> np.ndarray:
    """diag(0, 1, ..., d-1): the excitation-number observable."""
    _ensure_min_dim(d)
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def swap_unitary(d: int) -> np.ndarray:
    """Permutation exchanging the two tensor factors; U^2 = I and U = U^dagger."""
    _ensure_min_dim(d)
    n, r = np.divmod(np.arange(d * d), d)
    u = np.zeros((d * d, d * d))
    u[n * d + r, r * d + n] = 1.0
    return u


def env_kraus(env: EnvState) -> KrausSet:
    """The d^2 dual operators E_{i,j} = sqrt(sigma_j) |i><j| of the swap channel.

    |i> runs over the Fock basis and <j| over the environment eigenbasis
    expressed in Fock coordinates.  The primal channel sum E^dagger rho E
    replaces every rho by env.sigma_fock().
    """
    d = env.dim
    sig = np.clip(env.spectrum, 0.0, None)
    stack = np.zeros((d, d, d, d), dtype=complex)   # stack[i, j] = E_{i,j}
    levels = np.arange(d)
    # row i of E_{i,j} is sqrt(sigma_j) <j| in Fock coordinates
    stack[levels, :, levels, :] = np.sqrt(sig)[:, None] * env.basis.conj().T
    tags = tuple(f"E{i},{j}" for i in range(d) for j in range(d))
    return KrausSet(dim=d, stack=stack.reshape(d * d, d, d), tags=tags)


def phi(env: EnvState) -> float:
    """Charging constant phi = sum_{j,n} sigma_j n |<j|n>|^2 = tr[sigma N]."""
    weights = np.abs(env.basis) ** 2          # weights[n, j] = |<j|n>|^2
    levels = np.arange(env.dim, dtype=float)
    return float(levels @ weights @ env.spectrum)


def dual_apply_number(env: EnvState) -> np.ndarray:
    """Explicit Kraus evaluation of Phi[N]; equals phi(env) * I entrywise."""
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
    _ensure_min_dim(d)
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
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
    return EnvState(dim=d, spectrum=np.asarray(spectrum, dtype=float),
                    basis=alignment_unitary(d, theta).astype(complex))

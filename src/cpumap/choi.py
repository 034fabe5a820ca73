"""Fixed-point Choi matrices.

Given a Hermitian target ``A`` and a unit vector ``v`` on the same
N-dimensional space, this module constructs an N^2 x N^2 Choi matrix ``Z``
whose dual map

    Phi[B] = tr_2[ Z (I (x) B^T) ]

is unital and leaves ``A`` invariant:

    Z = A (x) |v><v|^T / <v|A|v>
      + (I - A/<v|A|v>) / (N/trA - 1/<v|A|v>) (x) (I/trA - |v><v|^T/<v|A|v>)

Positivity of ``Z`` (hence complete positivity of the map) is equivalent,
whenever <v|A|v> > tr(A)/N, to the two-sided spectral bound checked by
:func:`positivity_bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionError,
    ZeroExpectation,
    ZeroTrace,
)
from .linalg import _ensure_min_dim, ensure_hermitian, max_abs, partial_trace_second

SCALAR_TOL = 1e-12     # |<v|A|v> - trA/N| below this is treated as degenerate
V_NORM_SLACK = 1e-6    # silently renormalize v when this close to unit norm
BOUND_TOL = 1e-9       # slack on the operator inequalities


@dataclass(frozen=True)
class FixedPointSpec:
    """Target observable ``a`` and reference unit vector ``v``.

    ``v`` is renormalized silently when within 1e-6 of unit norm and
    rejected otherwise.  Specs with tr(A) = 0 or <v|A|v> = 0 are rejected;
    a degenerate denominator <v|A|v> = tr(A)/N is rejected unless ``a`` is
    itself a multiple of the identity (where the singular term vanishes
    identically).

    The spec owns ``a`` and ``v`` as read-only arrays, so ``trace``,
    ``expectation`` and ``is_scalar`` are derived once and cannot go stale.
    """

    a: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        a = ensure_hermitian(self.a)
        if isinstance(self.a, np.ndarray) and np.may_share_memory(a, self.a):
            a = a.copy()
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        if v.shape[0] != a.shape[0]:
            raise DimensionError(
                f"v has length {v.shape[0]} but A is {a.shape[0]}x{a.shape[0]}"
            )
        nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= V_NORM_SLACK:  # NaN fails
            raise DimensionError(f"||v|| = {nrm} is not within 1e-6 of 1")
        v = v / nrm
        a.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)
        n = a.shape[0]
        t = self.trace
        e = self.expectation
        if abs(t) <= SCALAR_TOL:
            raise ZeroTrace("tr(A) is numerically zero")
        if abs(e) <= SCALAR_TOL:
            raise ZeroExpectation("<v|A|v> is numerically zero")
        if abs(e - t / n) <= SCALAR_TOL and not self.is_scalar:
            raise DegenerateDenominator(
                f"<v|A|v> = tr(A)/N = {e} makes the construction singular"
            )

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def trace(self) -> float:
        return float(np.real(np.trace(self.a)))

    @cached_property
    def expectation(self) -> float:
        """<v|A|v> (real for Hermitian A)."""
        return float(np.real(np.conj(self.v) @ self.a @ self.v))

    @cached_property
    def is_scalar(self) -> bool:
        """True when A is numerically a multiple of the identity."""
        n = self.a.shape[0]
        t = self.trace
        return max_abs(self.a - (t / n) * np.eye(n)) <= SCALAR_TOL * max(1.0, abs(t))


@dataclass(frozen=True)
class ChoiMatrix:
    """N^2 x N^2 Choi matrix of a map on N x N observables.

    Hermiticity is enforced at construction; unitality is a property of
    correctly built instances and is measured (not enforced) via
    :func:`check_unital` so that perturbed matrices remain expressible.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = ensure_hermitian(self.matrix)
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"Choi matrix for dim {self.dim} must be "
                f"{self.dim**2}x{self.dim**2}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)


def build_fixed_point_choi(spec: FixedPointSpec) -> ChoiMatrix:
    """Construct the Choi matrix with ``spec.a`` as a fixed point.

    The result is always unital and fixes ``A``; positivity is *not*
    guaranteed and must be checked by the caller (``is_psd`` or
    :func:`positivity_bounds`).  When ``A`` is a multiple of the identity
    the singular second term has an identically zero numerator and is
    dropped, leaving Z = I (x) |v*><v*|.
    """
    n = spec.dim
    e = spec.expectation
    t = spec.trace
    proj_t = np.outer(spec.v, spec.v.conj()).T
    z = _kron(spec.a / e, proj_t)
    if not spec.is_scalar:
        denom = n / t - 1.0 / e
        # a new sum, not +=: at N = 16 the in-place form left later steps
        # page-faulting on fresh memory and ran slower
        z = z + _kron((np.eye(n) - spec.a / e) / denom, np.eye(n) / t - proj_t / e)
    return ChoiMatrix(dim=n, matrix=z)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of two N x N arrays as one broadcast: z[i, k, j, l] = x[i, j] * y[k, l]."""
    n = x.shape[0]
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(n * n, n * n)


def check_unital(z: ChoiMatrix) -> float:
    """Residual ||tr_2[Z] - I||_max of the unitality condition."""
    reduced = partial_trace_second(z.matrix, z.dim, z.dim)
    return max_abs(reduced - np.eye(z.dim))


def check_fixed_point(z: ChoiMatrix, a) -> float:
    """Residual ||tr_2[Z (I (x) A^T)] - A||_max of the fixed-point condition."""
    from .dual_map import apply_dual_choi

    return max_abs(apply_dual_choi(z, a) - a)


def positivity_bounds(spec: FixedPointSpec, tol: float = BOUND_TOL) -> tuple[bool, bool]:
    """Evaluate the two operator inequalities characterizing Z >= 0.

    Returns ``(lower_ok, upper_ok)`` where

        lower_ok:  A >= I (trA - <v|A|v>) / (N - 1)
        upper_ok:  I <v|A|v> >= A

    each tested through the minimum eigenvalue of the difference with
    slack ``-tol``.  Together they are equivalent to positivity of the
    constructed Choi matrix on the domain <v|A|v> > tr(A)/N.
    """
    n = spec.dim
    _ensure_min_dim(n, "dimension N")  # the lower bound divides by N - 1
    e = spec.expectation
    t = spec.trace
    lower_shift = (t - e) / (n - 1)
    pair = np.empty((2, n, n), dtype=complex)
    pair[0] = spec.a - lower_shift * np.eye(n)
    pair[1] = e * np.eye(n) - spec.a
    lower_min, upper_min = np.min(np.linalg.eigvalsh(pair), axis=1)
    return bool(lower_min >= -tol), bool(upper_min >= -tol)


def choi_is_psd(z: ChoiMatrix, tol: float = 1e-8) -> bool:
    """Direct positivity check of the Choi matrix; ``ChoiMatrix`` validated
    it as Hermitian at construction, so only the minimum eigenvalue is taken."""
    return bool(np.min(np.linalg.eigvalsh(z.matrix)) >= -tol)

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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionError,
    DomainError,
    ZeroExpectation,
    ZeroTrace,
)
from .linalg import _ensure_min_dim, _ensure_no_overflow, _psd_verdicts, ensure_hermitian, max_abs

SCALAR_TOL = 1e-12     # |<v|A|v> - trA/N| below this is treated as degenerate
V_NORM_SLACK = 1e-6    # silently renormalize v when this close to unit norm
BOUND_TOL = 1e-9       # slack on the operator inequalities
PSD_TOL = 1e-8         # slack on the direct Choi PSD check: lambda_min > -PSD_TOL


@dataclass(frozen=True)
class FixedPointSpec:
    """Target observable ``a`` and reference unit vector ``v``.

    ``v`` is renormalized silently when within 1e-6 of unit norm and
    rejected otherwise.  Specs with tr(A) = 0 or <v|A|v> = 0 are rejected;
    a degenerate denominator <v|A|v> = tr(A)/N is rejected unless ``a`` is
    itself a multiple of the identity (where the singular term vanishes
    identically).  A spec whose construction would overflow the float
    range raises ``DomainError``.

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
        # a norm, trace or expectation beyond the float range is inf (or NaN),
        # which the checks below reject
        with np.errstate(over="ignore", invalid="ignore"):
            nrm = float(np.linalg.norm(v))
            if not abs(nrm - 1.0) <= V_NORM_SLACK:
                raise DimensionError(f"||v|| = {nrm} is not within 1e-6 of 1")
            v = v / nrm
            a.flags.writeable = False
            v.flags.writeable = False
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "v", v)
            t = self.trace
            e = self.expectation
        n = a.shape[0]
        if not (math.isfinite(t) and math.isfinite(e)):
            raise DomainError(f"tr(A) = {t} or <v|A|v> = {e} overflows the float range")
        if abs(t) <= SCALAR_TOL:
            raise ZeroTrace("tr(A) is numerically zero")
        if abs(e) <= SCALAR_TOL:
            raise ZeroExpectation("<v|A|v> is numerically zero")
        # With s = max|A - (t/N) I| + |t|/N >= max|A_ij|, A's eigenvalues,
        # their gaps and the bound matrices stay within 3 N s, A/e within
        # N s/|e|, the second term within (1 + N s/|e|)(1/|t| + 1/|e|)/|N/t - 1/e|,
        # and a sum over an N^2 axis grows each by at most N^2: a spec whose
        # bound leaves the float range is rejected here rather than
        # overflowing downstream.  Python floats overflow to inf without a warning.
        s = self._deviation + abs(t) / n
        ratio = n * s / abs(e)
        size = 3 * n * s + ratio
        if not self.is_scalar:
            denom = abs(n / t - 1 / e)
            size += (1 + ratio) * (1 / abs(t) + 1 / abs(e)) / denom if denom else math.inf
        if not n * n * size < math.inf:
            raise DomainError(
                f"the entries of A with tr(A) = {t} and <v|A|v> = {e} "
                "overflow the float range in the construction"
            )
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
        return self._deviation <= SCALAR_TOL * max(1.0, abs(self.trace))

    @cached_property
    def _deviation(self) -> float:
        """max|A - (trA/N) I|; inf where a difference overflows."""
        n = self.a.shape[0]
        with np.errstate(over="ignore"):
            return max_abs(self.a - (self.trace / n) * np.eye(n))


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
        if self.dim < 1:
            raise DimensionError(f"Choi matrix dim must be >= 1, got {self.dim}")
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
    z = _choi_stack(spec.a[None], spec.v[None], spec.expectation, spec.trace, spec.is_scalar)
    return ChoiMatrix(dim=spec.dim, matrix=z[0])


def check_unital(z: ChoiMatrix) -> float:
    """Residual ||tr_2[Z] - I||_max of the unitality condition; DomainError
    where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(_unital_residuals(z.matrix[None])[0])
    return _ensure_no_overflow(residual, "unitality residual")


def check_fixed_point(z: ChoiMatrix, a) -> float:
    """Residual ||tr_2[Z (I (x) A^T)] - A||_max of the fixed-point condition;
    DomainError where it overflows."""
    from .dual_map import apply_dual_choi

    out = apply_dual_choi(z, a)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = max_abs(out - a)
    return _ensure_no_overflow(residual, "fixed-point residual")


def positivity_bounds(spec: FixedPointSpec) -> tuple[bool, bool]:
    """Evaluate the two operator inequalities characterizing Z >= 0.

    Returns ``(lower_ok, upper_ok)`` where

        lower_ok:  A >= I (trA - <v|A|v>) / (N - 1)
        upper_ok:  I <v|A|v> >= A

    each tested with slack ``-BOUND_TOL`` through the minimum eigenvalue of
    the difference, a scalar shift of A's smallest or largest eigenvalue, so
    one ``eigvalsh(A)`` gives both.  Together they are equivalent to
    positivity of the constructed Choi matrix on the domain <v|A|v> > tr(A)/N.
    """
    lower_min, upper_min = _bound_minima(spec.a[None], spec.expectation, spec.trace)[0]
    return bool(lower_min >= -BOUND_TOL), bool(upper_min >= -BOUND_TOL)


def choi_is_psd(z: ChoiMatrix) -> bool:
    """Direct positivity check of the Choi matrix: True iff its minimum
    eigenvalue is > -PSD_TOL up to rounding, decided by one Cholesky
    factorization of Z + PSD_TOL I.  ``ChoiMatrix`` validated Z as Hermitian
    at construction, so it is not checked again."""
    return bool(_psd_verdicts(z.matrix[None], PSD_TOL)[0])


# --- batched kernels ---------------------------------------------------------
#
# Each kernel works on a leading instance axis of B specs of one dimension N
# and gives, instance for instance, the same bits as a call per instance; the
# public functions above are the B = 1 case.  Expectations ``e`` and traces
# ``t`` are (B, 1, 1) arrays, or plain floats when B = 1.

_BATCH_BYTES = 2**20  # Choi data per batch: one N = 16 Choi matrix


def _batches(specs):
    """Split specs of one dimension into batches holding at most _BATCH_BYTES
    of Choi data, each all scalar or all non-scalar (a scalar spec drops the
    second term of the build)."""
    n = specs[0].dim
    size = max(1, _BATCH_BYTES // (16 * n**4))
    for scalar in (False, True):
        group = [spec for spec in specs if spec.is_scalar == scalar]
        for start in range(0, len(group), size):
            yield group[start:start + size]


def _spec_arrays(specs):
    """``a`` (B, N, N), ``v`` (B, N) and the expectations and traces as
    (B, 1, 1) arrays, ready to broadcast against ``a``."""
    a = np.array([spec.a for spec in specs])
    v = np.array([spec.v for spec in specs])
    e = np.array([spec.expectation for spec in specs])[:, None, None]
    t = np.array([spec.trace for spec in specs])[:, None, None]
    return a, v, e, t


def _choi_stack(a, v, e, t, scalar: bool) -> np.ndarray:
    """The (B, N^2, N^2) Choi matrices; ``scalar`` drops the second term."""
    n = a.shape[-1]
    proj_t = (v[:, :, None] * v.conj()[:, None, :]).transpose(0, 2, 1)
    z = _kron(a / e, proj_t)
    if not scalar:
        denom = n / t - 1.0 / e
        # a new sum, not +=: at N = 16 the in-place form left later steps
        # page-faulting on fresh memory and ran slower
        z = z + _kron((np.eye(n) - a / e) / denom, np.eye(n) / t - proj_t / e)
    return z


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of each pair in two (B, N, N) stacks as one broadcast:
    z[b, i, k, j, l] = x[b, i, j] * y[b, k, l]."""
    b, n = x.shape[:2]
    return (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(b, n * n, n * n)


def _bound_minima(a, e, t) -> np.ndarray:
    """(B, 2) minimum eigenvalues of A - I (trA - e)/(N - 1) and e I - A:
    lambda_min(A) - (trA - e)/(N - 1) and e - lambda_max(A), from one eigvalsh(A)."""
    n = a.shape[-1]
    _ensure_min_dim(n, "dimension N")  # the lower bound divides by N - 1
    evals = np.linalg.eigvalsh(a)
    e, t = np.reshape(e, -1), np.reshape(t, -1)
    return np.stack([evals[:, 0] - (t - e) / (n - 1), e - evals[:, -1]], axis=1)


def _unital_residuals(z: np.ndarray) -> np.ndarray:
    """||tr_2[Z_b] - I||_max for each matrix of a (B, N^2, N^2) stack."""
    b, n = z.shape[0], math.isqrt(z.shape[1])
    reduced = np.einsum("bikjk->bij", z.reshape(b, n, n, n, n))
    return np.max(np.abs(reduced - np.eye(n)), axis=(1, 2))


def _dual_action(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr_2[Z_b (I (x) B_b^T)] for a (B, N^2, N^2) and a (B, N, N) stack."""
    n = b.shape[-1]
    return np.einsum("bikjq,bkq->bij", z.reshape(b.shape[0], n, n, n, n), b)


def _fixed_point_residuals(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """||tr_2[Z_b (I (x) A_b^T)] - A_b||_max for each instance."""
    return np.max(np.abs(_dual_action(z, a) - a), axis=(1, 2))

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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionError,
    DomainError,
    HermiticityError,
    ZeroExpectation,
    ZeroTrace,
)
from .linalg import (
    HERM_TOL, _ensure_array_fits, _ensure_dim, _ensure_no_overflow, _ensure_size, _hermiticity_message,
    _non_hermitian, _owned, _prevalidated, _psd_verdicts, as_matrix, ensure_hermitian,
)

SCALAR_TOL = 1e-12     # |<v|A|v> - trA/N| below this is treated as degenerate
V_NORM_SLACK = 1e-6    # silently renormalize v when this close to unit norm
BOUND_TOL = 1e-9       # slack on the operator inequalities
PSD_TOL = 1e-8         # slack on the direct Choi PSD check: lambda_min > -PSD_TOL


@dataclass(frozen=True, eq=False)
class FixedPointSpec:
    """Target observable ``a`` and reference unit vector ``v``.

    ``v`` is renormalized silently when within 1e-6 of unit norm and
    rejected otherwise.  Specs with tr(A) = 0 or <v|A|v> = 0 are rejected;
    a degenerate denominator <v|A|v> = tr(A)/N is rejected unless ``a`` is
    itself a multiple of the identity (where the singular term vanishes
    identically).  A spec whose construction would overflow the float
    range raises ``DomainError``.

    ``trace``, ``expectation`` and ``is_scalar`` are derived once, by the
    batched validator ``_validate_specs`` with one draw.
    """

    a: np.ndarray
    v: np.ndarray
    trace: float = field(init=False, repr=False, compare=False)
    expectation: float = field(init=False, repr=False, compare=False)  # <v|A|v>
    is_scalar: bool = field(init=False, repr=False, compare=False)  # A numerically a multiple of I

    def __post_init__(self):
        a, v, t, e, scalar = _validate_specs(np.asarray(self.a, dtype=complex)[None], self.v)
        self.__dict__.update(a=_owned(a[0], self.a), v=_owned(v[0], self.v), trace=float(t[0]),
                             expectation=float(e[0]), is_scalar=bool(scalar[0]))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def _validate_specs(a: np.ndarray, v):
    """Validate B draws (A, v) at once: ``a`` is a complex (B, N, N) stack and
    ``v`` anything that reshapes to (B, N).

    The matrix work (finiteness, Hermiticity, norms, traces, expectations and
    the deviation of A from a multiple of I) runs on the whole stack; the
    checks then run draw by draw, in FixedPointSpec's order, on Python floats.
    The first failing draw raises the error it would raise alone, its message
    prefixed with "draw k: " when B > 1; a shape that fails every draw is
    reported as it is.  Returns ``a``, the renormalized (B, N) ``v`` and the
    (B,) arrays of traces, expectations and scalar flags, each entry the bits
    a single spec derives.
    """
    if a.ndim != 3:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim - 1}")
    b, n = a.shape[:2]

    def fail(k, cls, message):
        raise cls(f"draw {k}: {message}" if b > 1 else message)

    def check_a(k):
        if not finite[k]:
            fail(k, DimensionError, "matrix contains NaN or Inf entries")
        if hermitian_bad[k]:
            fail(k, HermiticityError, _hermiticity_message(residual[k], HERM_TOL))

    # the quantities are computed for every draw, also for those that fail a
    # check; a value beyond the float range is inf or NaN, which the checks reject
    with np.errstate(all="ignore"):
        finite = np.isfinite(a).reshape(b, -1).all(axis=1).tolist()
        square = a.shape[2] == n
        residual, hermitian_bad = _non_hermitian(a, HERM_TOL) if square else (None, [False] * b)
        if not square:  # a shape fails every draw, so draw 0 is the first to fail
            check_a(0)
            raise DimensionError(f"Hermitian matrix must be square, got {a.shape[1:]}")
        try:
            v = np.asarray(v, dtype=complex).reshape(b, -1)
        except (TypeError, ValueError):
            check_a(0)
            raise
        if v.shape[1] != n:
            check_a(0)
            raise DimensionError(f"v has length {v.shape[1]} but A is {n}x{n}")
        # per row and per draw, as a single spec computes them, so the bits agree
        nrm = np.array([np.linalg.norm(row) for row in v])
        v = v / nrm[:, None]
        t = a.trace(axis1=1, axis2=2).real
        e = np.array([(vk.conj() @ ak @ vk).real for ak, vk in zip(a, v)])
        deviation = np.abs(a - (t / n)[:, None, None] * np.eye(n)).reshape(b, -1).max(axis=1, initial=0.0)
    scalar = []
    for k, (nk, tk, ek, dk) in enumerate(zip(nrm.tolist(), t.tolist(), e.tolist(), deviation.tolist())):
        check_a(k)
        if not abs(nk - 1.0) <= V_NORM_SLACK:
            fail(k, DimensionError, f"||v|| = {nk} is not within 1e-6 of 1")
        if not (math.isfinite(tk) and math.isfinite(ek)):
            fail(k, DomainError, f"tr(A) = {tk} or <v|A|v> = {ek} overflows the float range")
        if abs(tk) <= SCALAR_TOL:
            fail(k, ZeroTrace, "tr(A) is numerically zero")
        if abs(ek) <= SCALAR_TOL:
            fail(k, ZeroExpectation, "<v|A|v> is numerically zero")
        is_scalar = dk <= SCALAR_TOL * max(1.0, abs(tk))
        # With s = max|A - (t/N) I| + |t|/N >= max|A_ij|, A's eigenvalues,
        # their gaps and the bound matrices stay within 3 N s, A/e within
        # N s/|e|, the second term within (1 + N s/|e|)(1/|t| + 1/|e|)/|N/t - 1/e|,
        # and a sum over an N^2 axis grows each by at most N^2: a spec whose
        # bound leaves the float range is rejected here rather than
        # overflowing downstream.  Python floats overflow to inf without a warning.
        s = dk + abs(tk) / n
        ratio = n * s / abs(ek)
        size = 3 * n * s + ratio
        if not is_scalar:
            denom = abs(n / tk - 1 / ek)
            size += (1 + ratio) * (1 / abs(tk) + 1 / abs(ek)) / denom if denom else math.inf
        if not n * n * size < math.inf:
            fail(k, DomainError, f"the entries of A with tr(A) = {tk} and <v|A|v> = {ek} "
                                 "overflow the float range in the construction")
        if abs(ek - tk / n) <= SCALAR_TOL and not is_scalar:
            fail(k, DegenerateDenominator, f"<v|A|v> = tr(A)/N = {ek} makes the construction singular")
        scalar.append(is_scalar)
    return a, v, t, e, np.array(scalar, dtype=bool)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """N^2 x N^2 Choi matrix of a map on N x N observables.

    Hermiticity is enforced at construction; unitality is a property of
    correctly built instances and is measured (not enforced) via
    :func:`check_unital` so that perturbed matrices remain expressible.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.__dict__.update(_choi_fields(self.dim, self.matrix, self.matrix))

    @classmethod
    def _from_matrix(cls, dim: int, matrix: np.ndarray) -> "ChoiMatrix":
        """A Choi matrix that keeps ``matrix``, a fresh complex array no
        caller holds, with the constructor's checks but not its copy."""
        return _prevalidated(cls, **_choi_fields(dim, matrix))


def _choi_fields(dim, matrix, given=None) -> dict:
    """The checked fields of a Choi matrix: a Hermitian ``matrix`` of shape
    (dim^2, dim^2), owned from the caller's ``given``."""
    dim, m = _ensure_size(dim, "Choi matrix dim"), ensure_hermitian(matrix)
    if m.shape != (dim**2, dim**2):
        raise DimensionError(f"Choi matrix for dim {dim} must be {dim**2}x{dim**2}, got {m.shape}")
    return {"dim": dim, "matrix": _owned(m, given)}


def build_fixed_point_choi(spec: FixedPointSpec) -> ChoiMatrix:
    """Construct the Choi matrix with ``spec.a`` as a fixed point.

    The result is always unital and fixes ``A``; positivity is *not*
    guaranteed and must be checked by the caller (``is_psd`` or
    :func:`positivity_bounds`).  When ``A`` is a multiple of the identity
    the singular second term has an identically zero numerator and is
    dropped, leaving Z = I (x) |v*><v*|.
    """
    z = _choi_stack(spec.a[None], spec.v[None], spec.expectation, spec.trace, spec.is_scalar)
    return ChoiMatrix._from_matrix(spec.dim, z[0])


def check_unital(z: ChoiMatrix) -> float:
    """Residual ||tr_2[Z] - I||_max of the unitality condition; DomainError
    where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(_unital_residuals(z.matrix[None])[0])
    return _ensure_no_overflow(residual, "unitality residual")


def check_fixed_point(z: ChoiMatrix, a) -> float:
    """Residual ||tr_2[Z (I (x) A^T)] - A||_max of the fixed-point condition;
    DomainError where it overflows."""
    a = _ensure_dim(as_matrix(a), z.dim, "observable")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(_fixed_point_residuals(z.matrix[None], a[None])[0])
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


def _batches(is_scalar: np.ndarray, n: int):
    """Split the indices of B specs of dimension N, given their (B,) scalar
    flags, into index arrays of batches holding at most _BATCH_BYTES of Choi
    data, each all scalar or all non-scalar (a scalar spec drops the second
    term of the build)."""
    size = max(1, _BATCH_BYTES // (16 * n**4))
    for scalar in (False, True):
        group = np.flatnonzero(is_scalar == scalar)
        for start in range(0, group.size, size):
            yield group[start:start + size]


def _choi_stack(a, v, e, t, scalar: bool) -> np.ndarray:
    """The (B, N^2, N^2) Choi matrices; ``scalar`` drops the second term."""
    n = a.shape[-1]
    _ensure_array_fits((len(a), n * n, n * n), 16, "Choi stack")
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
    _ensure_size(n, "dimension N", 2)  # the lower bound divides by N - 1
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

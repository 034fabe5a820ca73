"""Dense complex-matrix substrate: Kronecker products, partial traces,
Hermitian eigendecomposition with a deterministic phase convention,
tolerance-based predicates, and the input checks every module shares.

Conventions used throughout the package:
  * tensor index: |i> (x) |k| maps to flat index i*d2 + k (numpy kron order);
  * Hermiticity / eigenvalue tolerance HERM_TOL = 1e-9;
  * all functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, HermiticityError

HERM_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix contains NaN or Inf entries")
    return a


def max_abs(m) -> float:
    """Entrywise max-norm ||M||_max."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _ensure_no_overflow(out, what: str):
    """Raise DomainError when a result computed under np.errstate holds NaN or Inf."""
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{what} overflows the float range")
    return out


def ensure_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    """Validate Hermiticity and return the matrix: ||M - M^dagger||_max must
    not exceed ``tol * max(1, ||M||_max)``, so rounding in large entries passes."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"Hermitian matrix must be square, got {a.shape}")
    with np.errstate(over="ignore"):  # a difference beyond the float range is inf
        res = max_abs(a - a.conj().T)
    # the scale is taken only when the absolute test fails
    if res > tol and res > tol * max(1.0, max_abs(a)):
        raise HermiticityError(
            f"||M - M^dagger||_max = {res:.3e} exceeds {tol:.1e} x max(1, ||M||_max)"
        )
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply, first factor owns the slow index."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace_second(m, d1: int, d2: int) -> np.ndarray:
    """Trace out the second tensor factor of a (d1*d2) x (d1*d2) matrix.

    Preserves the total trace: tr(out) == tr(m).
    """
    a = as_matrix(m)
    if a.shape != (d1 * d2, d1 * d2):
        raise DimensionError(
            f"expected shape {(d1 * d2, d1 * d2)} for d1={d1}, d2={d2}, got {a.shape}"
        )
    return np.einsum("ikjk->ij", a.reshape(d1, d2, d1, d2))


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix with reproducible output.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as columns.  Each eigenvector is rephased so its first
    component of largest magnitude is real and positive; exact eigenvalue
    ties (within 1e-12) are ordered by lexicographic comparison of the
    phase-fixed vectors.
    """
    a = ensure_hermitian(h)
    evals, vecs = np.linalg.eigh(a)
    vecs = vecs.copy()
    n = a.shape[0]
    for k in range(n):
        col = vecs[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            vecs[:, k] = col * (abs(pivot) / pivot)
    # stable ordering inside numerically exact ties
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(evals[stop] - evals[start]) <= 1e-12:
            stop += 1
        if stop - start > 1:
            keys = [
                tuple(np.round(np.concatenate([vecs[:, k].real, vecs[:, k].imag]), 10))
                for k in range(start, stop)
            ]
            order = sorted(range(stop - start), key=lambda i: keys[i])
            vecs[:, start:stop] = vecs[:, [start + i for i in order]]
            evals[start:stop] = evals[[start + i for i in order]]
        start = stop
    return evals.astype(float), vecs


def is_psd(h, tol: float = HERM_TOL) -> bool:
    """True iff the minimum eigenvalue of a Hermitian matrix is > -tol, up to
    rounding: the verdict is whether h + tol I has a Cholesky factorization.
    ``tol`` must be finite and > 0 (DomainError otherwise); at tol = 0 the
    factorization would ask for strict definiteness.  ``tol`` is absolute, so
    for entries far above 1 rounding can outweigh it: the rank-1 PSD
    ``is_psd(np.full((3, 3), 1e200), 1e-8)`` is False."""
    _ensure_positive(tol, "tol")
    a = ensure_hermitian(h, max(tol, HERM_TOL))
    return bool(_psd_verdicts(a[None], tol)[0])


def _psd_verdicts(stack: np.ndarray, tol: float) -> np.ndarray:
    """For each Hermitian matrix M of a (B, n, n) stack, True iff M + tol I
    has a Cholesky factorization, i.e. lambda_min(M) > -tol up to rounding.

    One factorization per instance costs a fraction of a full ``eigvalsh``,
    and a failed one only fails its own instance.  Only the lower triangle is
    read, as ``eigvalsh`` reads it.
    """
    n = stack.shape[-1]
    verdicts = np.ones(stack.shape[0], dtype=bool)
    for i, m in enumerate(stack):
        shifted = m.copy()
        shifted.flat[::n + 1] += tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            verdicts[i] = False
    return verdicts


def ensure_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian and unit trace within HERM_TOL, and
    PSD within HERM_TOL (lambda_min > -HERM_TOL, decided as in :func:`is_psd`)."""
    from .errors import InvalidDensityMatrix

    a = as_matrix(rho)
    if a.shape[0] != a.shape[1]:
        raise InvalidDensityMatrix(f"density matrix must be square, got {a.shape}")
    with np.errstate(over="ignore"):  # inf fails the tests below
        res = max_abs(a - a.conj().T)
        tr = complex(np.trace(a))
    if res > HERM_TOL:
        raise InvalidDensityMatrix("density matrix is not Hermitian")
    if abs(tr - 1.0) > HERM_TOL:
        raise InvalidDensityMatrix(f"trace {tr} differs from 1 by more than {HERM_TOL:.1e}")
    if not _psd_verdicts(a[None], HERM_TOL)[0]:
        raise InvalidDensityMatrix("density matrix has a negative eigenvalue")
    return a


def _ensure_dim(a: np.ndarray, n: int, name: str) -> np.ndarray:
    """Check that an observable or state already coerced to 2-D is n x n."""
    if a.shape != (n, n):
        raise DimensionError(f"{name} shape {a.shape} does not match dim {n}")
    return a


def _ensure_min_dim(d: int, name: str = "d") -> None:
    if d < 2:
        raise DimensionError(f"need {name} >= 2, got {d}")


def _ensure_positive(x: float, name: str) -> None:
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be positive and finite, got {x}")


def _ensure_grid(values, name: str) -> np.ndarray:
    """A nonempty, finite, ascending and nonnegative float vector."""
    t = np.asarray(values, dtype=float).reshape(-1)
    if t.size == 0:
        raise DomainError(f"{name} is empty")
    if not (np.all(np.isfinite(t)) and t[0] >= 0 and np.all(np.diff(t) >= 0)):
        raise DomainError(f"{name} must be finite, ascending and nonnegative")
    return t

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
import operator

import numpy as np

from .errors import DimensionError, DomainError, HermiticityError

HERM_TOL = 1e-9
MAX_ARRAY_BYTES = 2**30  # the largest array a size-driven allocation may ask for


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


def _prevalidated(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given,
    without its __init__ or __post_init__: only for fields that already passed
    every check the constructor would make."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        res, bad = _non_hermitian(a[None], tol)
    if bad[0]:
        raise HermiticityError(_hermiticity_message(res[0], tol))
    return a


def _non_hermitian(stack: np.ndarray, tol: float) -> tuple[list[float], list[bool]]:
    """For each matrix M of a (B, n, n) stack: ||M - M^dagger||_max and whether
    it fails :func:`ensure_hermitian`'s test (NaN fails neither).  Call it
    under np.errstate: a difference beyond the float range is inf."""
    b = len(stack)
    res = np.abs(stack - stack.conj().swapaxes(1, 2)).reshape(b, -1).max(axis=1, initial=0.0).tolist()
    # the scale is taken only when the absolute test fails
    if not any(r > tol for r in res):
        return res, [False] * b
    scale = np.abs(stack).reshape(b, -1).max(axis=1, initial=0.0).tolist()
    return res, [r > tol and r > tol * max(1.0, m) for r, m in zip(res, scale)]


def _hermiticity_message(res: float, tol: float) -> str:
    return f"||M - M^dagger||_max = {res:.3e} exceeds {tol:.1e} x max(1, ||M||_max)"


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply, first factor owns the slow index."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace_second(m, d1: int, d2: int) -> np.ndarray:
    """Trace out the second tensor factor of a (d1*d2) x (d1*d2) matrix.

    Preserves the total trace: tr(out) == tr(m).
    """
    a = as_matrix(m)
    d1, d2 = _ensure_size(d1, "d1"), _ensure_size(d2, "d2")
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
    """Validate a density matrix: Hermitian as :func:`ensure_hermitian` decides
    at HERM_TOL, unit trace within HERM_TOL, and PSD within HERM_TOL
    (lambda_min > -HERM_TOL, decided as in :func:`is_psd`)."""
    from .errors import InvalidDensityMatrix

    a = as_matrix(rho)
    if a.shape[0] != a.shape[1]:
        raise InvalidDensityMatrix(f"density matrix must be square, got {a.shape}")
    with np.errstate(over="ignore"):  # inf fails the tests below
        non_hermitian = _non_hermitian(a[None], HERM_TOL)[1][0]
        tr = complex(np.trace(a))
    if non_hermitian:
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


def _ensure_array_fits(shape: tuple[int, ...], itemsize: int, name: str) -> None:
    """Refuse, before it is allocated, an array of ``shape`` and ``itemsize``
    bytes per item that exceeds MAX_ARRAY_BYTES: numpy would raise a
    MemoryError for it, or the process would be killed."""
    size = math.prod(shape) * itemsize
    if size > MAX_ARRAY_BYTES:
        raise DimensionError(f"{name} of shape {tuple(shape)} with {itemsize}-byte items needs "
                             f"{size / 2**30:.2f} GiB, above the {MAX_ARRAY_BYTES / 2**30:g} GiB array budget")


def _ensure_size(value, name: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as a Python int in [low, high], the one check of every size.
    Integers, numpy's included, pass through operator.index; a bool, a float
    or anything else raises DimensionError, as does a value out of range."""
    try:
        size = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        size = None
    if size is None or size < low:
        raise DimensionError(f"need integer {name} >= {low}, got {value!r}")
    if high is not None and size > high:
        raise DimensionError(f"need integer {name} <= {high}, got {value!r}")
    return size


def _ensure_positive(x: float, name: str) -> None:
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be positive and finite, got {x}")


def _ensure_grid(values, name: str) -> np.ndarray:
    """A nonempty, finite, ascending and nonnegative float vector."""
    t = np.asarray(values, dtype=float).reshape(-1)
    if t.size == 0:
        raise DomainError(f"{name} is empty")
    if not (np.all(np.isfinite(t)) and t[0] >= 0 and np.all(t[1:] >= t[:-1])):
        raise DomainError(f"{name} must be finite, ascending and nonnegative")
    return t

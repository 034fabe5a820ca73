"""Heisenberg-picture (dual) maps: action from Choi or Kraus form, Kraus
extraction for the fixed-point family, Choi <-> Kraus round trips, and the
linear-growth evolution of observables.

A :class:`KrausSet` stores the *dual* operators ``D_k`` acting as

    Phi[X] = sum_k D_k X D_k^dagger,        Phi[I] = sum_k D_k D_k^dagger = I.

With the row-major flattening used everywhere in this package, the Choi
matrix of such a map is ``Z = sum_k vec(D_k) vec(D_k)^dagger``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import ChoiMatrix, FixedPointSpec, _dual_action
from .errors import DimensionError, DomainError, NegativeSqrtArgument
from .linalg import _ensure_dim, _ensure_grid, as_matrix, eig_hermitian, ensure_density_matrix, max_abs

SQRT_TOL = 1e-12      # coefficient squares below -SQRT_TOL are positivity errors
GS_DROP_TOL = 1e-8    # Gram-Schmidt candidates below this norm are dropped


@dataclass(frozen=True)
class KrausSet:
    """Tagged dual Kraus operators of one map, stacked in one array.

    ``stack[k]`` is the operator tagged ``tags[k]``.  Tags follow the
    family each operator belongs to: ``B{i}`` for the reference-vector
    rays, ``C{i},{j}`` for the completed-basis rays and ``E{i},{j}`` for
    environment-interaction operators.
    """

    dim: int
    stack: np.ndarray
    tags: tuple[str, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"Kraus set dim must be >= 1, got {self.dim}")
        s = np.asarray(self.stack, dtype=complex)
        tags = tuple(str(tag) for tag in self.tags)
        if s.shape != (len(tags), self.dim, self.dim):
            raise DimensionError(
                f"stack has shape {s.shape}, expected "
                f"{(len(tags), self.dim, self.dim)} for {len(tags)} tags"
            )
        if not np.all(np.isfinite(s)):
            raise DimensionError("Kraus operators contain NaN or Inf entries")
        s = s.view()
        s.flags.writeable = False
        object.__setattr__(self, "stack", s)
        object.__setattr__(self, "tags", tags)

    @classmethod
    def from_ops(cls, dim: int, pairs) -> "KrausSet":
        """Stack ``(tag, matrix)`` pairs into one set; each shape is checked
        as its pair is drawn, before a lazy ``pairs`` produces the next."""
        tags, ops = [], []
        for tag, op in pairs:
            m = np.asarray(op, dtype=complex)
            if m.shape != (dim, dim):
                raise DimensionError(
                    f"operator {tag!r} has shape {m.shape}, expected {(dim, dim)}"
                )
            tags.append(tag)
            ops.append(m)
        stack = np.array(ops, dtype=complex).reshape(len(ops), dim, dim)
        return cls(dim=dim, stack=stack, tags=tuple(tags))

    @property
    def ops(self) -> tuple[tuple[str, np.ndarray], ...]:
        """``(tag, operator)`` pairs; each operator is a view into ``stack``."""
        return tuple(zip(self.tags, self.stack))


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled expectation values <A(t)> growing linearly in time."""

    times: np.ndarray
    values: np.ndarray
    phi_fit: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise DimensionError("times and values must be equal-length vectors")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DimensionError("trace contains non-finite entries")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def linear(cls, times: np.ndarray, slope: float) -> "EvolutionTrace":
        """The trace <A(t)> = slope * t; DomainError where a value overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = slope * times
        _ensure_no_overflow(values, f"slope {slope} over times up to {times[-1]}")
        return cls(times=times, values=values, phi_fit=slope)


def _ensure_no_overflow(out: np.ndarray, what: str) -> np.ndarray:
    """Raise DomainError when a result computed under np.errstate holds NaN or Inf."""
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{what} overflows the float range")
    return out


def apply_dual_choi(z: ChoiMatrix, b) -> np.ndarray:
    """Evaluate tr_2[Z (I (x) B^T)], Hermitian for Hermitian B; DomainError on overflow."""
    n = z.dim
    b = _ensure_dim(as_matrix(b), n, "observable")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _dual_action(z.matrix[None], b[None])[0]
    return _ensure_no_overflow(out, "dual action")


def apply_dual_kraus(k: KrausSet, b) -> np.ndarray:
    """Evaluate sum_k D_k B D_k^dagger; DomainError on overflow."""
    b = _ensure_dim(as_matrix(b), k.dim, "observable")
    out = np.zeros_like(b)
    with np.errstate(over="ignore", invalid="ignore"):
        for op in k.stack:
            out = out + op @ b @ op.conj().T
    return _ensure_no_overflow(out, "dual action")


def unitality_residual(k: KrausSet) -> float:
    """Residual ||Phi[I] - I||_max = ||sum D D^dagger - I||_max."""
    s = k.stack
    return max_abs((s @ s.conj().transpose(0, 2, 1)).sum(axis=0) - np.eye(k.dim))


def idempotence_residual(z: ChoiMatrix, b) -> float:
    """||Phi[Phi[B]] - Phi[B]||_max; zero for the fixed-point family."""
    once = apply_dual_choi(z, b)
    return max_abs(apply_dual_choi(z, once) - once)


def complete_basis(v: np.ndarray) -> list[np.ndarray]:
    """Deterministic orthonormal completion of ``v`` over canonical vectors.

    Returns ``[v, g_1, ..., g_{N-1}]``; canonical candidates are consumed in
    index order and dropped when their projected residual falls below 1e-8.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = v.shape[0]
    basis = [v / np.linalg.norm(v)]
    for idx in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[idx] = 1.0
        for b in basis:
            cand = cand - b * (np.conj(b) @ cand)
        nrm = float(np.linalg.norm(cand))
        if nrm >= GS_DROP_TOL:
            basis.append(cand / nrm)
    if len(basis) != n:
        raise DimensionError("basis completion failed; candidates degenerate")
    return basis


def kraus_from_fixed_point(spec: FixedPointSpec) -> KrausSet:
    """Extract the tagged dual Kraus family of the fixed-point map.

    Writing A = sum_i a_i |a_i><a_i| and e = <v|A|v>, t = tr A, the family
    consists of one operator per eigenvector on the ``v`` ray,

        B_i = sqrt(z_i) |a_i><v|,
        z_i = a_i/e + (1 - a_i/e)(1/t - 1/e) / (N/t - 1/e),

    and one per eigenvector and completion direction g_j orthogonal to v,

        C_ij = sqrt(w_i) |a_i><g_j|,   w_i = (1 - a_i/e) / ((N/t - 1/e) t).

    Each coefficient square is formed as a full product before the single
    square root.  The squares are exactly the eigenvalues of the Choi
    matrix, so :class:`NegativeSqrtArgument` is raised precisely when the
    spec violates positivity (any square below -1e-12).  For A proportional
    to the identity the C coefficients collapse to zero and z_i = 1.
    """
    n = spec.dim
    e = spec.expectation
    t = spec.trace
    avals, avecs = eig_hermitian(spec.a)
    if spec.is_scalar:
        z = np.ones(n)
        w = np.zeros(n)
    else:
        denom = n / t - 1.0 / e
        z = avals / e + (1.0 - avals / e) * (1.0 / t - 1.0 / e) / denom
        w = (1.0 - avals / e) / (denom * t)
    worst = float(min(np.min(z), np.min(w)))
    if worst < -SQRT_TOL:
        raise NegativeSqrtArgument(
            f"coefficient square {worst:.3e} < -1e-12: the spec is not "
            "completely positive"
        )
    z = np.clip(z, 0.0, None)
    w = np.clip(w, 0.0, None)
    a = avecs.T                           # row i is a_i
    g = np.conj(complete_basis(spec.v))   # row j is conj(g_j)
    stack = np.empty((n * n, n, n), dtype=complex)
    b_ops = stack[:n]                           # B_i = sqrt(z_i) |a_i><v|
    c_ops = stack[n:].reshape(n, n - 1, n, n)  # C_ij = sqrt(w_i) |a_i><g_j|
    np.multiply(a[:, :, None], g[0][None, None, :], out=b_ops)
    np.multiply(a[:, None, :, None], g[1:][None, :, None, :], out=c_ops)
    b_ops *= np.sqrt(z)[:, None, None]
    c_ops *= np.sqrt(w)[:, None, None, None]
    tags = [f"B{i}" for i in range(n)]
    tags += [f"C{i},{j}" for i in range(n) for j in range(1, n)]
    return KrausSet(dim=n, stack=stack, tags=tuple(tags))


def choi_from_kraus(k: KrausSet) -> ChoiMatrix:
    """Rebuild the Choi matrix Z = sum_k vec(D_k) vec(D_k)^dagger."""
    n = k.dim
    v = k.stack.reshape(len(k.tags), n * n)  # row k is vec(D_k)
    return ChoiMatrix(dim=n, matrix=v.T @ v.conj())


def evolve_linear(z: ChoiMatrix, a0, rho, times, rate: float = 1.0) -> EvolutionTrace:
    """Closed-form linear growth <A(t)> = rate * tr[rho Phi[A0]] * t.

    Repeated application of the map reproduces its first application, so
    the generator is the constant observable Phi[A0] and the expectation
    grows exactly linearly from <A(0)> = 0.
    """
    rho = _ensure_dim(ensure_density_matrix(rho), z.dim, "rho")
    t = _ensure_grid(times, "times")
    generator = apply_dual_choi(z, a0)
    slope = rate * float(np.real(np.trace(rho @ generator)))
    return EvolutionTrace.linear(t, slope)


def evolve_linear_euler(z: ChoiMatrix, a0, rho, times) -> np.ndarray:
    """Explicit Euler accumulation of dA/dt = Phi[A0] over the grid.

    Independent verification route for :func:`evolve_linear`; grid point k
    is reached by stepping the operator accumulator from grid point k-1.
    """
    rho = _ensure_dim(ensure_density_matrix(rho), z.dim, "rho")
    t = _ensure_grid(times, "times")
    generator = apply_dual_choi(z, a0)
    acc = t[0] * generator
    values = [float(np.real(np.trace(rho @ acc)))]
    for k in range(1, t.size):
        acc = acc + (t[k] - t[k - 1]) * generator
        values.append(float(np.real(np.trace(rho @ acc))))
    return np.asarray(values)

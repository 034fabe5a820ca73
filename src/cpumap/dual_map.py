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
from .errors import DimensionError, NegativeSqrtArgument
from .linalg import (
    _ensure_array_fits, _ensure_dim, _ensure_grid, _ensure_no_overflow, _ensure_positive, _ensure_size, _owned,
    _prevalidated, as_matrix, eig_hermitian, ensure_density_matrix, ensure_hermitian, max_abs,
)

SQRT_TOL = 1e-12      # coefficient squares below -SQRT_TOL are positivity errors
GS_DROP_TOL = 1e-8    # Gram-Schmidt candidates below this norm are dropped
KRAUS_CHUNK_BYTES = 256 * 1024  # bytes of operators per chunk of the Kraus dual action


@dataclass(frozen=True, repr=False, eq=False)
class KrausSet:
    """Tagged dual Kraus operators of one map, stacked in one array.

    ``stack[k]`` is the operator tagged ``tags[k]``.  Tags follow the
    family each operator belongs to: ``B{i}`` for the reference-vector
    rays, ``C{i},{j}`` for the completed-basis rays and ``E{i},{j}`` for
    environment-interaction operators.

    Whether every operator has at most one nonzero row is decided once,
    when the set is built.  Such a set also holds its operators in row
    form: operator k is zero but for row ``index[k]``, which holds
    ``rows[which[k]]``, and its Kraus sums read those rows alone, each
    distinct row once.  A set found in row form from its stack keeps its K
    rows with ``which`` the identity.  A set built by :meth:`_from_rows`
    holds the row form only; its ``stack`` is written from the rows on
    first read and kept.  The class generates no ``__repr__`` or
    ``__eq__``: both would read ``stack``, writing it for a row-form set,
    and ``==`` on two stacks has no truth value; sets compare by identity.
    """

    dim: int
    stack: np.ndarray
    tags: tuple[str, ...]

    _rows = None  # (index, which, rows) of a row-form set; a class attribute, not a field

    def __post_init__(self):
        self.__dict__.update(_stack_fields(self.dim, self.stack, self.tags, self.stack))

    @classmethod
    def _from_stack(cls, dim: int, stack: np.ndarray, tags) -> "KrausSet":
        """A set that keeps ``stack``, a fresh complex array no caller holds,
        without the copy the constructor makes of a caller's array."""
        return _prevalidated(cls, **_stack_fields(dim, stack, tags))

    @classmethod
    def _from_rows(cls, dim: int, index: np.ndarray, which: np.ndarray, rows: np.ndarray, tags) -> "KrausSet":
        """A row-form set: operator k is zero but for row ``index[k]``, which
        holds ``rows[which[k]]``.  Like :meth:`_from_stack`, it checks
        nothing: ``tags`` is a tuple of K str, ``index`` and ``which`` hold K
        integers, in [0, dim) and in [0, len(rows)), and ``rows`` is a
        finite complex (R, dim) array.  The three arrays must be fresh or
        read-only arrays no caller writes; the set keeps them, read-only,
        without a copy.  The caller checks that the (K, dim, dim) stack fits
        the array budget."""
        index.flags.writeable = which.flags.writeable = rows.flags.writeable = False
        return _prevalidated(cls, dim=dim, tags=tags, _rows=(index, which, rows))

    def __getattr__(self, name):
        # reached only when ``name`` is not set: ``stack`` of a row-form set
        # before its first read is written from the rows here and kept
        if name != "stack" or self._rows is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        stack = _stack_from_rows(self.dim, *self._rows)
        stack.flags.writeable = False
        self.__dict__["stack"] = stack
        return stack

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
        return cls._from_stack(dim, stack, tags)

    @property
    def ops(self) -> tuple[tuple[str, np.ndarray], ...]:
        """``(tag, operator)`` pairs; each operator is a view into ``stack``."""
        return tuple(zip(self.tags, self.stack))


def _ensure_tags(tags) -> tuple[str, ...]:
    tags = tuple(str(tag) for tag in tags)
    if not tags:
        raise DimensionError("a Kraus set needs at least one operator")
    return tags


def _ensure_finite_ops(ops: np.ndarray) -> None:
    if not np.all(np.isfinite(ops)):
        raise DimensionError("Kraus operators contain NaN or Inf entries")


def _stack_fields(dim, stack, tags, given=None) -> dict:
    """The checked fields of a set stored as the complex (K, dim, dim)
    ``stack``, owned from the caller's ``given``, with the read-only row
    form of its operators if each has at most one nonzero row: its K rows,
    each its own distinct row."""
    dim, tags = _ensure_size(dim, "Kraus set dim"), _ensure_tags(tags)
    s = np.asarray(stack, dtype=complex)
    if s.shape != (len(tags), dim, dim):
        raise DimensionError(
            f"stack has shape {s.shape}, expected "
            f"{(len(tags), dim, dim)} for {len(tags)} tags"
        )
    _ensure_finite_ops(s)
    s = _owned(s, given)
    fields = {"dim": dim, "stack": s, "tags": tags}
    index = _single_rows(s)
    if index is not None:
        which = np.arange(len(s))
        rows = s[which, index]
        index.flags.writeable = which.flags.writeable = rows.flags.writeable = False
        fields["_rows"] = (index, which, rows)
    return fields


def _stack_from_rows(dim: int, index: np.ndarray, which: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (K, dim, dim) stack whose operator k is zero but for row
    ``index[k]``, which holds ``rows[which[k]]``."""
    stack = np.zeros((len(index), dim, dim), dtype=complex)
    stack[np.arange(len(index)), index] = rows[which]
    return stack


@dataclass(frozen=True, eq=False)
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
    with np.errstate(over="ignore", invalid="ignore"):
        out = _set_sum(k, b)
    return _ensure_no_overflow(out, "dual action")


def _set_sum(k: KrausSet, b: np.ndarray) -> np.ndarray:
    """sum_k D_k B D_k^dagger over a set: through the rows of a set held in
    row form, else through its stack."""
    if k._rows is not None:
        return _row_sum(*k._rows, b)
    return _kraus_sum(k.stack, b)


def _kraus_sum(stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k D_k B D_k^dagger over a (K, n, n) stack, in operator order.

    The stack is summed in slices of :func:`_kraus_chunk_len` operators,
    each with the two dense products of :func:`_add_dense_terms`, in
    O(K n^3); the terms are added in operator order, with the bits of a
    loop ``out = out + D_k B D_k^dagger``.  A set whose operators each have
    at most one nonzero row never comes here: :func:`_set_sum` sends its
    rows to :func:`_row_sum`.
    """
    n_ops, n, _ = stack.shape
    r = _kraus_chunk_len(n_ops, n)
    buf = np.zeros((r + 1, n, n), dtype=complex)   # slot 0 is the running total
    for start in range(0, n_ops, r):
        _add_dense_terms(buf, stack[start:start + r], b)
    return buf[0].copy()


def _kraus_chunk_len(n_ops: int, n: int) -> int:
    """Operators per chunk of a Kraus sum: as many n x n complex operators as
    fit in KRAUS_CHUNK_BYTES, at least one and at most ``n_ops``."""
    return min(n_ops, max(1, KRAUS_CHUNK_BYTES // (16 * n * n)))


def _single_rows(stack: np.ndarray):
    """The index of each operator's one nonzero row in a (K, n, n) stack, or
    None unless every operator has at most one; run once, as a set is built.
    An all-zero operator counts: its row is 0 and its term, an exact +-0,
    changes no bit of the running total, which starts at +0 and so is never
    -0.  The first nonzero operator is tested on its own first, found in
    windows of 1, 1, 2, 4, ... operators, so a dense stack costs at most
    twice the read up to it, zero operators before it included; one row
    holds at most n nonzero entries, so a count of them refuses a dense
    operator before its rows are read.  Otherwise the whole stack is then
    read once."""
    start, size = 0, 1
    while start < len(stack):
        window = stack[start:start + size]
        if np.count_nonzero(window):
            first = window[window.any(axis=(1, 2)).argmax()]
            if np.count_nonzero(first) > len(first) or np.count_nonzero(first.any(axis=1)) > 1:
                return None
            break
        start += size
        size = start
    nonzero = stack.any(axis=2)
    if not np.all(nonzero.sum(axis=1) <= 1):
        return None
    return nonzero.argmax(axis=1)


def _row_sum(index: np.ndarray, which: np.ndarray, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k D_k B D_k^dagger for K operators whose one nonzero row is
    ``index[k]`` and holds ``rows[which[k]]``: the term is the scalar
    q = r B r^dagger of its row r at entry (index[k], index[k]).  The R
    distinct rows cost O(R n^2) and the K operators O(K): one GEMM forms
    every r B, once per distinct row.  The products are then overwritten
    with their conjugates, whose dot products with the rows give conj(q):
    conjugation only flips signs, so these are q's bits with the imaginary
    sign flipped, and the rows need neither a conjugated copy, which costs
    a fresh (R, n) buffer, nor a write.  ``np.add.at`` adds ``q[which]`` to
    the diagonal in operator order.  A row of the GEMM does not depend on
    the other rows, so the sum has the bits of the K rows gathered and
    summed; the tests check this bit for bit."""
    n = rows.shape[1]
    total = np.zeros((n, n), dtype=complex)
    sb = rows @ b
    q = np.einsum("kl,kl->k", np.conjugate(sb, out=sb), rows).conj()
    np.add.at(total.reshape(-1)[::n + 1], index, q[which])
    return total


def _add_dense_terms(buf: np.ndarray, ops: np.ndarray, b: np.ndarray) -> None:
    """Add D_k B D_k^dagger for every operator of a chunk to ``buf[0]``: one
    GEMM forms every D_k B, one batched matmul writes (D_k B) D_k^dagger into
    slots 1..m and a sum over axis 0 adds them to slot 0.  That sum runs slot
    by slot, so the terms are added in operator order."""
    m, n, _ = ops.shape
    db = (ops.reshape(m * n, n) @ b).reshape(m, n, n)
    np.matmul(db, ops.conj().transpose(0, 2, 1), out=buf[1:m + 1])
    buf[:m + 1].sum(axis=0, out=buf[0])


def unitality_residual(k: KrausSet) -> float:
    """Residual ||Phi[I] - I||_max = ||sum D D^dagger - I||_max; DomainError
    where it overflows."""
    eye = np.eye(k.dim, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = max_abs(_set_sum(k, eye) - eye)
    return _ensure_no_overflow(residual, "unitality residual")


def idempotence_residual(z: ChoiMatrix, b) -> float:
    """||Phi[Phi[B]] - Phi[B]||_max; zero for the fixed-point family.
    DomainError where the residual overflows."""
    once = apply_dual_choi(z, b)
    twice = apply_dual_choi(z, once)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = max_abs(twice - once)
    return _ensure_no_overflow(residual, "idempotence residual")


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
    _ensure_array_fits((n * n, n, n), 16, "Kraus stack")
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
    return KrausSet._from_stack(n, stack, tags)


def choi_from_kraus(k: KrausSet) -> ChoiMatrix:
    """Rebuild the Choi matrix Z = sum_k vec(D_k) vec(D_k)^dagger."""
    n = k.dim
    _ensure_array_fits((n * n, n * n), 16, "Choi matrix")
    v = k.stack.reshape(len(k.tags), n * n)  # row k is vec(D_k)
    return ChoiMatrix._from_matrix(n, np.matmul(v.T, v.conj()))


def evolve_linear(z: ChoiMatrix, a0, rho, times, rate: float = 1.0) -> EvolutionTrace:
    """Closed-form linear growth <A(t)> = rate * tr[rho Phi[A0]] * t.

    Repeated application of the map reproduces its first application, so
    the generator is the constant observable Phi[A0] and the expectation
    grows exactly linearly from <A(0)> = 0.  A0 must be Hermitian and
    ``rate`` positive.
    """
    _ensure_positive(rate, "rate")
    rho = _ensure_dim(ensure_density_matrix(rho), z.dim, "rho")
    t = _ensure_grid(times, "times")
    generator = apply_dual_choi(z, ensure_hermitian(a0))
    slope = rate * float(np.real(np.trace(rho @ generator)))
    return EvolutionTrace.linear(t, slope)


def evolve_linear_euler(z: ChoiMatrix, a0, rho, times) -> np.ndarray:
    """Explicit Euler accumulation of dA/dt = Phi[A0] over the grid.

    Independent verification route for :func:`evolve_linear`; grid point k
    is reached by stepping the operator accumulator from grid point k-1.
    A0 must be Hermitian.
    """
    rho = _ensure_dim(ensure_density_matrix(rho), z.dim, "rho")
    t = _ensure_grid(times, "times")
    generator = apply_dual_choi(z, ensure_hermitian(a0))
    acc = t[0] * generator
    values = [float(np.real(np.trace(rho @ acc)))]
    for k in range(1, t.size):
        acc = acc + (t[k] - t[k - 1]) * generator
        values.append(float(np.real(np.trace(rho @ acc))))
    return np.asarray(values)

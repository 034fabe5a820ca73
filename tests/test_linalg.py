import math

import numpy as np
import pytest

from cpumap import (
    BatteryConfig, ChoiMatrix, EnvState, KrausSet, build_fixed_point_choi, choi_is_psd, eig_hermitian, is_psd, kron,
    partial_trace_second,
)
from cpumap.choi import PSD_TOL
from cpumap.errors import DomainError
from cpumap.linalg import HERM_TOL, _ensure_grid, _psd_verdicts, ensure_hermitian, max_abs

from conftest import pencil_spec, psd_reference, random_hermitian, random_spec, rng_for, traced_peak_bytes


def kron_loop_oracle(a, b):
    """Four-nested-loop scalar Kronecker product."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def ptrace_loop_oracle(m, d1, d2):
    """Explicit double-index summation sum_k <i,k|M|j,k>."""
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            out[i, j] = sum(m[i * d2 + k, j * d2 + k] for k in range(d2))
    return out


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_against_loop_oracle():
    rng = rng_for(101)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert max_abs(kron(a, b) - kron_loop_oracle(a, b)) < 1e-12


def test_kron_associativity():
    rng = rng_for(102)
    for _ in range(10):
        a, b, c = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(3))
        assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-12


def test_partial_trace_factorized():
    rng = rng_for(103)
    for _ in range(10):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = partial_trace_second(kron(x, y), 3, 4)
        assert max_abs(got - x * np.trace(y)) < 1e-10


def test_partial_trace_identity():
    assert np.allclose(partial_trace_second(np.eye(4), 2, 2), 2.0 * np.eye(2))


def test_partial_trace_against_index_oracle():
    rng = rng_for(104)
    m = random_hermitian(rng, 4)
    assert max_abs(partial_trace_second(m, 2, 2) - ptrace_loop_oracle(m, 2, 2)) < 1e-14


def test_partial_trace_preserves_trace():
    rng = rng_for(105)
    for d1, d2 in [(2, 3), (3, 2), (4, 4)]:
        m = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
        assert abs(np.trace(partial_trace_second(m, d1, d2)) - np.trace(m)) < 1e-10


def test_eig_diagonal_sorted():
    evals, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(evals, [1.0, 2.0, 3.0])


def test_eig_exchange_matrix():
    evals, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(evals, [-1.0, 1.0])


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_eig_reconstruction(n):
    h = random_hermitian(rng_for(106, n), n)
    evals, vecs = eig_hermitian(h)
    assert max_abs((vecs * evals) @ vecs.conj().T - h) < 1e-8


def test_eig_phase_convention():
    h = random_hermitian(rng_for(107), 5)
    _, vecs = eig_hermitian(h)
    for k in range(5):
        col = vecs[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_eig_deterministic():
    h = random_hermitian(rng_for(108), 6)
    e1, v1 = eig_hermitian(h)
    e2, v2 = eig_hermitian(h.copy())
    assert np.array_equal(e1, e2) and np.array_equal(v1, v2)


def test_is_psd():
    assert is_psd(np.eye(3), 1e-9)
    assert not is_psd(np.diag([1.0, -0.5]), 1e-9)


def unitary_conjugate(rng, spectrum):
    """Q diag(spectrum) Q^dagger for a random unitary Q."""
    n = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * spectrum) @ q.conj().T


def test_hermiticity_tolerance_scales_with_the_entries():
    m = unitary_conjugate(rng_for(130), np.array([1.0, 2.0, 3.0, 4.0])) * 1e8
    assert max_abs(m - m.conj().T) > HERM_TOL  # rounding alone, above the absolute tolerance
    assert np.array_equal(ensure_hermitian(m), m)
    assert is_psd(m, HERM_TOL)
    assert np.allclose(eig_hermitian(m)[0], [1e8, 2e8, 3e8, 4e8], rtol=1e-12)


# lambda_min of each kind sits well away from -PSD_TOL, the two "edge" kinds
# just inside and just outside it
PSD_KINDS = {
    "psd": lambda rng, n: unitary_conjugate(rng, 0.1 + rng.random(n)),
    "rank-deficient": lambda rng, n: unitary_conjugate(rng, np.r_[np.zeros(n - n // 2), 1 + rng.random(n // 2)]),
    "indefinite": lambda rng, n: unitary_conjugate(rng, np.r_[-0.5 - rng.random(), rng.normal(size=n - 1)]),
    "edge-inside": lambda rng, n: unitary_conjugate(rng, np.r_[-PSD_TOL / 2, 1 + rng.random(n - 1)]),
    "edge-outside": lambda rng, n: unitary_conjugate(rng, np.r_[-2 * PSD_TOL, 1 + rng.random(n - 1)]),
}


def reference_verdict(h):
    """``psd_reference(h, PSD_TOL)``, or None where lambda_min is too close to
    -PSD_TOL for either side to be exact."""
    lam = np.linalg.eigvalsh(h)
    if abs(lam[0] + PSD_TOL) < 1e-12 * max(1.0, np.abs(lam).max()):
        return None
    return psd_reference(h, PSD_TOL)


def assert_verdicts_match_reference(h, expected):
    assert is_psd(h, PSD_TOL) == expected
    assert _psd_verdicts(h[None], PSD_TOL)[0] == expected
    dim = math.isqrt(h.shape[0])
    if dim * dim == h.shape[0]:
        assert choi_is_psd(ChoiMatrix(dim=dim, matrix=h)) == expected


@pytest.mark.parametrize("n", [1, 2, 16, 144, 256])
def test_psd_verdicts_match_eigvalsh_reference(n):
    rng = rng_for(131, n)
    matrices = [make(rng, n) for make in PSD_KINDS.values()]
    expected = [reference_verdict(h) for h in matrices]
    assert expected == [True, True, False, True, False]
    for h, verdict in zip(matrices, expected):
        assert_verdicts_match_reference(h, verdict)
    # one stack: an instance whose factorization fails fails alone
    assert list(_psd_verdicts(np.array(matrices), PSD_TOL)) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 16])
def test_choi_psd_verdicts_match_eigvalsh_reference_on_both_sides(n):
    rng = rng_for(132, n)
    specs = [random_spec(rng, n) for _ in range(6)] + [pencil_spec(rng, n), pencil_spec(rng, n, bottom=True)]
    # both sides of the domain e > t/N of the spectral bounds, and both verdicts
    assert {spec.expectation > spec.trace / n for spec in specs} == {True, False}
    verdicts = set()
    for spec in specs:
        z = build_fixed_point_choi(spec).matrix
        verdict = reference_verdict(z)
        if verdict is not None:
            assert_verdicts_match_reference(z, verdict)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_numpy_integer_dimensions_pass_as_int():
    d = np.int64(2)
    env = EnvState(dim=d, spectrum=[0.5, 0.5], basis=np.eye(2))
    assert type(env.dim) is int
    assert type(BatteryConfig(d=d, env=env, rho0=np.eye(2) / 2).d) is int
    assert type(KrausSet(dim=d, stack=np.eye(2)[None], tags=("B0",)).dim) is int
    assert type(ChoiMatrix(dim=d, matrix=np.eye(4)).dim) is int


def test_grid_check_allocates_bools_not_a_float_difference():
    p = 10**6
    grid = np.linspace(0.0, 1.0, p)
    assert np.shares_memory(_ensure_grid(grid, "grid"), grid)  # no copy of the grid
    # one P-byte bool array at a time; a float difference would take 8P
    assert traced_peak_bytes(_ensure_grid, grid, "grid") < 1.5 * p
    grid[p // 2] = grid[p // 2 - 1] - 1e-9
    with pytest.raises(DomainError, match="ascending"):
        _ensure_grid(grid, "grid")

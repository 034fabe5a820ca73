import math
import warnings

import numpy as np
import pytest

from cpumap import (
    BatteryConfig,
    DimensionError,
    DomainError,
    EnvState,
    InvalidDensityMatrix,
    aligned_env,
    alignment_unitary,
    dual_apply_number,
    env_kraus,
    kron,
    number_operator,
    phi,
    simulate_charging,
    swap_unitary,
    unitality_residual,
)
from cpumap.linalg import max_abs

from conftest import primal_loop, random_density, random_env, random_spectrum, rng_for, swap_oracle


def test_number_operator():
    assert np.allclose(number_operator(2), np.diag([0.0, 1.0]))
    assert np.allclose(number_operator(4), np.diag([0.0, 1.0, 2.0, 3.0]))
    n = number_operator(6)
    for k in range(6):
        assert n[k, k] == k
    with pytest.raises(DimensionError):
        number_operator(1)


def test_swap_unitary_d2():
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(swap_unitary(2), expected)


def test_swap_unitary_equals_loop():
    for d in range(2, 33):
        loop = np.zeros((d * d, d * d))
        for n in range(d):
            for r in range(d):
                loop[n * d + r, r * d + n] = 1.0
        assert np.array_equal(swap_unitary(d), loop)


def test_swap_unitary_swaps_vectors():
    rng = rng_for(401)
    for d in (2, 3, 5):
        u = swap_unitary(d)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert max_abs(u @ np.kron(x, y) - np.kron(y, x)) < 1e-12


def test_swap_unitary_swaps_states():
    rng = rng_for(402)
    d = 3
    u = swap_unitary(d)
    rho = random_density(rng, d)
    sig = random_density(rng, d)
    assert max_abs(u @ kron(rho, sig) @ u.conj().T - kron(sig, rho)) < 1e-12


def test_swap_unitary_involution():
    for d in (2, 4):
        u = swap_unitary(d)
        assert np.array_equal(u @ u, np.eye(d * d))
        assert np.array_equal(u, u.conj().T)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_swap_conjugate_equals_complex_product(d):
    from cpumap.selftest import swap_conjugate

    rng = rng_for(331, d)
    u = swap_unitary(d)
    joint = np.kron(random_density(rng, d), random_env(rng, d).sigma_fock())
    assert np.array_equal(swap_conjugate(u, joint), u @ joint @ u.conj().T)


def test_env_kraus_pure_aligned_replacement():
    d = 3
    spectrum = np.zeros(d)
    spectrum[0] = 1.0
    env = EnvState(dim=d, spectrum=spectrum, basis=np.eye(d, dtype=complex))
    kset = env_kraus(env)
    rho = random_density(rng_for(403), d)
    out = primal_loop(kset, rho)
    expected = np.zeros((d, d), dtype=complex)
    expected[0, 0] = 1.0
    assert max_abs(out - expected) < 1e-12


def test_env_kraus_matches_swap_oracle():
    rng = rng_for(404)
    d = 4
    env = random_env(rng, d)
    kset = env_kraus(env)
    sigma = env.sigma_fock()
    for _ in range(5):
        rho = random_density(rng, d)
        assert max_abs(primal_loop(kset, rho) - sigma) < 1e-10
        assert max_abs(primal_loop(kset, rho) - swap_oracle(rho, sigma, d)) < 1e-10


def test_env_kraus_aligned_structure():
    # with V = I each operator is sqrt(sigma_j) times a single matrix unit
    d = 3
    sig = np.array([0.5, 0.3, 0.2])
    env = EnvState(dim=d, spectrum=sig, basis=np.eye(d, dtype=complex))
    kset = env_kraus(env)
    assert len(kset.ops) == d * d
    for tag, op in kset.ops:
        i, j = (int(x) for x in tag[1:].split(","))
        expected = np.zeros((d, d), dtype=complex)
        expected[i, j] = np.sqrt(sig[j])
        assert max_abs(op - expected) < 1e-12


def test_env_kraus_equals_outer_product_loop():
    rng = rng_for(419)
    for d in (2, 3, 4, 8):
        env = random_env(rng, d)
        kset = env_kraus(env)
        tags, want = [], []
        for i in range(d):
            ei = np.zeros(d, dtype=complex)
            ei[i] = 1.0
            for j in range(d):
                tags.append(f"E{i},{j}")
                want.append(np.sqrt(env.spectrum[j]) * np.outer(ei, env.basis[:, j].conj()))
        assert kset.tags == tuple(tags)
        assert all(np.array_equal(op, m) for op, m in zip(kset.stack, want))


def test_env_kraus_completeness():
    rng = rng_for(405)
    for d in (2, 4, 8):
        assert unitality_residual(env_kraus(random_env(rng, d))) < 1e-9


def test_phi_aligned_is_weighted_level_sum():
    d = 5
    sig = np.array([0.1, 0.0, 0.4, 0.2, 0.3])
    env = EnvState(dim=d, spectrum=sig, basis=np.eye(d, dtype=complex))
    assert abs(phi(env) - float(np.dot(sig, np.arange(d)))) < 1e-15


def test_phi_zero_when_weight_sits_on_ground_level():
    # pure spectrum routed onto the zero-number state by a permutation
    d = 4
    sig = np.zeros(d)
    sig[2] = 1.0
    perm = np.zeros((d, d))
    perm[0, 2] = 1.0  # eigenvector |2> becomes the Fock ground state
    perm[2, 0] = 1.0
    perm[1, 1] = 1.0
    perm[3, 3] = 1.0
    env = EnvState(dim=d, spectrum=sig, basis=perm.astype(complex))
    assert phi(env) == 0.0


def test_phi_against_double_loop_oracle():
    rng = rng_for(406)
    d = 8
    env = random_env(rng, d)
    brute = 0.0
    for j in range(d):
        for n in range(d):
            overlap = np.conj(env.basis[n, j])  # <j|n>
            brute += env.spectrum[j] * n * abs(overlap) ** 2
    assert abs(phi(env) - brute) < 1e-12
    assert abs(phi(env) - float(np.real(np.trace(env.sigma_fock() @ number_operator(d))))) < 1e-12


def test_phi_bounds():
    rng = rng_for(407)
    for d in (2, 4, 8):
        for _ in range(20):
            env = random_env(rng, d)
            p = phi(env)
            assert -1e-12 <= p <= env.phi_max() + 1e-12
            assert env.phi_max() <= d - 1 + 1e-12


def test_dual_apply_number_pure_level():
    d = 4
    sig = np.zeros(d)
    sig[1] = 1.0
    env = EnvState(dim=d, spectrum=sig, basis=np.eye(d, dtype=complex))
    assert max_abs(dual_apply_number(env) - np.eye(d)) < 1e-12


def test_dual_apply_number_proportional_to_identity():
    env = random_env(rng_for(408), 6)
    out = dual_apply_number(env)
    diag = np.real(np.diag(out))
    off = out - np.diag(np.diag(out))
    assert max_abs(off) < 1e-10
    assert float(np.max(diag) - np.min(diag)) < 1e-10
    assert abs(float(np.real(np.trace(out))) / 6 - phi(env)) < 1e-10
    assert max_abs(out - phi(env) * np.eye(6)) < 1e-9


def test_simulate_charging_zero_start():
    env = random_env(rng_for(409), 4)
    cfg = BatteryConfig(d=4, env=env, rho0=random_density(rng_for(410), 4))
    trace = simulate_charging(cfg, [0.0, 0.5, 1.5])
    assert trace.values[0] == 0.0


def test_simulate_charging_state_independent():
    rng = rng_for(411)
    env = random_env(rng, 4)
    times = np.linspace(0.0, 3.0, 7)
    traces = [
        simulate_charging(BatteryConfig(d=4, env=env, rho0=random_density(rng, 4)), times)
        for _ in range(4)
    ]
    for tr in traces[1:]:
        assert np.array_equal(tr.values, traces[0].values)
        assert tr.phi_fit == traces[0].phi_fit


def test_simulate_charging_pure_level_two():
    d = 4
    sig = np.zeros(d)
    sig[2] = 1.0
    env = EnvState(dim=d, spectrum=sig, basis=np.eye(d, dtype=complex))
    cfg = BatteryConfig(d=d, env=env, rho0=random_density(rng_for(412), d))
    trace = simulate_charging(cfg, [0.0, 1.0, 2.0])
    assert np.array_equal(trace.values, np.array([0.0, 2.0, 4.0]))


def test_simulate_charging_rate():
    env = random_env(rng_for(413), 3)
    rho = random_density(rng_for(414), 3)
    base = simulate_charging(BatteryConfig(d=3, env=env, rho0=rho), [0.0, 1.0])
    fast = simulate_charging(BatteryConfig(d=3, env=env, rho0=rho, rate=3.0), [0.0, 1.0])
    assert abs(fast.phi_fit - 3.0 * base.phi_fit) < 1e-12


def test_battery_config_validation():
    env = random_env(rng_for(415), 3)
    with pytest.raises(InvalidDensityMatrix):
        BatteryConfig(d=3, env=env, rho0=np.eye(3))
    with pytest.raises(DomainError):
        BatteryConfig(d=3, env=env, rho0=random_density(rng_for(416), 3), rate=0.0)
    with pytest.raises(DomainError):
        BatteryConfig(d=3, env=env, rho0=random_density(rng_for(416), 3), rate=float("nan"))
    with pytest.raises(DomainError):
        simulate_charging(
            BatteryConfig(d=3, env=env, rho0=random_density(rng_for(417), 3)),
            [1.0, 0.0],
        )


@pytest.mark.parametrize("times", [[0.0, math.nan], [math.nan, 1.0], [0.0, math.inf]])
def test_simulate_charging_rejects_non_finite_times(times):
    cfg = BatteryConfig(d=3, env=random_env(rng_for(418), 3), rho0=random_density(rng_for(419), 3))
    with pytest.raises(DomainError):
        simulate_charging(cfg, times)


def test_simulate_charging_rejects_overflowing_trajectory():
    cfg = BatteryConfig(
        d=3, env=random_env(rng_for(418), 3), rho0=random_density(rng_for(419), 3), rate=1e300
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            simulate_charging(cfg, [0.0, 1e300])


def test_alignment_unitary_endpoints():
    d = 6
    assert max_abs(alignment_unitary(d, 1.0) - np.eye(d)) < 1e-15
    v0 = alignment_unitary(d, 0.0)
    reversal = np.eye(d)[:, ::-1]
    assert max_abs(np.abs(v0) - reversal) < 1e-12


def loop_alignment_unitary(d, theta):
    """The product of the d/2 disjoint Givens blocks, one dense product each."""
    angle = (1.0 - theta) * np.pi / 2.0
    v = np.eye(d)
    for a in range(d // 2):
        b = d - 1 - a
        block = np.eye(d)
        block[a, a] = block[b, b] = np.cos(angle)
        block[a, b] = -np.sin(angle)
        block[b, a] = np.sin(angle)
        v = v @ block
    return v


def test_alignment_unitary_equals_block_product():
    # bit for bit, signs of zeros included (the product gives +0.0 at theta = 1)
    for d in range(2, 65):
        for theta in np.linspace(0.0, 1.0, 51):
            got, want = alignment_unitary(d, float(theta)), loop_alignment_unitary(d, float(theta))
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_alignment_unitary_is_unitary():
    for d in (4, 5, 8):
        for theta in np.linspace(0.0, 1.0, 9):
            v = alignment_unitary(d, float(theta))
            assert max_abs(v.conj().T @ v - np.eye(d)) < 1e-12


def test_alignment_phi_monotone_for_sorted_spectrum():
    d = 8
    sig = random_spectrum(rng_for(418), d)
    values = [phi(aligned_env(d, sig, float(th))) for th in np.linspace(0.0, 1.0, 50)]
    assert np.all(np.diff(values) >= -1e-12)
    assert abs(values[-1] - float(np.dot(sig, np.arange(d)))) < 1e-12


def test_alignment_pure_top_reaches_zero_and_max():
    d = 8
    sig = np.zeros(d)
    sig[d - 1] = 1.0
    assert phi(aligned_env(d, sig, 0.0)) < 1e-15
    assert abs(phi(aligned_env(d, sig, 1.0)) - (d - 1)) < 1e-15


def test_alignment_unitary_domain():
    with pytest.raises(DomainError):
        alignment_unitary(4, 1.5)
    with pytest.raises(DimensionError):
        alignment_unitary(1, 0.5)


def test_env_state_validation():
    d = 3
    with pytest.raises(DomainError):
        EnvState(dim=d, spectrum=np.array([0.5, 0.4, 0.2]), basis=np.eye(d, dtype=complex))
    with pytest.raises(DomainError):
        EnvState(dim=d, spectrum=np.array([1.2, -0.2, 0.0]), basis=np.eye(d, dtype=complex))
    with pytest.raises(DomainError):
        EnvState(dim=d, spectrum=np.array([0.5, 0.3, 0.2]), basis=2.0 * np.eye(d, dtype=complex))
    with pytest.raises(DimensionError):
        EnvState(dim=d, spectrum=np.array([0.5, 0.5]), basis=np.eye(d, dtype=complex))
    nan_basis = np.eye(d, dtype=complex)
    nan_basis[1, 2] = np.nan
    with pytest.raises(DomainError):
        EnvState(dim=d, spectrum=np.array([0.5, 0.3, 0.2]), basis=nan_basis)


def test_env_state_needs_d_at_least_one():
    with pytest.raises(DimensionError):
        EnvState(dim=0, spectrum=[], basis=np.zeros((0, 0)))
    env = EnvState(dim=1, spectrum=[1.0], basis=np.eye(1))
    assert phi(env) == 0.0 and env.phi_max() == 0.0


def test_env_state_rejects_nan_spectrum():
    # abs(nan - 1) > tol is False, so a NaN weight once slipped through
    with pytest.raises(DomainError):
        EnvState(dim=3, spectrum=np.array([0.5, np.nan, 0.5]), basis=np.eye(3, dtype=complex))


import numpy as np
import pytest

from cpumap import (
    BatteryConfig,
    EnvState,
    KrausSet,
    aligned_env,
    alignment_unitary,
    apply_dual_kraus,
    dual_apply_number,
    env_kraus,
    kron,
    number_operator,
    partial_trace_second,
    phi,
    simulate_charging,
    swap_unitary,
    unitality_residual,
)
from cpumap.linalg import max_abs

from conftest import (
    primal_loop,
    random_density,
    random_env,
    random_spectrum,
    rng_for,
    swap_oracle,
    traced_peak_bytes,
    zero_weight_spectrum,
)


def test_number_operator():
    assert np.allclose(number_operator(2), np.diag([0.0, 1.0]))
    assert np.allclose(number_operator(4), np.diag([0.0, 1.0, 2.0, 3.0]))
    n = number_operator(6)
    for k in range(6):
        assert n[k, k] == k


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


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_swap_oracle_equals_full_product(d, monkeypatch):
    from cpumap import selftest

    rng = rng_for(331, d)
    u = swap_unitary(d)
    joint, cols, vals = selftest._swap_oracle_arrays(d)
    joint.fill(np.nan)  # anything read before it is written shows in the result
    for _ in range(2):  # the second pair must not see the first
        rho, sigma = random_density(rng, d), random_env(rng, d).sigma_fock()
        # the selftest's product into its joint array is np.kron's, bit for bit
        np.multiply(rho[:, None, :, None], sigma[None, :, None, :], out=joint.reshape(d, d, d, d))
        assert np.array_equal(joint, np.kron(rho, sigma))
        assert np.array_equal(selftest._swap_traced(joint, cols, vals), swap_oracle(rho, sigma, d))
    # a joint matrix that is neither a product nor Hermitian, under U and under
    # a signed and scaled U, which shows that the oracle applies U's values
    generic = rng.normal(size=joint.shape) + 1j * rng.normal(size=joint.shape)
    scaled = u * np.resize([1.0, -1.0, 0.5], (d * d, 1))
    monkeypatch.setattr(selftest, "swap_unitary", lambda d: scaled)
    for unitary, arrays in ((u, (joint, cols, vals)), (scaled, selftest._swap_oracle_arrays(d))):
        arrays[0][:] = generic
        expected = partial_trace_second(unitary @ generic @ unitary.conj().T, d, d)
        assert np.array_equal(selftest._swap_traced(*arrays), expected)
    assert not np.array_equal(expected, partial_trace_second(u @ generic @ u.conj().T, d, d))


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


# the set holds the d distinct rows once and its index split and tags come from
# one cache per d, so a second environment of the same d is checked too
@pytest.mark.parametrize("d", [2, 3, 4, 8, 24, 32])
def test_env_kraus_equals_outer_product_loop(d):
    rng = rng_for(419, d)
    envs = (random_env(rng, d), aligned_env(d, random_spectrum(rng, d)),
            EnvState(dim=d, spectrum=zero_weight_spectrum(rng, d, d - 1), basis=random_env(rng, d).basis))
    for env in envs:
        kset = env_kraus(env)
        tags, want = [], []
        for i in range(d):
            ei = np.zeros(d, dtype=complex)
            ei[i] = 1.0
            for j in range(d):
                tags.append(f"E{i},{j}")
                want.append(np.sqrt(env.spectrum[j]) * np.outer(ei, env.basis[:, j].conj()))
        assert kset.tags == tuple(tags)
        assert len(kset.stack) == d * d
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


# a zero weight at level l makes the d operators E_{i,l} zero.  The row-form set
# of env_kraus and dual_apply_number sum the d distinct rows and never read the
# stack; a set built from that stack finds its d^2 rows once, when it is built,
# at row 0 for a zero operator, and its sums must have the same bits
@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 16, 24, 32, 48, 64])
@pytest.mark.parametrize("basis", ["aligned", "random"])
def test_dual_apply_number_bits_equal_stack_sum(basis, d):
    rng = rng_for(420, d)
    envs = [aligned_env(d, random_spectrum(rng, d)) if basis == "aligned" else random_env(rng, d)]
    if d in (3, 24, 32, 64):
        for level in (0, d // 2):
            sigma = zero_weight_spectrum(rng, d, level)
            envs.append(aligned_env(d, sigma) if basis == "aligned"
                        else EnvState(dim=d, spectrum=sigma, basis=random_env(rng, d).basis))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for env in envs:
        k = env_kraus(env)
        # the set built from k's read-only stack shares it, without the copy
        # the constructor makes of a caller's array: at d = 64 it takes 256 MiB
        dense = KrausSet._from_stack(d, k.stack, k.tags)
        for b in (number_operator(d), np.eye(d), x + x.conj().T, x):
            assert apply_dual_kraus(k, b).tobytes() == apply_dual_kraus(dense, b).tobytes()
        assert unitality_residual(k) == unitality_residual(dense)
        want = apply_dual_kraus(dense, number_operator(d))
        assert dual_apply_number(env).tobytes() == want.tobytes()
        del k, dense  # the next environment's stack is written after this one is freed


def test_dual_apply_number_streams_its_operators():
    # the stack of env_kraus at d = 32 takes 16 MiB and the d^2 rows of its
    # operators 512 KiB; the sums hold a few d x d arrays, 16 KiB each
    d = 32
    env = random_env(rng_for(421), d)
    b = number_operator(d)
    dual_apply_number(env)
    assert traced_peak_bytes(dual_apply_number, env) < 8 * 16 * d * d
    assert traced_peak_bytes(lambda: apply_dual_kraus(env_kraus(env), b)) < 8 * 16 * d * d
    k = env_kraus(env)
    stack = k.stack
    assert not stack.flags.writeable and k.stack is stack


def test_env_state_keeps_no_handle_on_the_callers_arrays():
    d = 4
    env0 = random_env(rng_for(422), d)
    sigma, basis = env0.spectrum.copy(), env0.basis.copy()
    want_stack = env_kraus(env0).stack
    for given in ((sigma, basis), (sigma[:], basis[:]), (sigma.view(), basis.view())):
        env = EnvState(dim=d, spectrum=given[0], basis=given[1])
        sigma[0] = basis[0, 0] = np.nan
        assert not (np.shares_memory(env.spectrum, sigma) or np.shares_memory(env.basis, basis))
        assert sigma.flags.writeable and basis.flags.writeable
        assert not (env.spectrum.flags.writeable or env.basis.flags.writeable)
        assert phi(env) == phi(env0) and np.array_equal(env_kraus(env).stack, want_stack)
        assert np.array_equal(dual_apply_number(env), dual_apply_number(env0))
        sigma[0], basis[0, 0] = env0.spectrum[0], env0.basis[0, 0]


@pytest.mark.parametrize("field", ["spectrum", "basis"])
def test_env_state_arrays_are_read_only(field):
    # what the construction checked stays true: no write through the state reaches phi
    env0 = random_env(rng_for(423), 3)
    for env in (EnvState(dim=3, spectrum=env0.spectrum.copy(), basis=env0.basis.copy()),
                EnvState(dim=3, spectrum=env0.spectrum.tolist(), basis=env0.basis.tolist()),
                aligned_env(3, env0.spectrum.tolist())):
        held = getattr(env, field)
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0] = np.nan
        assert np.all(np.isfinite(held)) and np.isfinite(phi(env))


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


def test_env_state_needs_d_at_least_one():
    env = EnvState(dim=1, spectrum=[1.0], basis=np.eye(1))
    assert phi(env) == 0.0 and env.phi_max() == 0.0

import math
import warnings

import numpy as np
import pytest

from cpumap import (
    DimensionError,
    DomainError,
    FixedPointSpec,
    InvalidDensityMatrix,
    KrausSet,
    NegativeSqrtArgument,
    apply_dual_choi,
    apply_dual_kraus,
    build_fixed_point_choi,
    choi_from_kraus,
    evolve_linear,
    evolve_linear_euler,
    idempotence_residual,
    kraus_from_fixed_point,
    unitality_residual,
)
from cpumap.dual_map import complete_basis
from cpumap.linalg import eig_hermitian, max_abs

from conftest import (
    PINNED_Z_DIAG21,
    hermitian_basis,
    pencil_spec,
    random_density,
    random_hermitian,
    random_spec,
    random_unit,
    rng_for,
)


def closed_form_dual(spec, b):
    """One-application formula for the fixed-point family."""
    n = spec.dim
    e = spec.expectation
    t = spec.trace
    vbv = float(np.real(np.conj(spec.v) @ b @ spec.v))
    trb = float(np.real(np.trace(b)))
    return spec.a * (vbv / e) + (np.eye(n) - spec.a / e) * (
        (trb / t - vbv / e) / (n / t - 1.0 / e)
    )


def test_apply_dual_choi_fixed_point_and_identity():
    rng = rng_for(301)
    spec = random_spec(rng, 4)
    z = build_fixed_point_choi(spec)
    assert max_abs(apply_dual_choi(z, spec.a) - spec.a) < 1e-9
    assert max_abs(apply_dual_choi(z, np.eye(4)) - np.eye(4)) < 1e-9


def test_apply_dual_choi_matches_closed_form():
    rng = rng_for(302)
    for n in (2, 3, 5):
        spec = random_spec(rng, n)
        z = build_fixed_point_choi(spec)
        for _ in range(5):
            b = random_hermitian(rng, n)
            assert max_abs(apply_dual_choi(z, b) - closed_form_dual(spec, b)) < 1e-9


def test_apply_dual_choi_hermitian_output():
    rng = rng_for(303)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    out = apply_dual_choi(z, random_hermitian(rng, 3))
    assert max_abs(out - out.conj().T) < 1e-12


def test_apply_dual_choi_dimension_mismatch():
    z = build_fixed_point_choi(random_spec(rng_for(304), 2))
    with pytest.raises(DimensionError):
        apply_dual_choi(z, np.eye(3))


def test_idempotence():
    rng = rng_for(305)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    for _ in range(5):
        assert idempotence_residual(z, random_hermitian(rng, 3)) < 1e-9
    assert idempotence_residual(z, np.eye(3)) < 1e-12
    assert idempotence_residual(z, spec.a) < 1e-9


def test_kraus_identity_observable():
    # A = I: every v-ray coefficient is 1 and the complement family collapses
    v = random_unit(rng_for(306), 3)
    spec = FixedPointSpec(a=np.eye(3, dtype=complex), v=v)
    k = kraus_from_fixed_point(spec)
    b_ops = [op for tag, op in k.ops if tag.startswith("B")]
    c_ops = [op for tag, op in k.ops if tag.startswith("C")]
    assert len(b_ops) == 3 and len(c_ops) == 6
    for op in b_ops:
        assert abs(np.linalg.norm(op.reshape(-1)) - 1.0) < 1e-10  # sqrt(1) |a_i><v|
    for op in c_ops:
        assert max_abs(op) < 1e-10
    assert unitality_residual(k) < 1e-10


def test_kraus_pinned_roundtrip():
    spec = FixedPointSpec(
        a=np.diag([2.0, 1.0]).astype(complex), v=np.array([1.0, 0.0], dtype=complex)
    )
    k = kraus_from_fixed_point(spec)
    rebuilt = choi_from_kraus(k)
    assert max_abs(rebuilt.matrix - PINNED_Z_DIAG21) < 1e-12
    assert max_abs(rebuilt.matrix - build_fixed_point_choi(spec).matrix) < 1e-12


def test_kraus_unitality_seeded():
    rng = rng_for(307)
    k = kraus_from_fixed_point(pencil_spec(rng, 4))
    assert unitality_residual(k) < 1e-9
    assert len(k.ops) == 16


def test_kraus_roundtrip_both_pencil_orientations():
    rng = rng_for(308)
    for n in (2, 3, 4):
        for bottom in (False, True):
            spec = pencil_spec(rng, n, bottom=bottom)
            z = build_fixed_point_choi(spec)
            k = kraus_from_fixed_point(spec)
            assert max_abs(choi_from_kraus(k).matrix - z.matrix) < 1e-8
            assert unitality_residual(k) < 1e-9


def test_kraus_rejects_non_positive_spec():
    # three distinct eigenvalues with aligned v: the map is unital but not
    # completely positive, so extraction must refuse
    spec = FixedPointSpec(
        a=np.diag([3.0, 2.0, 1.0]).astype(complex),
        v=np.array([1.0, 0.0, 0.0], dtype=complex),
    )
    with pytest.raises(NegativeSqrtArgument):
        kraus_from_fixed_point(spec)


def test_apply_dual_kraus_identity_and_fixed_point():
    rng = rng_for(309)
    spec = pencil_spec(rng, 3)
    k = kraus_from_fixed_point(spec)
    assert max_abs(apply_dual_kraus(k, np.eye(3)) - np.eye(3)) < 1e-9
    assert max_abs(apply_dual_kraus(k, spec.a) - spec.a) < 1e-8


def test_representation_equivalence_on_basis():
    rng = rng_for(310)
    for n in (2, 3):
        spec = pencil_spec(rng, n)
        z = build_fixed_point_choi(spec)
        k = kraus_from_fixed_point(spec)
        for b in hermitian_basis(n):
            assert max_abs(apply_dual_kraus(k, b) - apply_dual_choi(z, b)) < 1e-8


def test_choi_from_kraus_identity_channel():
    k = KrausSet.from_ops(3, [("B0", np.eye(3, dtype=complex))])
    z = choi_from_kraus(k)
    rng = rng_for(311)
    b = random_hermitian(rng, 3)
    assert max_abs(apply_dual_choi(z, b) - b) < 1e-12


def test_choi_from_kraus_replacement_family():
    # family {|k><0|}: the map sends every B to <0|B|0> I
    n = 3
    ops = []
    for k_idx in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k_idx, 0] = 1.0
        ops.append((f"E{k_idx},0", m))
    kset = KrausSet.from_ops(n, ops)
    rng = rng_for(312)
    b = random_hermitian(rng, n)
    # explicit loop oracle
    oracle = np.zeros((n, n), dtype=complex)
    for _, op in kset.ops:
        oracle += op @ b @ op.conj().T
    expected = b[0, 0] * np.eye(n)
    assert max_abs(oracle - expected) < 1e-12
    assert max_abs(apply_dual_kraus(kset, b) - expected) < 1e-12
    assert max_abs(apply_dual_choi(choi_from_kraus(kset), b) - expected) < 1e-12


def test_duality_identity():
    # tr[channel(rho) A] == tr[rho dual(A)] with the primal built by
    # conjugate-transposing every stored operator
    rng = rng_for(313)
    spec = pencil_spec(rng, 3)
    k = kraus_from_fixed_point(spec)
    for _ in range(5):
        rho = random_density(rng, 3)
        a = random_hermitian(rng, 3)
        primal = np.zeros((3, 3), dtype=complex)
        for op in k.stack:
            primal += op.conj().T @ rho @ op
        lhs = np.trace(primal @ a)
        rhs = np.trace(rho @ apply_dual_kraus(k, a))
        assert abs(lhs - rhs) < 1e-10


def test_dual_preserves_positivity():
    rng = rng_for(314)
    spec = pencil_spec(rng, 4)
    z = build_fixed_point_choi(spec)
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = g @ g.conj().T  # PSD input
        out = apply_dual_choi(z, b)
        assert np.min(np.linalg.eigvalsh(out)) > -1e-9


def test_complete_basis_orthonormal_and_deterministic():
    v = random_unit(rng_for(315), 5)
    basis = complete_basis(v)
    assert len(basis) == 5
    gram = np.array([[np.conj(x) @ y for y in basis] for x in basis])
    assert max_abs(gram - np.eye(5)) < 1e-12
    assert max_abs(basis[0] - v) < 1e-12
    again = complete_basis(v.copy())
    for b1, b2 in zip(basis, again):
        assert np.array_equal(b1, b2)


def test_evolve_linear_zero_and_doubling():
    rng = rng_for(316)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    trace = evolve_linear(z, a0, rho, [0.0, 1.0, 2.0])
    assert trace.values[0] == 0.0
    assert abs(trace.values[2] - 2.0 * trace.values[1]) < 1e-12


def test_evolve_linear_slope_is_single_application_trace():
    rng = rng_for(317)
    spec = random_spec(rng, 4)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    trace = evolve_linear(z, a0, rho, np.linspace(0, 3, 7))
    slope = float(np.real(np.trace(rho @ apply_dual_choi(z, a0))))
    assert abs(trace.phi_fit - slope) < 1e-12
    assert np.allclose(trace.values, slope * trace.times)


def test_evolve_linear_rate_multiplier():
    rng = rng_for(318)
    spec = random_spec(rng, 2)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 2)
    rho = random_density(rng, 2)
    base = evolve_linear(z, a0, rho, [0.0, 1.0])
    scaled = evolve_linear(z, a0, rho, [0.0, 1.0], rate=2.5)
    assert abs(scaled.phi_fit - 2.5 * base.phi_fit) < 1e-12


def test_euler_agrees_with_closed_form():
    rng = rng_for(319)
    for n in (2, 3):
        spec = random_spec(rng, n)
        z = build_fixed_point_choi(spec)
        a0 = random_hermitian(rng, n)
        rho = random_density(rng, n)
        times = np.linspace(0.0, 4.0, 17)
        closed = evolve_linear(z, a0, rho, times).values
        euler = evolve_linear_euler(z, a0, rho, times)
        assert np.max(np.abs(closed - euler)) < 1e-9


def test_evolve_linear_validates_inputs():
    rng = rng_for(320)
    spec = random_spec(rng, 2)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 2)
    rho = random_density(rng, 2)
    with pytest.raises(InvalidDensityMatrix):
        evolve_linear(z, a0, np.eye(2), [0.0, 1.0])  # trace 2
    with pytest.raises(DomainError):
        evolve_linear(z, a0, rho, [1.0, 0.5])
    with pytest.raises(DomainError):
        evolve_linear(z, a0, rho, [-1.0, 0.5])


@pytest.mark.parametrize("times", [[0.0, math.nan], [math.nan, 1.0], [0.0, math.inf]])
def test_evolve_rejects_non_finite_times(times):
    rng = rng_for(321)
    spec = random_spec(rng, 2)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 2)
    rho = random_density(rng, 2)
    with pytest.raises(DomainError):
        evolve_linear(z, a0, rho, times)
    with pytest.raises(DomainError):
        evolve_linear_euler(z, a0, rho, times)


@pytest.mark.parametrize("evolve", [evolve_linear, evolve_linear_euler])
def test_evolve_rejects_rho_of_wrong_dimension(evolve):
    rng = rng_for(323)
    z = build_fixed_point_choi(random_spec(rng, 2))
    with pytest.raises(DimensionError, match="rho shape"):
        evolve(z, random_hermitian(rng, 2), random_density(rng, 3), [0.0, 1.0])


def test_evolve_rejects_overflowing_trajectory():
    rng = rng_for(322)
    z = build_fixed_point_choi(pencil_spec(rng, 2))
    a0 = np.eye(2)
    rho = random_density(rng, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            evolve_linear(z, a0, rho, [0.0, 1e300], rate=1e300)


def test_kraus_set_validates_shapes():
    with pytest.raises(DimensionError):
        KrausSet.from_ops(2, [("B0", np.eye(3))])
    with pytest.raises(DimensionError):
        KrausSet(dim=2, stack=np.zeros((2, 2, 2)), tags=("B0",))  # one tag, two ops
    with pytest.raises(DimensionError):
        KrausSet.from_ops(2, [("B0", np.array([[np.nan, 0.0], [0.0, 1.0]]))])


def test_kraus_set_needs_dim_at_least_one():
    with pytest.raises(DimensionError):
        KrausSet(dim=0, stack=np.zeros((0, 0, 0)), tags=())
    k = KrausSet.from_ops(1, [("B0", np.eye(1))])
    assert unitality_residual(k) == 0.0 and apply_dual_kraus(k, [[3.0]]) == 3.0


def test_kraus_set_ops_are_views_of_the_stack():
    k = kraus_from_fixed_point(pencil_spec(rng_for(321), 3))
    assert k.stack.shape == (9, 3, 3) and len(k.tags) == 9
    for (tag, op), want_tag, want_op in zip(k.ops, k.tags, k.stack):
        assert tag == want_tag
        assert np.shares_memory(op, k.stack) and np.array_equal(op, want_op)
    with pytest.raises(ValueError):
        k.stack[0, 0, 0] = 1.0


def loop_kraus_from_fixed_point(spec):
    """The per-operator construction: one outer product per (tag, operator)."""
    n, e, t = spec.dim, spec.expectation, spec.trace
    avals, avecs = eig_hermitian(spec.a)
    if spec.is_scalar:
        z, w = np.ones(n), np.zeros(n)
    else:
        denom = n / t - 1.0 / e
        z = avals / e + (1.0 - avals / e) * (1.0 / t - 1.0 / e) / denom
        w = (1.0 - avals / e) / (denom * t)
    z, w = np.clip(z, 0.0, None), np.clip(w, 0.0, None)
    basis = complete_basis(spec.v)
    ops = [(f"B{i}", np.sqrt(z[i]) * np.outer(avecs[:, i], basis[0].conj())) for i in range(n)]
    for i in range(n):
        for j in range(1, n):
            ops.append((f"C{i},{j}", np.sqrt(w[i]) * np.outer(avecs[:, i], basis[j].conj())))
    return ops


def test_kraus_from_fixed_point_equals_outer_product_loop():
    rng = rng_for(322)
    for n in (2, 3, 4, 8):
        specs = [pencil_spec(rng, n), pencil_spec(rng, n, bottom=True),
                 FixedPointSpec(a=2.0 * np.eye(n, dtype=complex), v=random_unit(rng, n))]
        for spec in specs:
            k = kraus_from_fixed_point(spec)
            want = loop_kraus_from_fixed_point(spec)
            assert k.tags == tuple(tag for tag, _ in want)
            assert all(np.array_equal(op, m) for op, (_, m) in zip(k.stack, want))


def test_choi_from_kraus_equals_outer_product_sum():
    rng = rng_for(323)
    for n in (2, 3, 5, 8, 16):
        k = kraus_from_fixed_point(pencil_spec(rng, n))
        oracle = np.zeros((n * n, n * n), dtype=complex)
        for op in k.stack:
            u = op.reshape(-1)
            oracle += np.outer(u, u.conj())
        assert max_abs(choi_from_kraus(k).matrix - oracle) < 1e-12

import warnings

import numpy as np
import pytest

from cpumap import (
    ChoiMatrix,
    DegenerateDenominator,
    DimensionError,
    DomainError,
    FixedPointSpec,
    ZeroExpectation,
    ZeroTrace,
    apply_dual_choi,
    build_fixed_point_choi,
    check_fixed_point,
    check_unital,
    choi_is_psd,
    kraus_from_fixed_point,
    positivity_bounds,
)
from cpumap.linalg import max_abs

from conftest import (
    OVERFLOWING_SPECS,
    PINNED_Z_DIAG21,
    kron_reference_choi,
    pencil_spec,
    random_hermitian,
    random_spec,
    random_unit,
    rng_for,
)


def diag21_spec():
    return FixedPointSpec(
        a=np.diag([2.0, 1.0]).astype(complex), v=np.array([1.0, 0.0], dtype=complex)
    )


def test_build_identity_observable():
    rng = rng_for(201)
    for n in (2, 3, 5):
        v = random_unit(rng, n)
        spec = FixedPointSpec(a=np.eye(n, dtype=complex), v=v)
        z = build_fixed_point_choi(spec)
        assert check_unital(z) < 1e-9
        assert max_abs(apply_dual_choi(z, np.eye(n)) - np.eye(n)) < 1e-9


def test_build_pinned_regression():
    z = build_fixed_point_choi(diag21_spec())
    assert max_abs(z.matrix - PINNED_Z_DIAG21) < 1e-12


def test_build_fixed_point_via_dual():
    spec = diag21_spec()
    z = build_fixed_point_choi(spec)
    assert max_abs(apply_dual_choi(z, spec.a) - spec.a) < 1e-10


def test_check_unital_constructed():
    rng = rng_for(202)
    for n in (2, 3, 4):
        z = build_fixed_point_choi(random_spec(rng, n))
        assert check_unital(z) < 1e-9


def test_check_unital_scaled_identity():
    z = ChoiMatrix(dim=2, matrix=np.eye(4) / 2.0)
    assert check_unital(z) == 0.0


def test_check_unital_perturbed():
    z = build_fixed_point_choi(diag21_spec())
    m = z.matrix.copy()
    m[1, 1] += 0.1
    assert check_unital(ChoiMatrix(dim=2, matrix=m)) >= 0.1 - 1e-9


def test_check_fixed_point_constructed():
    rng = rng_for(203)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    assert check_fixed_point(z, spec.a) < 1e-9
    assert check_fixed_point(z, np.eye(3)) < 1e-9  # identity is always fixed


def test_check_fixed_point_generic_observable():
    # a generic B is not fixed; the residual equals ||Phi[B] - B|| by definition
    rng = rng_for(204)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    b = random_hermitian(rng, 3)
    residual = check_fixed_point(z, b)
    assert residual > 1e-3
    assert abs(residual - max_abs(apply_dual_choi(z, b) - b)) < 1e-12


def test_check_fixed_point_dimension_mismatch():
    z = build_fixed_point_choi(diag21_spec())
    with pytest.raises(DimensionError):
        check_fixed_point(z, np.eye(3))


def test_bounds_identity_observable():
    spec = FixedPointSpec(a=np.eye(3, dtype=complex), v=random_unit(rng_for(205), 3))
    assert positivity_bounds(spec) == (True, True)


def test_bounds_diag21():
    lower_ok, upper_ok = positivity_bounds(diag21_spec())
    assert lower_ok and upper_ok
    assert choi_is_psd(build_fixed_point_choi(diag21_spec()))


def test_bounds_match_direct_psd_for_aligned_v():
    # v along the dominant eigenvector of diag(5,1): bounds and the direct
    # spectral test must agree
    spec = FixedPointSpec(
        a=np.diag([5.0, 1.0]).astype(complex), v=np.array([1.0, 0.0], dtype=complex)
    )
    lower_ok, upper_ok = positivity_bounds(spec)
    assert (lower_ok and upper_ok) == choi_is_psd(build_fixed_point_choi(spec))


def test_bounds_reject_dim_one():
    spec = FixedPointSpec(a=np.array([[2.0]]), v=np.array([1.0]))
    with pytest.raises(DimensionError):
        positivity_bounds(spec)


def test_bounds_equivalence_sample():
    # small sample here; the 1000-instance sweep lives in the acceptance suite
    rng = rng_for(206)
    for n in (2, 3, 4):
        for _ in range(20):
            spec = random_spec(rng, n)
            lower_ok, upper_ok = positivity_bounds(spec)
            assert (lower_ok and upper_ok) == choi_is_psd(build_fixed_point_choi(spec))
        for _ in range(10):
            spec = pencil_spec(rng, n)
            lower_ok, upper_ok = positivity_bounds(spec)
            assert lower_ok and upper_ok
            assert choi_is_psd(build_fixed_point_choi(spec))


def test_scale_covariance():
    rng = rng_for(207)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    for c in (2.0, 10.0):
        zc = build_fixed_point_choi(FixedPointSpec(a=c * spec.a, v=spec.v))
        assert max_abs(zc.matrix - z.matrix) < 1e-10


def test_zero_trace_rejected():
    with pytest.raises(ZeroTrace):
        FixedPointSpec(
            a=np.diag([1.0, -1.0]).astype(complex), v=np.array([1.0, 0.0], dtype=complex)
        )


def test_zero_expectation_rejected():
    v = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
    with pytest.raises(ZeroExpectation):
        FixedPointSpec(a=np.diag([1.0, -1.0, 1.0]).astype(complex), v=v)


def test_degenerate_denominator_rejected():
    # <v|A|v> = 1 = tr(A)/N for A = diag(2, 0), v = (1,1)/sqrt(2)
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    with pytest.raises(DegenerateDenominator):
        FixedPointSpec(a=np.diag([2.0, 0.0]).astype(complex), v=v)


@pytest.mark.parametrize("a, v", OVERFLOWING_SPECS)
def test_overflowing_construction_rejected(a, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            FixedPointSpec(a=a.astype(complex), v=v.astype(complex))


def test_large_in_range_spec_builds_without_warning():
    spec = FixedPointSpec(a=1e150 * np.diag([2.0, 1.0]).astype(complex), v=np.eye(2)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert choi_is_psd(build_fixed_point_choi(spec))
        assert positivity_bounds(spec) == (True, True)
        kraus_from_fixed_point(spec)


def test_nan_reference_vector_rejected():
    # abs(nan - 1) > slack is False, so a NaN v once passed the norm check
    with pytest.raises(DimensionError):
        FixedPointSpec(a=np.eye(2, dtype=complex), v=np.array([np.nan, 0.0], dtype=complex))


def test_scalar_observable_is_allowed():
    # A = c*I hits the degenerate denominator but the singular term vanishes
    v = random_unit(rng_for(208), 3)
    spec = FixedPointSpec(a=2.0 * np.eye(3, dtype=complex), v=v)
    z = build_fixed_point_choi(spec)
    assert check_unital(z) < 1e-12
    assert check_fixed_point(z, spec.a) < 1e-12
    assert choi_is_psd(z)


def test_v_normalization_slack():
    a = np.diag([2.0, 1.0]).astype(complex)
    spec = FixedPointSpec(a=a, v=np.array([1.0 + 5e-7, 0.0], dtype=complex))
    assert abs(np.linalg.norm(spec.v) - 1.0) < 1e-12
    with pytest.raises(DimensionError):
        FixedPointSpec(a=a, v=np.array([1.1, 0.0], dtype=complex))


def test_v_length_mismatch():
    with pytest.raises(DimensionError):
        FixedPointSpec(
            a=np.diag([2.0, 1.0]).astype(complex),
            v=np.array([1.0, 0.0, 0.0], dtype=complex),
        )


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("kind", ["pencil", "scalar", "random"])
def test_build_matches_kron_reference_bitwise(n, kind):
    rng = rng_for(251, n)
    if kind == "pencil":
        spec = pencil_spec(rng, n)
    elif kind == "scalar":
        spec = FixedPointSpec(a=1.7 * np.eye(n, dtype=complex), v=random_unit(rng, n))
    else:
        spec = random_spec(rng, n)
    assert spec.is_scalar == (kind == "scalar")
    assert np.array_equal(build_fixed_point_choi(spec).matrix, kron_reference_choi(spec))


def test_spec_derived_values_equal_formulas():
    rng = rng_for(252)
    for n in (2, 3, 8):
        for spec in (random_spec(rng, n), pencil_spec(rng, n)):
            a, v = spec.a, spec.v
            t = float(np.real(np.trace(a)))
            assert spec.trace == t
            assert spec.expectation == float(np.real(np.conj(v) @ a @ v))
            assert spec.is_scalar == (
                max_abs(a - (t / n) * np.eye(n)) <= 1e-12 * max(1.0, abs(t))
            )


def test_spec_owns_read_only_arrays():
    rng = rng_for(253)
    a = random_hermitian(rng, 3)
    v = random_unit(rng, 3)
    spec = FixedPointSpec(a=a, v=v)
    before = (spec.a.copy(), spec.trace, spec.expectation, spec.is_scalar)
    a[:] = np.eye(3)
    v[:] = 0.0
    assert np.array_equal(spec.a, before[0])
    assert (spec.trace, spec.expectation, spec.is_scalar) == before[1:]
    assert np.array_equal(build_fixed_point_choi(spec).matrix, kron_reference_choi(spec))
    with pytest.raises(ValueError):
        spec.a[0, 0] = 5.0
    with pytest.raises(ValueError):
        spec.v[0] = 1.0


def test_bounds_equal_separate_eigvalsh_calls():
    from cpumap.selftest import EQUIVALENCE_DIMS, EQUIVALENCE_PER_DIM, equivalence_spec

    for n in EQUIVALENCE_DIMS:
        for idx in range(EQUIVALENCE_PER_DIM):
            spec = equivalence_spec(42, n, idx)
            e, t = spec.expectation, spec.trace
            shift = (t - e) / (n - 1)
            lower = np.min(np.linalg.eigvalsh(spec.a - shift * np.eye(n))) >= -1e-9
            upper = np.min(np.linalg.eigvalsh(e * np.eye(n) - spec.a)) >= -1e-9
            assert positivity_bounds(spec) == (bool(lower), bool(upper))


def test_choi_matrix_needs_dim_at_least_one():
    with pytest.raises(DimensionError):
        ChoiMatrix(dim=0, matrix=np.zeros((0, 0)))
    z = ChoiMatrix(dim=1, matrix=np.eye(1))
    assert check_unital(z) == 0.0 and apply_dual_choi(z, [[3.0]]) == 3.0

"""The batched Choi kernels against a per-instance loop kept here.

Each batched kernel must give, instance for instance, the same bits as
the single-instance code it replaced, and each Cholesky PSD verdict the
verdict of the full spectrum, so the selftest report cannot move.  The
batched spec validator must give the fields and the errors of one
``FixedPointSpec`` per draw.
"""

import numpy as np
import pytest

from cpumap import (
    DimensionError,
    EnvState,
    FixedPointSpec,
    build_fixed_point_choi,
    check_fixed_point,
    check_unital,
    choi_is_psd,
    env_kraus,
    idempotence_residual,
    positivity_bounds,
)
from cpumap.choi import (
    PSD_TOL,
    _BATCH_BYTES,
    _batches,
    _bound_minima,
    _choi_stack,
    _fixed_point_residuals,
    _unital_residuals,
    _validate_specs,
)
from cpumap.dual_map import _kraus_sum
from cpumap.linalg import _psd_verdicts, partial_trace_second
from cpumap.selftest import (
    EQUIVALENCE_DIMS,
    EQUIVALENCE_PER_DIM,
    IDEMPOTENCE_OBSERVABLES,
    IDEMPOTENCE_PER_DIM,
    _equivalence_draw,
    _idempotence_residuals,
    equivalence_spec,
)

import test_rejections

from conftest import (
    kron_reference_choi,
    primal_loop,
    psd_reference,
    random_density,
    random_hermitian,
    random_spec,
    random_unit,
    rng_for,
)


def reference(spec):
    """The single-instance arithmetic: Choi build, PSD verdict from the full
    spectrum, the two bound minima (shifts of A's extreme eigenvalues) and the two
    residuals of one spec."""
    n, e, t = spec.dim, spec.expectation, spec.trace
    z = kron_reference_choi(spec)
    evals = np.linalg.eigvalsh(spec.a)
    bounds = np.array([evals[0] - (t - e) / (n - 1), e - evals[-1]])
    unital = np.max(np.abs(partial_trace_second(z, n, n) - np.eye(n)))
    fixed = np.max(np.abs(np.einsum("ikjq,kq->ij", z.reshape(n, n, n, n), spec.a) - spec.a))
    return z, psd_reference(z, PSD_TOL), bounds, unital, fixed


def scalar_flags(specs):
    return np.array([spec.is_scalar for spec in specs])


def assert_batches_equal_loop(specs):
    seen = 0
    for idx in _batches(scalar_flags(specs), specs[0].dim):
        batch = [specs[i] for i in idx]
        assert len({spec.is_scalar for spec in batch}) == 1
        a, v = np.array([spec.a for spec in batch]), np.array([spec.v for spec in batch])
        e = np.array([spec.expectation for spec in batch])[:, None, None]
        t = np.array([spec.trace for spec in batch])[:, None, None]
        z = _choi_stack(a, v, e, t, batch[0].is_scalar)
        assert z.nbytes <= _BATCH_BYTES or len(batch) == 1
        got = (z, _psd_verdicts(z, PSD_TOL), _bound_minima(a, e, t), _unital_residuals(z), _fixed_point_residuals(z, a))
        for i, spec in enumerate(batch):
            for batched, single in zip(got, reference(spec)):
                assert np.array_equal(batched[i], single)
        seen += len(batch)
    assert seen == len(specs)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_batched_kernels_equal_loop_on_selftest_population(n):
    assert_batches_equal_loop([equivalence_spec(42, n, idx) for idx in range(EQUIVALENCE_PER_DIM)])


def test_mixed_scalar_batch_is_split_and_equals_loop():
    rng = rng_for(961)
    specs = []
    for idx in range(12):
        if idx % 3 == 0:
            specs.append(FixedPointSpec(a=(idx - 4.5) * np.eye(4, dtype=complex), v=random_unit(rng, 4)))
        else:
            specs.append(random_spec(rng, 4))
    batches = list(_batches(scalar_flags(specs), 4))
    assert [len(b) for b in batches] == [8, 4]
    assert [specs[b[0]].is_scalar for b in batches] == [False, True]
    assert_batches_equal_loop(specs)


def test_population_not_a_multiple_of_the_batch_size():
    specs = [equivalence_spec(7, 8, idx) for idx in range(37)]  # 16 per batch at N = 8
    assert [len(b) for b in _batches(scalar_flags(specs), 8)] == [16, 16, 5]
    assert_batches_equal_loop(specs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 32])
def test_no_batch_exceeds_the_byte_budget(n):
    size = max(1, _BATCH_BYTES // (16 * n**4))
    is_scalar = np.arange(2 * size + 3) % 7 == 0
    batches = list(_batches(is_scalar, n))
    assert sorted(np.concatenate(batches)) == list(range(is_scalar.size))
    for batch in batches:
        assert len(batch) == 1 or 16 * n**4 * len(batch) <= _BATCH_BYTES
        assert len(batch) <= size


@pytest.mark.parametrize("n", [2, 3, 8])
def test_public_functions_are_the_single_instance_case(n):
    rng = rng_for(962, n)
    for spec in (random_spec(rng, n), FixedPointSpec(a=2.5 * np.eye(n, dtype=complex), v=random_unit(rng, n))):
        z, psd, bound_minima, unital, fixed = reference(spec)
        choi = build_fixed_point_choi(spec)
        assert np.array_equal(choi.matrix, z)
        assert choi_is_psd(choi) == psd
        assert positivity_bounds(spec) == tuple(bool(m >= -1e-9) for m in bound_minima)
        assert check_unital(choi) == unital
        assert check_fixed_point(choi, spec.a) == fixed


@pytest.mark.parametrize("d", [4, 8, 16])
def test_primal_sum_equals_loop(d):
    rng = rng_for(963, d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    sigma = rng.random(d)
    env = EnvState(dim=d, spectrum=sigma / sigma.sum(), basis=q)
    rho = random_density(rng, d)
    k = env_kraus(env)
    # the primal sum is the dual kernel on the S_k^dagger, and the selftest takes
    # it as the conjugate of the dual kernel on the S_k^T at conj(rho)
    assert np.array_equal(_kraus_sum(k.stack.conj().transpose(0, 2, 1), rho), primal_loop(k, rho))
    assert np.array_equal(_kraus_sum(k.stack.transpose(0, 2, 1), rho.conj()).conj(), primal_loop(k, rho))


# --- the batched spec validator ----------------------------------------------

# the REJECTIONS rows whose FixedPointSpec fails on one draw; the v-length row
# fails a whole stack, whose v rows all have one length
SPEC_FAILURES = [
    "spec-nan-a", "spec-non-hermitian-a", "spec-nan-v", "spec-v-norm-1.1", "zero-trace", "zero-expectation",
    "spec-overflows-huge-diagonal", "spec-overflows-tiny-expectation", "degenerate-denominator",
]


def validate_draws(draws):
    return _validate_specs(np.array([a for a, _ in draws]), np.array([v for _, v in draws]))


def rejected_draw(row_id):
    """The REJECTIONS row ``row_id``, the (A, v) it hands to FixedPointSpec and
    the error that single spec raises."""
    row = next(row for row in test_rejections.REJECTIONS if row.id == row_id)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(test_rejections, "spec",
                      lambda a, v: (np.asarray(a, dtype=complex), np.asarray(v, dtype=complex)))
        draw = row.call()
    with pytest.raises(row.cls) as single:
        FixedPointSpec(a=draw[0], v=draw[1])
    return row, draw, single.value


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("seed", [1, 7, 42, 99])
def test_validator_fields_equal_per_draw_specs(seed, n):
    rng = rng_for(964, seed, n)
    draws = [_equivalence_draw(seed, n, idx) for idx in range(EQUIVALENCE_PER_DIM)]
    draws += [((idx - 2.5) * np.eye(n, dtype=complex), random_unit(rng, n)) for idx in range(6)]
    specs = [FixedPointSpec(a=a, v=v) for a, v in draws]
    a, v, t, e, scalar = validate_draws(draws)
    assert a.tobytes() == np.array([spec.a for spec in specs]).tobytes()
    assert v.tobytes() == np.array([spec.v for spec in specs]).tobytes()
    assert t.tobytes() == np.array([spec.trace for spec in specs]).tobytes()
    assert e.tobytes() == np.array([spec.expectation for spec in specs]).tobytes()
    assert scalar.tolist() == [spec.is_scalar for spec in specs]
    assert scalar[-6:].all() and not scalar[:-6].any()


@pytest.mark.parametrize("k", [0, 3, 7])
@pytest.mark.parametrize("row_id", SPEC_FAILURES)
def test_validator_raises_the_single_spec_error_of_the_failing_draw(row_id, k):
    row, bad, error = rejected_draw(row_id)
    draws = [_equivalence_draw(42, bad[0].shape[0], idx) for idx in range(8)]
    draws[k] = draws[7] = bad  # a later failing draw is not the one named
    with pytest.raises(row.cls) as stacked:
        validate_draws(draws)
    assert type(stacked.value) is row.cls
    assert str(stacked.value) == f"draw {k}: {error}"


def test_validator_names_the_lowest_failing_draw_whatever_its_check():
    failures = [rejected_draw(row_id) for row_id in SPEC_FAILURES]
    for first_row, first, error in failures:
        for _, second, _ in failures:
            n = first[0].shape[0]
            if second[0].shape[0] != n:
                continue
            draws = [_equivalence_draw(42, n, idx) for idx in range(4)]
            draws[1], draws[2] = first, second
            with pytest.raises(first_row.cls) as stacked:
                validate_draws(draws)
            assert str(stacked.value) == f"draw 1: {error}", (first_row.id, second)


def test_validator_shape_failures_fail_every_draw():
    a = np.array([np.diag([2.0, 1.0])] * 3, dtype=complex)
    with pytest.raises(DimensionError, match=r"^v has length 3 but A is 2x2$"):
        _validate_specs(a, np.ones((3, 3)))
    a[1, 0, 0] = np.nan  # fails a check before the shape of v, but only draw 1
    with pytest.raises(DimensionError, match=r"^v has length 3 but A is 2x2$"):
        _validate_specs(a, np.ones((3, 3)))
    a[0, 0, 0] = np.nan  # draw 0 fails that check first
    with pytest.raises(DimensionError, match=r"^draw 0: matrix contains NaN or Inf entries$"):
        _validate_specs(a, np.ones((3, 3)))
    with pytest.raises(DimensionError, match=r"^Hermitian matrix must be square, got \(2, 3\)$"):
        _validate_specs(np.ones((3, 2, 3), dtype=complex), np.ones((3, 2)))


@pytest.mark.parametrize("seed", [1, 7, 42, 99])
def test_batched_idempotence_residuals_equal_per_pair(seed):
    # the selftest's draws, spec by spec and observable by observable
    for n in EQUIVALENCE_DIMS:
        residuals = _idempotence_residuals(seed, n)
        assert residuals.shape == (IDEMPOTENCE_OBSERVABLES, IDEMPOTENCE_PER_DIM)
        for idx in range(IDEMPOTENCE_PER_DIM):
            z = build_fixed_point_choi(equivalence_spec(seed, n, idx))
            rng = rng_for(seed, 91, n, idx)
            for k in range(IDEMPOTENCE_OBSERVABLES):
                assert residuals[k, idx] == idempotence_residual(z, random_hermitian(rng, n)), (n, idx, k)

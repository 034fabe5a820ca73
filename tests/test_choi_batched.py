"""The batched Choi kernels against a per-instance loop kept here.

Each batched kernel must give, instance for instance, the same bits as
the single-instance code it replaced, and each Cholesky PSD verdict the
verdict of the full spectrum, so the selftest report cannot move.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cpumap import (
    EnvState,
    FixedPointSpec,
    build_fixed_point_choi,
    check_fixed_point,
    check_unital,
    choi_is_psd,
    env_kraus,
    positivity_bounds,
)
from cpumap.choi import (
    PSD_TOL,
    _BATCH_BYTES,
    _batches,
    _bound_minima,
    _choi_stack,
    _fixed_point_residuals,
    _spec_arrays,
    _unital_residuals,
)
from cpumap.linalg import _psd_verdicts, partial_trace_second
from cpumap.selftest import EQUIVALENCE_PER_DIM, _primal, equivalence_spec

from conftest import (
    kron_reference_choi,
    primal_loop,
    psd_reference,
    random_density,
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


def assert_batches_equal_loop(specs):
    seen = 0
    for batch in _batches(specs):
        assert len({spec.is_scalar for spec in batch}) == 1
        a, v, e, t = _spec_arrays(batch)
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
    batches = list(_batches(specs))
    assert [len(b) for b in batches] == [8, 4]
    assert [b[0].is_scalar for b in batches] == [False, True]
    assert_batches_equal_loop(specs)


def test_population_not_a_multiple_of_the_batch_size():
    specs = [equivalence_spec(7, 8, idx) for idx in range(37)]  # 16 per batch at N = 8
    assert [len(b) for b in _batches(specs)] == [16, 16, 5]
    assert_batches_equal_loop(specs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 32])
def test_no_batch_exceeds_the_byte_budget(n):
    size = max(1, _BATCH_BYTES // (16 * n**4))
    specs = [SimpleNamespace(dim=n, is_scalar=i % 7 == 0) for i in range(2 * size + 3)]
    batches = list(_batches(specs))
    assert sum(len(b) for b in batches) == len(specs)
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
    assert np.array_equal(_primal(k, rho), primal_loop(k, rho))

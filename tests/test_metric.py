import dataclasses
import math

import numpy as np
import pytest

from cpumap import (
    BatteryConfig,
    DomainError,
    EnvState,
    ProfileRecord,
    build_profile,
    dilation_factor,
    offset_factor,
    phi,
    simulate_charging,
    synth_env,
)
from cpumap import metric

from conftest import make_params, random_density, rng_for


def test_dilation_factor_horizon_value():
    # direct evaluation: 32 * e^{-1} / 2 = 16/e
    assert abs(dilation_factor(2.0, 1.0) - 32.0 * math.exp(-1.0) / 2.0) < 1e-15
    assert abs(dilation_factor(2.0, 1.0) - 5.886071058743077) < 1e-12


def test_dilation_factor_decreasing_tail():
    values = [dilation_factor(r, 1.0) for r in np.linspace(2.0, 50.0, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-6


def test_dilation_factor_scaling_identity():
    # substituting (2r, 2M): 32 (2M)^3 e^{-r/2M} / (2r) = 4 * factor(r, M)
    assert abs(dilation_factor(4.0, 2.0) - 4.0 * dilation_factor(2.0, 1.0)) < 1e-12
    assert abs(dilation_factor(4.0, 2.0) - 64.0 / math.e) < 1e-12


def test_offset_factor_finite_at_origin():
    params = make_params()
    assert offset_factor(0.0, params) == dilation_factor(0.1, 1.0)
    assert math.isfinite(offset_factor(0.0, params))


def test_offset_factor_recovers_bare_factor():
    bare = dilation_factor(2.0, 1.0)
    for r0 in (1e-3, 1e-6, 1e-9):
        params = make_params(r0=r0)
        assert abs(offset_factor(2.0 - r0, params) - bare) < 1e-12
    assert abs(offset_factor(2.0, make_params(r0=1e-9)) - bare) < 1e-6


def test_offset_factor_three_point_profile():
    params = make_params()
    for r in (0.0, 1.0, 2.0):
        direct = 32.0 * math.exp(-(r + 0.1) / 2.0) / (r + 0.1)
        assert abs(offset_factor(r, params) - direct) < 1e-12


def test_synth_env_zero_target():
    env, clipped = synth_env(0.0, 8)
    assert not clipped
    assert env.spectrum[0] == 1.0
    assert phi(env) == 0.0


def test_synth_env_interior_target():
    env, clipped = synth_env(2.0, 8)
    assert not clipped
    assert abs(phi(env) - 2.0) < 1e-12
    env, clipped = synth_env(2.5, 8)
    assert not clipped
    assert abs(phi(env) - 2.5) < 1e-12
    # two-level structure: weight on level 0 and one excited level only
    support = np.nonzero(env.spectrum)[0]
    assert len(support) <= 2 and support[0] == 0


def test_synth_env_clipped_target():
    env, clipped = synth_env(100.0, 8)
    assert clipped
    assert phi(env) == 7.0
    assert env.spectrum[7] == 1.0


def test_synth_env_round_trip():
    d = 8
    for x in np.linspace(0.0, 2.0 * (d - 1), 57):
        env, clipped = synth_env(float(x), d)
        assert abs(phi(env) - min(float(x), d - 1.0)) < 1e-9
        assert clipped == (float(x) > d - 1)


def test_build_profile_basic():
    params = make_params(d=np.int64(16))
    assert type(params.d) is int and params.d == 16
    profile = build_profile(params)
    assert len(profile.records) == 3
    for rec in profile.records:
        assert math.isfinite(rec.target_factor)
        assert math.isfinite(rec.phi_achieved)
        assert abs(rec.phi_achieved - min(rec.target_factor, params.d - 1.0)) < 1e-9
        assert rec.clipped == (rec.target_factor > params.d - 1)


def test_build_profile_large_r_no_clipping():
    params = make_params(grid=np.linspace(30.0, 60.0, 10))
    profile = build_profile(params)
    for rec in profile.records:
        assert not rec.clipped
        assert rec.target_factor < 1e-4
        assert abs(rec.phi_achieved - rec.target_factor) < 1e-9


def test_build_profile_clips_near_horizon_for_large_mass():
    # mass large enough that the factor tops the truncation bound d-1 = 15
    params = make_params(M=2.0, r0=0.2, d=16, grid=np.linspace(0.0, 20.0, 21))
    profile = build_profile(params)
    near = profile.records[0]
    assert near.target_factor > 15.0 and near.clipped
    assert any(not rec.clipped for rec in profile.records)


def test_build_profile_monotone_decreasing():
    params = make_params(grid=np.linspace(0.0, 10.0, 25))
    targets = [rec.target_factor for rec in build_profile(params).records]
    assert all(a > b for a, b in zip(targets, targets[1:]))


def test_build_profile_charging_consistency():
    rng = rng_for(501)
    params = make_params(grid=np.linspace(1.0, 8.0, 6))
    profile = build_profile(params)
    for rec in profile.records:
        if rec.clipped:
            continue
        cfg = BatteryConfig(d=params.d, env=rec.env, rho0=random_density(rng, params.d))
        trace = simulate_charging(cfg, np.array([0.0, 1.0]))
        assert abs(trace.phi_fit - rec.target_factor) < 1e-9


def loop_synth_env(target_phi, d):
    """The scalar synthesis build_profile once ran per grid point."""
    spectrum = np.zeros(d)
    eye = np.eye(d, dtype=complex)
    if target_phi > d - 1:
        spectrum[d - 1] = 1.0
        return EnvState(dim=d, spectrum=spectrum, basis=eye), True
    if target_phi == 0.0:
        spectrum[0] = 1.0
        return EnvState(dim=d, spectrum=spectrum, basis=eye), False
    level = max(1, math.ceil(target_phi))
    p = target_phi / level
    spectrum[0] = 1.0 - p
    spectrum[level] += p
    return EnvState(dim=d, spectrum=spectrum, basis=eye), False


def assert_profile_equals_loop(params, target_at=metric.offset_factor):
    profile = build_profile(params)
    assert len(profile.records) == params.r_grid.size
    for r, rec in zip(params.r_grid, profile.records):
        target = target_at(float(r), params)
        env, clipped = loop_synth_env(target, params.d)
        assert rec.r == float(r)
        assert rec.target_factor == target
        assert rec.phi_achieved == phi(env)
        assert rec.phi_achieved == phi(rec.env)
        assert rec.clipped == clipped
        assert np.array_equal(rec.env.spectrum, env.spectrum)
        assert np.array_equal(rec.env.basis, env.basis)
        one_row, one_clipped = synth_env(target, params.d)
        assert np.array_equal(one_row.spectrum, env.spectrum) and one_clipped == clipped
    return profile


@pytest.mark.parametrize("d", [2, 3, 12, 16, 20, 32])
def test_build_profile_equals_per_point_loop(d):
    rng = rng_for(700 + d)
    for m in (0.5, 1.0, 2.5):
        grid = np.sort(rng.uniform(0.0, 20.0 * m, 60))
        grid[0] = 0.0
        assert_profile_equals_loop(make_params(M=m, r0=0.1 * m, d=d, grid=grid))
    assert_profile_equals_loop(make_params(d=d, grid=(3.0,)))


@pytest.mark.parametrize("d", [2, 3, 12, 16, 20, 32])
def test_build_profile_equals_loop_on_exact_targets(monkeypatch, d):
    # the target at r is r itself: integers, exactly d - 1, and just above it
    monkeypatch.setattr(metric, "_targets", lambda r, params: r.copy())
    top = float(d - 1)
    grid = sorted({0.0, 0.25, 1.0, 2.0, top - 0.5, top, math.nextafter(top, math.inf), top + 3.0})
    profile = assert_profile_equals_loop(make_params(d=d, grid=grid), lambda r, params: r)
    by_target = {rec.target_factor: rec for rec in profile.records}
    assert not by_target[top].clipped and by_target[top].phi_achieved == top
    assert by_target[math.nextafter(top, math.inf)].clipped


def test_build_profile_shares_read_only_arrays():
    profile = build_profile(make_params(grid=np.linspace(0.0, 10.0, 40)))
    basis = profile.records[0].env.basis
    for rec in profile.records:
        assert rec.env.basis is basis
        assert not rec.env.spectrum.flags.writeable
        assert np.shares_memory(rec.env.spectrum, profile.records[0].env.spectrum.base)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        profile.records[3].env.spectrum[0] = 0.5
    assert basis is profile.basis and profile.records[3].env.spectrum.base is profile.spectra
    for name in ("r", "target", "phi", "clipped", "spectra", "basis"):
        with pytest.raises(ValueError):
            getattr(profile, name)[0] = 0


@pytest.mark.parametrize("d", [2, 16, 1024])
def test_records_equal_validated_constructors(monkeypatch, d):
    # one zero, one mixed, exactly d - 1 and one clipped target: each check at d = 1024 costs 0.1 s
    monkeypatch.setattr(metric, "_targets", lambda r, params: r.copy())
    profile = build_profile(make_params(d=d, grid=(0.0, 0.25, d - 1.0, d + 2.0)))
    records = profile.records
    assert [rec.clipped for rec in records] == [False, False, False, True]
    for i, rec in enumerate(records):
        env = EnvState(dim=d, spectrum=profile.spectra[i], basis=profile.basis)
        ref = ProfileRecord(r=float(profile.r[i]), target_factor=float(profile.target[i]),
                            phi_achieved=float(profile.phi[i]), clipped=bool(profile.clipped[i]), env=env)
        # == on two records would compare distinct arrays, which has no one truth value,
        # so the environments are compared apart
        assert dataclasses.replace(rec, env=None) == dataclasses.replace(ref, env=None)
        assert rec.env.dim == env.dim and type(rec.env.dim) is int
        assert np.array_equal(rec.env.spectrum, env.spectrum) and rec.env.spectrum.dtype == env.spectrum.dtype
        assert np.array_equal(rec.env.basis, env.basis) and rec.env.basis.dtype == env.basis.dtype
        assert repr(rec) == repr(ref)
        assert rec.env.basis is profile.basis
        assert rec.env.spectrum.base is profile.spectra and not rec.env.spectrum.flags.writeable


def test_targets_equal_per_point_loop():
    rng = rng_for(811)
    count = 0
    # a tiny r0, and M**3 within a factor 32 of the float range
    for M, r0 in ((1.0, 0.1), (0.37, 1e-300), (2.5, 1e-9), (1e-3, 1e-3), (1.7e102, 1.0)):
        grid = np.sort(rng.uniform(0.0, 40.0 * M, 20_000))
        grid[0] = 0.0
        params = make_params(M=M, r0=r0, grid=grid)
        loop = np.array([offset_factor(r, params) for r in grid.tolist()])
        assert build_profile(params).target.tobytes() == loop.tobytes()
        count += grid.size
    assert count >= 100_000


def test_shared_validator_rejects_bad_row_like_env_state():
    from cpumap.battery import _validate_env as validate_env

    d = 4
    spectra, _ = metric._spectra(np.array([0.0, 1.5, 2.0, 9.0]), d)
    eye = np.eye(d, dtype=complex)
    validate_env(spectra, eye)
    for bad in ([0.5, 0.4, 0.2, 0.0], [1.2, -0.2, 0.0, 0.0], [0.5, np.nan, 0.5, 0.0]):
        rows = spectra.copy()
        rows[2] = bad
        with pytest.raises(DomainError) as batched:
            validate_env(rows, eye)
        with pytest.raises(DomainError) as single:
            EnvState(dim=d, spectrum=np.array(bad), basis=eye)
        assert str(batched.value) == str(single.value)

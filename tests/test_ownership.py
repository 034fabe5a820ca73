"""Every validated class owns its arrays, one row per class and field: the
caller passes the array five ways, then writes into its own array; the value
with its derived fields and one downstream result must not move, and the
held array must be read-only."""

import contextlib

import numpy as np
import pytest

from cpumap import (
    BatteryConfig, ChoiMatrix, EnvState, EvolutionTrace, FixedPointSpec, KrausSet, MetricProfile, aligned_env, battery,
    build_fixed_point_choi, build_profile, choi, choi_is_psd, dual_apply_number, dual_map, env_kraus, linalg, metric,
    phi, serialize as ser, unitality_residual,
)

from conftest import make_params, random_density, random_env, random_spec, rng_for


def state(x):
    """``x`` as data comparable with ==: an array as its dtype, shape and
    bytes, an object as its fields."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return [state(v) for v in x]
    return {k: state(v) for k, v in vars(x).items()} if hasattr(x, "__dict__") else x


SPEC, ENV = random_spec(rng_for(253), 3), random_env(rng_for(422), 4)
PROFILE = build_profile(make_params(d=4, grid=np.linspace(0.0, 10.0, 5)))
STACK = np.zeros((2, 2, 2), dtype=complex)
STACK[0] = np.eye(2)
# id: (field, a fresh valid array for it, the instance built around it, one downstream result)
ROWS = {
    "spec-a": ("a", SPEC.a.copy, lambda a: FixedPointSpec(a=a, v=SPEC.v), build_fixed_point_choi),
    "spec-v": ("v", SPEC.v.copy, lambda v: FixedPointSpec(a=SPEC.a, v=v), build_fixed_point_choi),
    "choi-matrix": ("matrix", lambda: build_fixed_point_choi(SPEC).matrix.copy(),
                    lambda m: ChoiMatrix(dim=3, matrix=m), choi_is_psd),
    "kraus-stack": ("stack", STACK.copy, lambda s: KrausSet(dim=2, stack=s, tags=("B0", "B1")), unitality_residual),
    **{f"env-{name}": (name, getattr(ENV, name).copy, lambda x, name=name: EnvState(**{**vars(ENV), name: x}),
                       lambda env: (phi(env), env_kraus(env).stack, dual_apply_number(env)))
       for name in ("spectrum", "basis")},
    "aligned-env-spectrum": ("spectrum", ENV.spectrum.copy, lambda s: aligned_env(4, s), phi),
    "battery-rho0": ("rho0", lambda: random_density(rng_for(410), 4), lambda rho: BatteryConfig(d=4, env=ENV, rho0=rho),
                     lambda cfg: linalg.ensure_density_matrix(cfg.rho0)),
    "params-r_grid": ("r_grid", PROFILE.params.r_grid.copy, lambda r: make_params(d=4, grid=r), build_profile),
    **{f"profile-{name}": (name, getattr(PROFILE, name).copy,
                           lambda x, name=name: MetricProfile(**{**vars(PROFILE), name: x}),
                           lambda p: "".join(ser.profile_to_csv(p)))
       for name in ("r", "target", "phi", "clipped", "spectra", "basis")},
}
WAYS = {"array": lambda a: a, "slice": lambda a: a[:], "view": lambda a: a.view(), "buffer": memoryview,
        "list": lambda a: a.tolist()}


def check_owned(row, way):
    field, value, build, downstream = ROWS[row]
    source = value()
    obj = build(WAYS[way](source))
    held = getattr(obj, field)
    before, result = state(obj), state(downstream(obj))
    assert source.flags.writeable, "the constructor froze the caller's array"
    source.flat[0] = np.nan if source.dtype.kind in "fc" else not source.flat[0]
    assert not np.shares_memory(held, source)
    assert state(obj) == before and state(downstream(obj)) == result
    with pytest.raises(ValueError, match="read-only"):
        held.flat[0] = 0
    assert state(obj) == before


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("row", ROWS)
def test_validated_classes_own_their_arrays(row, way):
    check_owned(row, way)


def test_every_aliasing_row_fails_when_the_helper_skips_its_copy(monkeypatch):
    for module in (choi, dual_map, battery, metric):
        monkeypatch.setattr(module, "_owned", lambda a, given=None: linalg._owned(a))
    passed = []
    # a spec renormalizes v, so it never holds the caller's v
    for row, way in ((row, way) for row in ROWS if row != "spec-v" for way in WAYS if way != "list"):
        with contextlib.suppress(AssertionError):
            check_owned(row, way)
            passed.append(f"{row}-{way}")
    assert not passed


# id: a builder whose every call gives a new instance of one value.  The
# generated == compared the array fields, which raised numpy's ambiguous-truth
# ValueError beyond one entry, and the generated hash raised TypeError.
EQUAL_VALUES = {
    "FixedPointSpec": lambda: FixedPointSpec(a=SPEC.a, v=SPEC.v),
    "ChoiMatrix": lambda: ChoiMatrix(dim=1, matrix=np.eye(1)),
    "EnvState": lambda: EnvState(**vars(ENV)),
    "BatteryConfig": lambda: BatteryConfig(d=4, env=ENV, rho0=np.eye(4) / 4),
    "MetricParams": lambda: metric.MetricParams(**vars(PROFILE.params)),
    "MetricProfile": lambda: build_profile(PROFILE.params),
    "EvolutionTrace": lambda: EvolutionTrace(times=[0.0, 1.0], values=[0.0, 2.0], phi_fit=2.0),
}


@pytest.mark.parametrize("cls", EQUAL_VALUES)
def test_array_holding_classes_compare_and_hash_by_identity(cls):
    first, second = EQUAL_VALUES[cls](), EQUAL_VALUES[cls]()
    assert type(first).__name__ == cls
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second, first}) == 2

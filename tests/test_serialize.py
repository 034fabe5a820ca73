import math

import numpy as np
import pytest

from cpumap import (
    BatteryConfig,
    EnvState,
    EvolutionTrace,
    MetricParams,
    build_fixed_point_choi,
    build_profile,
    kraus_from_fixed_point,
    simulate_charging,
)
from cpumap import serialize as ser

from conftest import pencil_spec, random_density, rng_for


def test_matrix_round_trip():
    rng = rng_for(601)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = ser.matrix_from_json(ser.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_vector_round_trip():
    rng = rng_for(602)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert np.array_equal(ser.vector_from_json(ser.vector_to_json(v)), v)


def test_choi_round_trip():
    z = build_fixed_point_choi(pencil_spec(rng_for(604), 3))
    back = ser.choi_from_json(ser.choi_to_json(z))
    assert back.dim == z.dim
    assert np.array_equal(back.matrix, z.matrix)


def test_kraus_round_trip_preserves_tags():
    k = kraus_from_fixed_point(pencil_spec(rng_for(605), 3))
    back = ser.kraus_from_json(ser.kraus_to_json(k))
    assert back.dim == k.dim
    assert [t for t, _ in back.ops] == [t for t, _ in k.ops]
    for (_, a), (_, b) in zip(back.ops, k.ops):
        assert np.array_equal(a, b)


def test_env_round_trip():
    rng = rng_for(606)
    sig = np.sort(rng.random(4))
    sig = sig / sig.sum()
    sig = sig / sig.sum()
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    env = EnvState(dim=4, spectrum=sig, basis=q)
    back = ser.env_from_json(ser.env_to_json(env))
    assert np.array_equal(back.spectrum, env.spectrum)
    assert np.array_equal(back.basis, env.basis)


def make_trace():
    d = 4
    sig = np.zeros(d)
    sig[2] = 1.0
    env = EnvState(dim=d, spectrum=sig, basis=np.eye(d, dtype=complex))
    cfg = BatteryConfig(d=d, env=env, rho0=random_density(rng_for(607), d))
    return simulate_charging(cfg, [0.0, 1.0, 2.0])


def test_trace_csv():
    text = ser.trace_to_csv(make_trace())
    lines = text.strip().split("\n")
    assert lines[0] == "t,expectation"
    assert lines[1] == "0,0"
    assert lines[2] == "1,2"
    assert lines[3] == "2,4"


def test_trace_json():
    obj = ser.trace_to_json(make_trace())
    assert obj["times"] == [0.0, 1.0, 2.0]
    assert obj["values"] == [0.0, 2.0, 4.0]
    assert obj["phi"] == 2.0


def make_profile():
    params = MetricParams(M=1.0, r0=0.1, d=16, r_grid=np.linspace(0.0, 10.0, 5))
    return build_profile(params)


def test_profile_csv():
    text = ser.profile_to_csv(make_profile())
    lines = text.strip().split("\n")
    assert lines[0] == "r,target,phi,clipped"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[3] == "true"  # origin point is clipped at d-1 = 15
    assert float(first[2]) == 15.0


def assert_same_lines(got: str, want: str):
    """Compare two long texts line by line and name the first differing line,
    instead of letting pytest diff the whole texts."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    first = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
    assert first is None, f"line {first}: {got_lines[first]!r} != {want_lines[first]!r}"
    assert len(got_lines) == len(want_lines)


def test_csv_writers_match_per_row_formatting():
    # two full blocks of rows and a partial one, against one fmt call per value
    p = 2 * ser.CSV_BLOCK_ROWS + ser.CSV_BLOCK_ROWS // 2
    rng = rng_for(611)
    times = np.sort(rng.uniform(0.0, 1e3, p))
    values = rng.normal(size=p) * np.logspace(-300, 300, p)
    values[:2] = 0.0, -0.0
    want = "t,expectation\n" + "".join(f"{ser.fmt(t)},{ser.fmt(x)}\n" for t, x in zip(times, values))
    assert_same_lines(ser.trace_to_csv(EvolutionTrace(times=times, values=values, phi_fit=1.0)), want)
    profile = build_profile(MetricParams(M=1.0, r0=0.1, d=4, r_grid=np.linspace(0.0, 30.0, p)))
    assert profile.clipped.any() and not profile.clipped.all()
    want = "r,target,phi,clipped\n" + "".join(
        f"{ser.fmt(r)},{ser.fmt(target)},{ser.fmt(phi)},{'true' if flag else 'false'}\n"
        for r, target, phi, flag in zip(profile.r, profile.target, profile.phi, profile.clipped))
    assert_same_lines(ser.profile_to_csv(profile), want)


def test_profile_json_verbose_embeds_env():
    plain = ser.profile_to_json(make_profile(), verbose=False)
    verbose = ser.profile_to_json(make_profile(), verbose=True)
    assert "env" not in plain["records"][0]
    env = verbose["records"][0]["env"]
    assert env["d"] == 16
    assert len(env["spectrum"]) == 16


def test_fmt_17_digits_round_trip():
    for x in (0.1, 1.0 / 3.0, 16.0 / math.e, 5.886071058743077, 1e-300, -2.5e17):
        assert float(ser.fmt(x)) == x


def test_dumps_deterministic_and_parseable():
    import json

    obj = {"a": [0.1, 2, True, None], "b": {"c": 1.0 / 3.0}}
    s1 = ser.dumps(obj)
    s2 = ser.dumps(obj)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["b"]["c"] == 1.0 / 3.0


def _per_element_dumps(values):
    """The per-float emission that the array fast path replaces."""
    return "[" + ",".join(
        "null" if x is None
        else ("true" if x else "false") if isinstance(x, bool)
        else str(int(x)) if isinstance(x, (int, np.integer))
        else ser.fmt(x)
        for x in values
    ) + "]\n"


@pytest.mark.parametrize(
    "values",
    [
        [-0.0, 5e-324, 1e17, 1.0 / 3.0, 1e300],
        [-1e300, 0.0, -5e-324, 2.0**0.5, -1.0 / 3.0, 1e16, 123456789.0],
        (0.1, 0.2, 0.30000000000000004),
        [1, 0.5, True, np.float64(1.0 / 3.0), None, -0.0, False, np.float64(-0.0)],
        [np.float64(5e-324), np.float64(1e17)],
        [],
    ],
)
def test_dumps_matches_per_element_reference(values):
    assert ser.dumps(values) == _per_element_dumps(values)


def test_matrix_json_bytes_match_per_element_reference():
    rng = rng_for(603)
    m = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    m[0, 0] = complex(-0.0, 5e-324)
    m[1, 2] = complex(1e17, 1e300)
    s = ser.dumps(ser.matrix_to_json(m))
    re = _per_element_dumps([float(x) for x in m.real.reshape(-1)]).rstrip("\n")
    im = _per_element_dumps([float(x) for x in m.imag.reshape(-1)]).rstrip("\n")
    assert s == f'{{"rows":4,"cols":5,"re":{re},"im":{im}}}\n'

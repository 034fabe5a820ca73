import collections
import functools
import itertools
import json
import math

import numpy as np
import pytest

from cpumap import (
    BatteryConfig,
    ChoiMatrix,
    EnvState,
    EvolutionTrace,
    KrausSet,
    MetricParams,
    build_fixed_point_choi,
    build_profile,
    kraus_from_fixed_point,
    simulate_charging,
)
from cpumap import serialize as ser

from conftest import (
    choi_payload, kraus_payload, matrix_payload, pencil_spec, random_density, random_env, rng_for, traced_peak_bytes,
    vector_payload,
)


def parsed(chunks):
    return json.loads("".join(chunks))


def test_matrix_round_trip():
    rng = rng_for(601)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = ser.matrix_from_json(parsed(ser.matrix_to_json(m)))
    assert np.array_equal(back, m)


def test_vector_round_trip():
    rng = rng_for(602)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert np.array_equal(ser.vector_from_json(parsed(ser.vector_to_json(v))), v)


def test_choi_round_trip():
    z = build_fixed_point_choi(pencil_spec(rng_for(604), 3))
    back = ser.choi_from_json(parsed(ser.choi_to_json(z)))
    assert back.dim == z.dim
    assert np.array_equal(back.matrix, z.matrix)


def test_kraus_round_trip_preserves_tags():
    k = kraus_from_fixed_point(pencil_spec(rng_for(605), 3))
    back = ser.kraus_from_json(parsed(ser.kraus_to_json(k)))
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
    back = ser.env_from_json(parsed(ser.env_to_json(env)))
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
    text = "".join(ser.trace_to_csv(make_trace()))
    lines = text.strip().split("\n")
    assert lines[0] == "t,expectation"
    assert lines[1] == "0,0"
    assert lines[2] == "1,2"
    assert lines[3] == "2,4"


def test_trace_json():
    obj = json.loads("".join(ser.trace_to_json(make_trace())))
    assert obj["times"] == [0.0, 1.0, 2.0]
    assert obj["values"] == [0.0, 2.0, 4.0]
    assert obj["phi"] == 2.0


def make_profile():
    params = MetricParams(M=1.0, r0=0.1, d=16, r_grid=np.linspace(0.0, 10.0, 5))
    return build_profile(params)


def test_profile_csv():
    text = "".join(ser.profile_to_csv(make_profile()))
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


def trace_of(p):
    rng = rng_for(611)
    times = np.sort(rng.uniform(0.0, 1e3, p))
    values = rng.normal(size=p) * np.logspace(-300, 300, p)
    values[0], values[-1] = 0.0, -0.0
    return EvolutionTrace(times=times, values=values, phi_fit=1.0 / 3.0)


def profile_of(p, d):
    profile = build_profile(MetricParams(M=1.0, r0=0.1, d=d, r_grid=np.linspace(0.0, 30.0, p)))
    assert p < 3 or profile.clipped.any() and not profile.clipped.all()
    return profile


# the per-row and per-point writers that the block writers replace
def per_row_trace_csv(trace):
    return "t,expectation\n" + "".join(f"{ser.fmt(t)},{ser.fmt(x)}\n" for t, x in zip(trace.times, trace.values))


def per_row_profile_csv(profile):
    return "r,target,phi,clipped\n" + "".join(
        f"{ser.fmt(r)},{ser.fmt(target)},{ser.fmt(phi)},{'true' if flag else 'false'}\n"
        for r, target, phi, flag in zip(profile.r, profile.target, profile.phi, profile.clipped))


def per_point_trace_json(trace):
    return ser.dumps({"times": trace.times.tolist(), "values": trace.values.tolist(), "phi": float(trace.phi_fit)})


def per_point_profile_json(profile, verbose=False):
    records = [{"r": r, "target": target, "phi": phi, "clipped": flag}
               for r, target, phi, flag in zip(profile.r.tolist(), profile.target.tolist(), profile.phi.tolist(),
                                                profile.clipped.tolist())]
    if verbose:
        basis = matrix_payload(profile.basis)
        for entry, spectrum in zip(records, profile.spectra.tolist()):
            entry["env"] = {"d": profile.params.d, "spectrum": spectrum, "V": basis}
    params = profile.params
    return ser.dumps({"M": float(params.M), "r0": float(params.r0), "d": params.d, "records": records})


# (instance of P points, writer, rows in the text of one block, per-point reference)
BLOCK_WRITERS = {
    "trace-csv": (trace_of, ser.trace_to_csv, lambda block: block.count("\n"), per_row_trace_csv),
    "trace-json": (trace_of, ser.trace_to_json, lambda block: block.count(",") + 1, per_point_trace_json),
    "profile-csv": (functools.partial(profile_of, d=4), ser.profile_to_csv, lambda block: block.count("\n"),
                    per_row_profile_csv),
    "profile-json": (functools.partial(profile_of, d=2), ser.profile_to_json, lambda block: block.count('{"r":'),
                     per_point_profile_json),
    **{f"profile-json-verbose-d{d}": (functools.partial(profile_of, d=d),
                                      functools.partial(ser.profile_to_json, verbose=True),
                                      lambda block: block.count('{"r":'),
                                      functools.partial(per_point_profile_json, verbose=True))
       for d in (16, 256)},  # one verbose row at d = 256 fills a block
}


@pytest.mark.parametrize("case", BLOCK_WRITERS)
def test_block_writers_match_per_point_reference(case):
    make, writer, count_rows, reference = BLOCK_WRITERS[case]
    # the rows of a full block: the writer's second chunk, after its head
    k = count_rows(next(itertools.islice(writer(make(20000)), 1, None)))
    assert k >= 1 and (k == 1) == case.endswith("d256")
    # one point, one full block, a block and one row, three blocks and a half
    for p in (1, k, k + 1, 3 * k + k // 2):
        obj = make(p)
        assert_same_lines("".join(writer(obj)), reference(obj))


def drain(chunks):
    collections.deque(chunks, maxlen=0)


def test_profile_json_peak_is_set_by_the_block_size():
    # the per-point dicts this writer replaced peaked at 106 MB here
    chunks = ser.profile_to_json(profile_of(200_000, 2))
    assert traced_peak_bytes(drain, chunks) < 8 * ser.BLOCK_CHARS


def test_verbose_profile_json_peak_holds_a_few_basis_texts():
    # one verbose row at d = 1024 is a 4.2 MB basis text: a block sized by rows
    # alone would format all eight rows, and repeat the row eight times to do it
    profile = build_profile(MetricParams(M=1.0, r0=0.1, d=1024, r_grid=np.linspace(0.0, 30.0, 8)))
    chunks = ser.profile_to_json(profile, verbose=True)
    next(chunks)  # the head; the basis is formatted before it
    block = next(chunks)
    assert block.count('{"r":') == 1 and len(block) > 4 * 1024**2
    assert traced_peak_bytes(drain, chunks) < 3 * len(block)


def test_profile_json_verbose_embeds_env():
    plain = json.loads("".join(ser.profile_to_json(make_profile(), verbose=False)))
    verbose = json.loads("".join(ser.profile_to_json(make_profile(), verbose=True)))
    assert "env" not in plain["records"][0]
    env = verbose["records"][0]["env"]
    assert env["d"] == 16
    assert len(env["spectrum"]) == 16


# values whose %.17g text is easy to get wrong: a signed zero, the smallest
# subnormal, a large and a small exponent, and a whole number
SPECIAL = (-0.0, 5e-324, 1e308, 1e-5, 3.0)
# JSON-escaped characters, non-ASCII text, and % signs the Kraus writer's
# templates must keep
ODD_TAGS = ('say "B0"', "back\\slash", "\u03c8-\u00e9tat \u65e5\u672c", "%s", "100%", "%.17g", "")


def reference_text(obj):
    """JSON text built value by value: json.dumps for keys and strings,
    "%.17g" for each float."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(key)}:{reference_text(value)}" for key, value in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(map(reference_text, obj)) + "]"
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def special_choi(rng, n):
    """A fixed-point Choi matrix with SPECIAL planted in Hermitian pairs."""
    m = build_fixed_point_choi(pencil_spec(rng, n)).matrix.copy()
    m[0, 0], m[5, 5] = SPECIAL[0], SPECIAL[4]
    m[1, 2], m[3, 4] = complex(SPECIAL[2], SPECIAL[1]), complex(SPECIAL[3], SPECIAL[4])
    m[2, 1], m[4, 3] = m[1, 2].conjugate(), m[3, 4].conjugate()
    return ChoiMatrix(dim=n, matrix=m)


def special_kraus(rng, n):
    """A fixed-point Kraus set with SPECIAL in its first and last operators
    and ODD_TAGS among its tags."""
    k = kraus_from_fixed_point(pencil_spec(rng, n))
    stack = k.stack.copy()
    stack[0, 0, :5] = SPECIAL
    stack[-1, -1, :5] = [complex(0.0, x) for x in SPECIAL]
    tags = list(k.tags)
    tags[:len(ODD_TAGS)] = ODD_TAGS
    tags[-1] = ODD_TAGS[0]
    return KrausSet(dim=n, stack=stack, tags=tags)


def env_payload(env):
    return {"d": env.dim, "spectrum": env.spectrum.tolist(), "V": matrix_payload(env.basis)}


ROW = np.array([[complex(x, -y) for x, y in zip(SPECIAL, reversed(SPECIAL))]])
# (object, writer, reference payload builder, blocks of one value run);
# N = 11 has 14641 Choi entries, more than one block of values holds
MATRIX_WRITERS = {
    "matrix-1x1": (lambda rng: np.array([[complex(SPECIAL[0], SPECIAL[1])]]), ser.matrix_to_json, matrix_payload, 1),
    "matrix-1xN": (lambda rng: ROW, ser.matrix_to_json, matrix_payload, 1),
    "matrix-0x0": (lambda rng: np.zeros((0, 0)), ser.matrix_to_json, matrix_payload, 0),
    "matrix-1x0": (lambda rng: np.zeros((1, 0)), ser.matrix_to_json, matrix_payload, 0),
    "vector": (lambda rng: ROW[0], ser.vector_to_json, vector_payload, 1),
    "vector-empty": (lambda rng: np.zeros(0), ser.vector_to_json, vector_payload, 0),
    "choi-n11": (lambda rng: special_choi(rng, 11), ser.choi_to_json, choi_payload, 2),
    "kraus-n11": (lambda rng: special_kraus(rng, 11), ser.kraus_to_json, kraus_payload, 3),
    "env-d5": (lambda rng: random_env(rng, 5), ser.env_to_json, env_payload, 1),
}


@pytest.mark.parametrize("case", MATRIX_WRITERS)
def test_matrix_writers_match_value_by_value_reference(case):
    make, writer, payload, blocks = MATRIX_WRITERS[case]
    obj = make(rng_for(612))
    chunks = list(writer(obj))
    assert_same_lines("".join(chunks), reference_text(payload(obj)) + "\n")
    # a separator chunk stands between two blocks of one run of values
    assert chunks.count(",") == max(0, blocks - 1) * (1 if case.startswith("kraus") else 2)


@pytest.mark.parametrize("writer", ["choi", "kraus"])
def test_matrix_writers_peak_is_set_by_the_block_size(writer):
    # the value lists and the joined text these writers replaced peaked at
    # 12.6 MB (Choi matrix) and 12.5 MB (Kraus set) here
    spec = pencil_spec(rng_for(613), 16)
    if writer == "choi":
        chunks = ser.choi_to_json(build_fixed_point_choi(spec))
    else:
        chunks = ser.kraus_to_json(kraus_from_fixed_point(spec))
    assert traced_peak_bytes(drain, chunks) < 2_000_000


def test_fmt_17_digits_round_trip():
    for x in (0.1, 1.0 / 3.0, 16.0 / math.e, 5.886071058743077, 1e-300, -2.5e17):
        assert float(ser.fmt(x)) == x


def test_dumps_deterministic_and_parseable():
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
    s = "".join(ser.matrix_to_json(m))
    re = _per_element_dumps([float(x) for x in m.real.reshape(-1)]).rstrip("\n")
    im = _per_element_dumps([float(x) for x in m.imag.reshape(-1)]).rstrip("\n")
    assert s == f'{{"rows":4,"cols":5,"re":{re},"im":{im}}}\n'

import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from cpumap import ChoiMatrix, DomainError, build_fixed_point_choi, kraus_from_fixed_point, serialize as ser
from cpumap.cli import MAX_GRID_POINTS, main, parse_grid
from cpumap.selftest import pencil_spec

from conftest import OVERFLOWING_SPECS, random_density, rng_for


def write_json(path, obj):
    path.write_text(ser.dumps(obj))


def write_spec_files(tmp_path, a, v):
    a_path = tmp_path / "a.json"
    v_path = tmp_path / "v.json"
    write_json(a_path, ser.matrix_to_json(a))
    write_json(v_path, ser.vector_to_json(v))
    return str(a_path), str(v_path)


def read_error(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.strip().splitlines()[-1]), captured.out


def test_parse_grid():
    assert np.allclose(parse_grid("0.5:10:20"), np.linspace(0.5, 10.0, 20))
    assert np.array_equal(parse_grid("3:9:1"), np.array([3.0]))


def test_choi_build_then_check(tmp_path, capsys):
    a_path, v_path = write_spec_files(
        tmp_path, np.diag([2.0, 1.0]).astype(complex), np.array([1.0, 0.0], dtype=complex)
    )
    z_path = tmp_path / "z.json"
    assert main(["choi-build", "--A", a_path, "--v", v_path, "--out", str(z_path)]) == 0
    assert main(["choi-check", "--Z", str(z_path), "--A", a_path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("unitality-residual ")
    assert lines[1].startswith("fixed-point-residual ")
    assert float(lines[0].split()[1]) < 1e-9
    assert float(lines[1].split()[1]) < 1e-9


def test_choi_check_flags_wrong_observable(tmp_path, capsys):
    a_path, v_path = write_spec_files(
        tmp_path, np.diag([2.0, 1.0]).astype(complex), np.array([1.0, 0.0], dtype=complex)
    )
    z_path = tmp_path / "z.json"
    main(["choi-build", "--A", a_path, "--v", v_path, "--out", str(z_path)])
    other = tmp_path / "other.json"
    # off-diagonal content is not preserved by this map
    write_json(other, ser.matrix_to_json(np.array([[1.0, 1.0], [1.0, 0.0]])))
    code = main(["choi-check", "--Z", str(z_path), "--A", str(other)])
    assert code == 2
    err, out = read_error(capsys)
    assert err["error"] == "residual"
    assert "fixed-point-residual" in out


def test_kraus_extract_and_map_apply(tmp_path, capsys):
    a_path, v_path = write_spec_files(
        tmp_path, np.diag([2.0, 1.0]).astype(complex), np.array([1.0, 0.0], dtype=complex)
    )
    z_path = tmp_path / "z.json"
    k_path = tmp_path / "k.json"
    b_path = tmp_path / "b.json"
    rng = rng_for(701)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = (g + g.conj().T) / 2
    write_json(b_path, ser.matrix_to_json(b))
    assert main(["choi-build", "--A", a_path, "--v", v_path, "--out", str(z_path)]) == 0
    assert main(["kraus-extract", "--A", a_path, "--v", v_path, "--out", str(k_path)]) == 0
    unital_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(unital_line.split()[1]) < 1e-9
    out_z = tmp_path / "via_z.json"
    out_k = tmp_path / "via_k.json"
    assert main(["map-apply", "--Z", str(z_path), "--B", str(b_path), "--out", str(out_z)]) == 0
    assert main(["map-apply", "--kraus", str(k_path), "--B", str(b_path), "--out", str(out_k)]) == 0
    via_z = ser.matrix_from_json(json.loads(out_z.read_text()))
    via_k = ser.matrix_from_json(json.loads(out_k.read_text()))
    assert np.max(np.abs(via_z - via_k)) < 1e-8


def test_map_apply_requires_exactly_one_source(tmp_path, capsys):
    b_path = tmp_path / "b.json"
    write_json(b_path, ser.matrix_to_json(np.eye(2)))
    assert main(["map-apply", "--B", str(b_path)]) == 2
    err, _ = read_error(capsys)
    assert err["error"] == "domain"


def test_evolve_csv(tmp_path):
    a_path, v_path = write_spec_files(
        tmp_path, np.diag([2.0, 1.0]).astype(complex), np.array([1.0, 0.0], dtype=complex)
    )
    z_path = tmp_path / "z.json"
    main(["choi-build", "--A", a_path, "--v", v_path, "--out", str(z_path)])
    rho_path = tmp_path / "rho.json"
    write_json(rho_path, ser.matrix_to_json(random_density(rng_for(702), 2)))
    out_path = tmp_path / "trace.csv"
    code = main(
        [
            "evolve",
            "--Z", str(z_path),
            "--A0", str(a_path),
            "--rho", str(rho_path),
            "--times", "0:4:5",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,expectation"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    slope = float(rows[1][1])
    for t_str, val_str in rows:
        assert abs(float(val_str) - slope * float(t_str)) < 1e-12


def test_battery_phi_prints_level(tmp_path, capsys):
    d = 4
    sig = [0.0, 0.0, 1.0, 0.0]
    env_obj = {"d": d, "spectrum": sig, "V": ser.matrix_to_json(np.eye(d))}
    env_path = tmp_path / "env.json"
    write_json(env_path, env_obj)
    assert main(["battery-phi", "--env", str(env_path)]) == 0
    assert float(capsys.readouterr().out.strip()) == 2.0


def test_battery_sim_csv(tmp_path):
    d = 4
    env_obj = {"d": d, "spectrum": [0.0, 0.0, 1.0, 0.0], "V": ser.matrix_to_json(np.eye(d))}
    env_path = tmp_path / "env.json"
    write_json(env_path, env_obj)
    out_path = tmp_path / "sim.csv"
    assert main(["battery-sim", "--env", str(env_path), "--times", "0:2:3", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines == ["t,expectation", "0,0", "1,2", "2,4"]


def test_metric_profile_rows_finite(tmp_path):
    out_path = tmp_path / "p.csv"
    code = main(
        ["metric-profile", "--M", "1", "--r0", "0.1", "--d", "16",
         "--grid", "0.5:10:20", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "r,target,phi,clipped"
    assert len(lines) == 21
    for line in lines[1:]:
        r, target, phi_val, clipped = line.split(",")
        assert math.isfinite(float(target)) and math.isfinite(float(phi_val))
        assert clipped in ("true", "false")


def test_metric_profile_json_verbose(tmp_path):
    out_path = tmp_path / "p.json"
    code = main(
        ["metric-profile", "--M", "1", "--d", "8", "--grid", "1:5:3",
         "--format", "json", "--verbose", "--out", str(out_path)]
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["r0"] == 0.1  # default 0.1 * M
    assert len(obj["records"]) == 3
    assert obj["records"][0]["env"]["d"] == 8


def test_validation_error_json(tmp_path, capsys):
    # degenerate denominator: A = diag(2, 0) with v = (1,1)/sqrt(2)
    a_path, v_path = write_spec_files(
        tmp_path,
        np.diag([2.0, 0.0]).astype(complex),
        np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    )
    code = main(["choi-build", "--A", a_path, "--v", v_path])
    assert code == 2
    err, _ = read_error(capsys)
    assert err["error"] == "degenerate-denominator"


def test_non_positive_spec_error_json(tmp_path, capsys):
    a_path, v_path = write_spec_files(
        tmp_path,
        np.diag([3.0, 2.0, 1.0]).astype(complex),
        np.array([1.0, 0.0, 0.0], dtype=complex),
    )
    code = main(["kraus-extract", "--A", a_path, "--v", v_path])
    assert code == 2
    err, _ = read_error(capsys)
    assert err["error"] == "negative-sqrt"


def test_missing_file_is_io_error(capsys):
    code = main(["battery-phi", "--env", "/nonexistent/env.json"])
    assert code == 1
    err, _ = read_error(capsys)
    assert err["error"] == "io"


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000], ids=["not-utf8", "deep-nesting"]
)
def test_unparsable_file_is_one_io_line(tmp_path, capsys, content):
    path = tmp_path / "env.json"
    path.write_bytes(content)
    assert main(["battery-phi", "--env", str(path)]) == 1
    assert_one_error_line(capsys, "io")


def test_usage_error_json(capsys):
    code = main(["choi-build"])  # missing required arguments
    assert code == 2
    err, _ = read_error(capsys)
    assert err["error"] == "usage"


def test_bad_grid_is_validation_error(tmp_path, capsys):
    env_obj = {"d": 2, "spectrum": [1.0, 0.0], "V": ser.matrix_to_json(np.eye(2))}
    env_path = tmp_path / "env.json"
    write_json(env_path, env_obj)
    code = main(["battery-sim", "--env", str(env_path), "--times", "0:1"])
    assert code == 2
    err, _ = read_error(capsys)
    assert err["error"] == "domain"


def test_non_numeric_grid_is_validation_error(capsys):
    with pytest.raises(DomainError):
        parse_grid("a:b:3")
    with pytest.raises(DomainError):
        parse_grid("0:1:2.5")
    code = main(["metric-profile", "--M", "1", "--grid", "a:b:3"])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "domain"
    assert captured.out == ""


def test_nan_mass_is_validation_error(capsys):
    code = main(["metric-profile", "--M", "nan", "--grid", "0:1:3"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "domain"


def test_output_determinism(tmp_path):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    args = ["metric-profile", "--M", "1", "--r0", "0.1", "--d", "16", "--grid", "0:10:25"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


DATA = pathlib.Path(__file__).parent / "data"


def test_choi_and_kraus_outputs_match_golden_files(tmp_path):
    a_path, v_path = str(DATA / "golden_n3_A.json"), str(DATA / "golden_n3_v.json")
    z_path, k_path = tmp_path / "z.json", tmp_path / "k.json"
    assert main(["choi-build", "--A", a_path, "--v", v_path, "--out", str(z_path)]) == 0
    assert main(["kraus-extract", "--A", a_path, "--v", v_path, "--out", str(k_path)]) == 0
    assert z_path.read_bytes() == (DATA / "golden_n3_choi.json").read_bytes()
    assert k_path.read_bytes() == (DATA / "golden_n3_kraus.json").read_bytes()


@pytest.mark.parametrize("ext, extra", [("csv", []), ("json", ["--format", "json", "--verbose"])])
def test_profile_output_matches_golden_file(tmp_path, ext, extra):
    out = tmp_path / f"profile.{ext}"
    args = ["metric-profile", "--M", "1", "--r0", "0.1", "--d", "16", "--grid", "0:10:200"]
    assert main(args + extra + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"golden_profile_M1_d16.{ext}").read_bytes()


def assert_one_error_line(capsys, code):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == code
    assert captured.out == ""


def cli_inputs(tmp_path):
    """Valid files for map-apply, battery-sim and evolve on a 2-level system."""
    a_path, v_path = write_spec_files(
        tmp_path, np.diag([2.0, 1.0]).astype(complex), np.array([1.0, 0.0], dtype=complex)
    )
    z_path = tmp_path / "z.json"
    assert main(["choi-build", "--A", a_path, "--v", v_path, "--out", str(z_path)]) == 0
    env_path = tmp_path / "env.json"
    write_json(env_path, {"d": 2, "spectrum": [0.0, 1.0], "V": ser.matrix_to_json(np.eye(2))})
    rho_path = tmp_path / "rho.json"
    write_json(rho_path, ser.matrix_to_json(random_density(rng_for(703), 2)))
    return {"A": a_path, "Z": str(z_path), "env": str(env_path), "rho": str(rho_path)}


def payload_commands(paths, bad, times="0:1:3"):
    """Each command that reads a user matrix, with ``bad`` as that matrix."""
    return {
        "map-apply": ["map-apply", "--Z", paths["Z"], "--B", bad],
        "battery-sim": ["battery-sim", "--env", paths["env"], "--rho0", bad, "--times", times],
        "evolve": ["evolve", "--Z", paths["Z"], "--A0", paths["A"], "--rho", bad, "--times", times],
    }


@pytest.mark.parametrize("command", ["map-apply", "battery-sim", "evolve"])
@pytest.mark.parametrize(
    "change",
    [{"re": ["x", 0.0, 0.0, 0.5]}, {"im": [0.0, None, 0.0, 0.0]}, {"rows": "x"}],
    ids=["string-entry", "null-entry", "string-rows"],
)
def test_non_numeric_payload_is_one_json_line(tmp_path, capsys, command, change):
    paths = cli_inputs(tmp_path)
    bad_path = tmp_path / "bad.json"
    write_json(bad_path, dict(ser.matrix_to_json(np.diag([0.5, 0.5])), **change))
    capsys.readouterr()
    assert main(payload_commands(paths, str(bad_path))[command]) == 2
    assert_one_error_line(capsys, "invalid")


def missing_key_command(tmp_path, key):
    """A command whose input file lacks ``key``, the rest of it valid."""
    paths = cli_inputs(tmp_path)
    b = ser.matrix_to_json(np.diag([0.5, 0.5]))
    kraus = ser.kraus_to_json(kraus_from_fixed_point(pencil_spec(42, 2, 0)))
    env = {"d": 2, "spectrum": [0.0, 1.0], "V": ser.matrix_to_json(np.eye(2))}
    choi = json.loads(pathlib.Path(paths["Z"]).read_text())
    if key == "tag":
        del kraus["ops"][1]["tag"]
    elif key == "V":
        del env["V"]
    elif key in ("re", "rows"):
        del b[key]
    else:
        del choi[key]
    files = {"B": b, "kraus": kraus, "env": env, "Z": choi}
    for name, obj in files.items():
        write_json(tmp_path / f"{name}.json", obj)
    f = {name: str(tmp_path / f"{name}.json") for name in files}
    return {
        "tag": ["map-apply", "--kraus", f["kraus"], "--B", paths["rho"]],
        "V": ["battery-phi", "--env", f["env"]],
        "re": ["map-apply", "--Z", paths["Z"], "--B", f["B"]],
        "rows": ["map-apply", "--Z", paths["Z"], "--B", f["B"]],
        "dim": ["map-apply", "--Z", f["Z"], "--B", paths["rho"]],
    }[key]


@pytest.mark.parametrize("key", ["tag", "V", "re", "rows", "dim"])
def test_missing_key_is_one_invalid_line(tmp_path, capsys, key):
    argv = missing_key_command(tmp_path, key)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "invalid" and repr(key) in err["detail"]


@pytest.mark.parametrize("command", ["battery-sim", "evolve"])
@pytest.mark.parametrize("times", ["nan:1:3", "0:inf:3", "0:1:100000000000"])
def test_bad_time_grid_is_domain_error_before_allocation(tmp_path, capsys, monkeypatch, command, times):
    paths = cli_inputs(tmp_path)
    capsys.readouterr()

    def no_linspace(*args, **kwargs):
        raise AssertionError("grid was allocated")

    monkeypatch.setattr(np, "linspace", no_linspace)
    assert main(payload_commands(paths, paths["rho"], times)[command]) == 2
    assert_one_error_line(capsys, "domain")


def test_parse_grid_caps_count():
    with pytest.raises(DomainError):
        parse_grid(f"0:1:{MAX_GRID_POINTS + 1}")
    with pytest.raises(DomainError):
        parse_grid("-inf:1:1")


def flag_commands(paths):
    """One command per float flag, each valid apart from that flag."""
    return {
        "tolerance": ["choi-check", "--Z", paths["Z"], "--A", paths["A"]],
        "evolve-rate": ["evolve", "--Z", paths["Z"], "--A0", paths["A"], "--rho", paths["rho"], "--times", "0:1:3"],
        "battery-sim-rate": ["battery-sim", "--env", paths["env"], "--times", "0:1:3"],
        "M": ["metric-profile", "--grid", "0:1:3"],
        "r0": ["metric-profile", "--M", "1", "--grid", "0:1:3"],
    }


@pytest.mark.parametrize(
    "case, flag",
    [
        ("tolerance", "--tolerance"),
        ("evolve-rate", "--rate"),
        ("battery-sim-rate", "--rate"),
        ("M", "--M"),
        ("r0", "--r0"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_one_domain_line(tmp_path, capsys, case, flag, value):
    paths = cli_inputs(tmp_path)
    # a Choi matrix with unitality residual 1e-3: a NaN tolerance used to pass it
    z = ser.choi_from_json(json.loads(pathlib.Path(paths["Z"]).read_text()))
    perturbed = z.matrix.copy()
    perturbed[0, 0] += 1e-3
    write_json(pathlib.Path(paths["Z"]), ser.choi_to_json(ChoiMatrix(dim=z.dim, matrix=perturbed)))
    capsys.readouterr()
    assert main(flag_commands(paths)[case] + [f"{flag}={value}"]) == 2
    assert_one_error_line(capsys, "domain")


@pytest.mark.parametrize(
    "extra",
    [["--M", "1e300"], ["--M", "1e100", "--r0", "1e-300", "--format", "json"]],
    ids=["mass-cubed-overflows", "factor-overflows"],
)
def test_overflowing_dilation_factor_is_one_domain_line(capsys, extra):
    assert main(["metric-profile", "--grid", "0:10:5"] + extra) == 2
    assert_one_error_line(capsys, "domain")


@pytest.mark.parametrize("source", ["--Z", "--kraus"])
def test_overflowing_dual_action_is_one_domain_line(tmp_path, capsys, source):
    # both paths once wrote "re":[inf,...] and exited 0; --kraus also warned
    spec = pencil_spec(42, 3, 0)
    map_path = tmp_path / "map.json"
    if source == "--Z":
        write_json(map_path, ser.choi_to_json(build_fixed_point_choi(spec)))
    else:
        write_json(map_path, ser.kraus_to_json(kraus_from_fixed_point(spec)))
    b_path = tmp_path / "b.json"
    write_json(b_path, ser.matrix_to_json(np.full((3, 3), 1.7e308)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["map-apply", source, str(map_path), "--B", str(b_path)]) == 2
    assert caught == []
    assert_one_error_line(capsys, "domain")


@pytest.mark.parametrize("command", ["choi-build", "kraus-extract"])
@pytest.mark.parametrize("a, v", OVERFLOWING_SPECS)
def test_overflowing_construction_is_one_domain_line(tmp_path, capsys, command, a, v):
    a_path, v_path = write_spec_files(tmp_path, a.astype(complex), v.astype(complex))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--A", a_path, "--v", v_path]) == 2
    assert caught == []
    assert_one_error_line(capsys, "domain")


def test_truncation_above_cap_is_rejected_before_allocation(capsys, monkeypatch):
    def no_eye(*args, **kwargs):
        raise AssertionError("an environment was allocated")

    monkeypatch.setattr(np, "eye", no_eye)
    code = main(["metric-profile", "--M", "1", "--d", "100000000000", "--grid", "0:10:5"])
    assert code == 2
    assert_one_error_line(capsys, "dimension")

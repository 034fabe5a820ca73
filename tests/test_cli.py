import json
import math
import pathlib

import numpy as np
import pytest

from cpumap import ChoiMatrix, DomainError, KrausSet, build_fixed_point_choi, kraus_from_fixed_point, serialize as ser
from cpumap import selftest
from cpumap.cli import MAX_GRID_POINTS, parse_grid

from conftest import NEGATED_IDENTITY_Z, OVERFLOWING_SPECS, OVERFLOWING_TRACE_Z, ZERO_SIZE, rng_for, run_cli, write_json


def write_spec_files(tmp_path, a, v):
    a_path = tmp_path / "a.json"
    v_path = tmp_path / "v.json"
    write_json(a_path, ser.matrix_to_json(a))
    write_json(v_path, ser.vector_to_json(v))
    return str(a_path), str(v_path)


def test_parse_grid():
    assert np.allclose(parse_grid("0.5:10:20"), np.linspace(0.5, 10.0, 20))
    assert np.array_equal(parse_grid("3:9:1"), np.array([3.0]))


def test_choi_build_then_check(cli_files):
    code, out, _ = run_cli(["choi-check", "--Z", cli_files["Z"], "--A", cli_files["A"]])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("unitality-residual ")
    assert lines[1].startswith("fixed-point-residual ")
    assert float(lines[0].split()[1]) < 1e-9
    assert float(lines[1].split()[1]) < 1e-9


def test_choi_check_flags_wrong_observable(cli_files, tmp_path):
    other = tmp_path / "other.json"
    # off-diagonal content is not preserved by this map
    write_json(other, ser.matrix_to_json(np.array([[1.0, 1.0], [1.0, 0.0]])))
    code, out, err = run_cli(["choi-check", "--Z", cli_files["Z"], "--A", str(other)])
    assert code == 2
    assert err["error"] == "residual"
    assert "fixed-point-residual" in out


def test_kraus_extract_and_map_apply(cli_files, tmp_path):
    b_path = tmp_path / "b.json"
    rng = rng_for(701)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    write_json(b_path, ser.matrix_to_json((g + g.conj().T) / 2))
    code, out, _ = run_cli(["kraus-extract", "--A", cli_files["A"], "--v", cli_files["v"]])
    assert code == 0
    assert float(out.strip().splitlines()[-1].split()[1]) < 1e-9
    out_z = tmp_path / "via_z.json"
    out_k = tmp_path / "via_k.json"
    assert run_cli(["map-apply", "--Z", cli_files["Z"], "--B", str(b_path), "--out", str(out_z)])[0] == 0
    assert run_cli(["map-apply", "--kraus", cli_files["kraus"], "--B", str(b_path), "--out", str(out_k)])[0] == 0
    via_z = ser.matrix_from_json(json.loads(out_z.read_text()))
    via_k = ser.matrix_from_json(json.loads(out_k.read_text()))
    assert np.max(np.abs(via_z - via_k)) < 1e-8


def test_map_apply_requires_exactly_one_source(cli_files):
    code, _, err = run_cli(["map-apply", "--B", cli_files["rho"]])
    assert (code, err["error"]) == (2, "domain")


def test_evolve_csv(cli_files, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        [
            "evolve",
            "--Z", cli_files["Z"],
            "--A0", cli_files["A"],
            "--rho", cli_files["rho"],
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


def write_level_two_env(tmp_path):
    """A d = 4 environment holding all its weight on level 2."""
    env_path = tmp_path / "env4.json"
    write_json(env_path, {"d": 4, "spectrum": [0.0, 0.0, 1.0, 0.0], "V": ser.matrix_to_json(np.eye(4))})
    return str(env_path)


def test_battery_phi_prints_level(tmp_path):
    code, out, _ = run_cli(["battery-phi", "--env", write_level_two_env(tmp_path)])
    assert code == 0
    assert float(out.strip()) == 2.0


def test_battery_sim_csv(tmp_path):
    out_path = tmp_path / "sim.csv"
    argv = ["battery-sim", "--env", write_level_two_env(tmp_path), "--times", "0:2:3", "--out", str(out_path)]
    assert run_cli(argv)[0] == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines == ["t,expectation", "0,0", "1,2", "2,4"]


def test_metric_profile_rows_finite(tmp_path):
    out_path = tmp_path / "p.csv"
    code, _, _ = run_cli(
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
    code, _, _ = run_cli(
        ["metric-profile", "--M", "1", "--d", "8", "--grid", "1:5:3",
         "--format", "json", "--verbose", "--out", str(out_path)]
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["r0"] == 0.1  # default 0.1 * M
    assert len(obj["records"]) == 3
    assert obj["records"][0]["env"]["d"] == 8


def test_validation_error_json(tmp_path):
    # degenerate denominator: A = diag(2, 0) with v = (1,1)/sqrt(2)
    a_path, v_path = write_spec_files(
        tmp_path,
        np.diag([2.0, 0.0]).astype(complex),
        np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    )
    code, _, err = run_cli(["choi-build", "--A", a_path, "--v", v_path])
    assert (code, err["error"]) == (2, "degenerate-denominator")


def test_non_positive_spec_error_json(tmp_path):
    a_path, v_path = write_spec_files(
        tmp_path,
        np.diag([3.0, 2.0, 1.0]).astype(complex),
        np.array([1.0, 0.0, 0.0], dtype=complex),
    )
    code, _, err = run_cli(["kraus-extract", "--A", a_path, "--v", v_path])
    assert (code, err["error"]) == (2, "negative-sqrt")


def test_missing_file_is_io_error():
    code, _, err = run_cli(["battery-phi", "--env", "/nonexistent/env.json"])
    assert (code, err["error"]) == (1, "io")


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000], ids=["not-utf8", "deep-nesting"]
)
def test_unparsable_file_is_one_io_line(tmp_path, content):
    path = tmp_path / "env.json"
    path.write_bytes(content)
    code, out, err = run_cli(["battery-phi", "--env", str(path)])
    assert (code, out, err["error"]) == (1, "", "io")


def test_usage_error_json():
    code, _, err = run_cli(["choi-build"])  # missing required arguments
    assert (code, err["error"]) == (2, "usage")


def test_bad_grid_is_validation_error(cli_files):
    code, _, err = run_cli(["battery-sim", "--env", cli_files["env"], "--times", "0:1"])
    assert (code, err["error"]) == (2, "domain")


def test_non_numeric_grid_is_validation_error():
    with pytest.raises(DomainError):
        parse_grid("a:b:3")
    with pytest.raises(DomainError):
        parse_grid("0:1:2.5")
    code, out, err = run_cli(["metric-profile", "--M", "1", "--grid", "a:b:3"])
    assert (code, out, err["error"]) == (2, "", "domain")


def test_nan_mass_is_validation_error():
    code, _, err = run_cli(["metric-profile", "--M", "nan", "--grid", "0:1:3"])
    assert (code, err["error"]) == (2, "domain")


def test_output_determinism(tmp_path):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    args = ["metric-profile", "--M", "1", "--r0", "0.1", "--d", "16", "--grid", "0:10:25"]
    assert run_cli(args + ["--out", str(out1)])[0] == 0
    assert run_cli(args + ["--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


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
def test_non_numeric_payload_is_one_json_line(cli_files, tmp_path, command, change):
    bad_path = tmp_path / "bad.json"
    write_json(bad_path, dict(ser.matrix_to_json(np.diag([0.5, 0.5])), **change))
    code, out, err = run_cli(payload_commands(cli_files, str(bad_path))[command])
    assert (code, out, err["error"]) == (2, "", "invalid")


# the input each missing key is deleted from, and the command reading it as {}
MISSING_KEY_COMMANDS = {
    "tag": ("kraus", ["map-apply", "--kraus", "{}", "--B", "{rho}"]),
    "V": ("env", ["battery-phi", "--env", "{}"]),
    "re": ("rho", ["map-apply", "--Z", "{Z}", "--B", "{}"]),
    "rows": ("rho", ["map-apply", "--Z", "{Z}", "--B", "{}"]),
    "dim": ("Z", ["map-apply", "--Z", "{}", "--B", "{rho}"]),
}


@pytest.mark.parametrize("key", ["tag", "V", "re", "rows", "dim"])
def test_missing_key_is_one_invalid_line(cli_files, tmp_path, key):
    slot, argv = MISSING_KEY_COMMANDS[key]
    obj = json.loads(pathlib.Path(cli_files[slot]).read_text())
    del (obj["ops"][1] if key == "tag" else obj)[key]
    broken = tmp_path / "broken.json"
    write_json(broken, obj)
    code, out, err = run_cli([part.format(str(broken), **cli_files) for part in argv])
    assert (code, out, err["error"]) == (2, "", "invalid")
    assert repr(key) in err["detail"]


@pytest.mark.parametrize("command", ["battery-sim", "evolve"])
@pytest.mark.parametrize("times", ["nan:1:3", "0:inf:3", "0:1:100000000000"])
def test_bad_time_grid_is_domain_error_before_allocation(cli_files, monkeypatch, command, times):
    def no_linspace(*args, **kwargs):
        raise AssertionError("grid was allocated")

    monkeypatch.setattr(np, "linspace", no_linspace)
    code, out, err = run_cli(payload_commands(cli_files, cli_files["rho"], times)[command])
    assert (code, out, err["error"]) == (2, "", "domain")


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
def test_non_finite_float_flag_is_one_domain_line(cli_files, case, flag, value):
    # a Choi matrix with unitality residual 1e-3: a NaN tolerance used to pass it
    z = ser.choi_from_json(json.loads(pathlib.Path(cli_files["Z"]).read_text()))
    perturbed = z.matrix.copy()
    perturbed[0, 0] += 1e-3
    write_json(pathlib.Path(cli_files["Z"]), ser.choi_to_json(ChoiMatrix(dim=z.dim, matrix=perturbed)))
    code, out, err = run_cli(flag_commands(cli_files)[case] + [f"{flag}={value}"])
    assert (code, out, err["error"]) == (2, "", "domain")


@pytest.mark.parametrize(
    "extra",
    [["--M", "1e300"], ["--M", "1e100", "--r0", "1e-300", "--format", "json"]],
    ids=["mass-cubed-overflows", "factor-overflows"],
)
def test_overflowing_dilation_factor_is_one_domain_line(extra):
    code, out, err = run_cli(["metric-profile", "--grid", "0:10:5"] + extra)
    assert (code, out, err["error"]) == (2, "", "domain")


@pytest.mark.parametrize("source", ["--Z", "--kraus"])
def test_overflowing_dual_action_is_one_domain_line(tmp_path, source):
    # both paths once wrote "re":[inf,...] and exited 0; --kraus also warned
    spec = selftest.pencil_spec(42, 3, 0)
    map_path = tmp_path / "map.json"
    if source == "--Z":
        write_json(map_path, ser.choi_to_json(build_fixed_point_choi(spec)))
    else:
        write_json(map_path, ser.kraus_to_json(kraus_from_fixed_point(spec)))
    b_path = tmp_path / "b.json"
    write_json(b_path, ser.matrix_to_json(np.full((3, 3), 1.7e308)))
    code, out, err = run_cli(["map-apply", source, str(map_path), "--B", str(b_path)])
    assert (code, out, err["error"]) == (2, "", "domain")


@pytest.mark.parametrize(
    "z, a",
    [(OVERFLOWING_TRACE_Z, np.zeros((2, 2))), (NEGATED_IDENTITY_Z, np.diag([1e308, 1.0]))],
    ids=["unitality", "fixed-point"],
)
def test_overflowing_residual_is_one_domain_line(tmp_path, z, a):
    # once printed a residual of inf, the fixed-point one after a numpy warning
    z_path, a_path = tmp_path / "z.json", tmp_path / "a.json"
    write_json(z_path, ser.choi_to_json(z))
    write_json(a_path, ser.matrix_to_json(a))
    code, out, err = run_cli(["choi-check", "--Z", str(z_path), "--A", str(a_path)])
    assert (code, out, err["error"]) == (2, "", "domain")


def test_kraus_set_without_operators_is_one_dimension_line(cli_files, tmp_path):
    # once printed the zero matrix and exited 0
    path = tmp_path / "no_ops.json"
    write_json(path, {"dim": 2, "ops": []})
    code, out, err = run_cli(["map-apply", "--kraus", str(path), "--B", cli_files["rho"]])
    assert (code, out, err["error"]) == (2, "", "dimension")


# maps on 2 levels that map-apply and evolve must not apply: the single Kraus
# operator 2I (Phi[I] = 4I), Z = 3 I_4 (Phi[B] = 3 tr(B) I, so Phi[I] = 6I
# and Phi[Phi[I]] = 36I) and the single operator 1e200 I, whose sum D D^dagger
# overflows
UNCHECKED_MAPS = {
    "kraus": ser.kraus_to_json(KrausSet.from_ops(2, [("B0", 2.0 * np.eye(2))])),
    "Z": ser.choi_to_json(ChoiMatrix(dim=2, matrix=3.0 * np.eye(4))),
    "huge": ser.kraus_to_json(KrausSet.from_ops(2, [("B0", 1e200 * np.eye(2))])),
    "I": ser.matrix_to_json(np.eye(2)),
    "rho": ser.matrix_to_json(np.eye(2) / 2),
}


@pytest.mark.parametrize(
    "argv, error, detail",
    [
        (["map-apply", "--kraus", "{kraus}", "--B", "{I}"], "residual", ": unitality 3"),
        (["map-apply", "--Z", "{Z}", "--B", "{I}"], "residual", ": unitality 5"),
        (["evolve", "--Z", "{Z}", "--A0", "{I}", "--rho", "{rho}", "--times", "0:2:3"],
         "residual", ": unitality 5, idempotence 30"),
        (["map-apply", "--kraus", "{huge}", "--B", "{I}"], "domain", "unitality residual overflows the float range"),
    ],
    ids=["map-apply-kraus", "map-apply-Z", "evolve", "kraus-unitality-overflows"],
)
def test_unchecked_map_is_one_error_line(tmp_path, argv, error, detail):
    # the first three once printed [4,0,0,4], 6I and the trace 0, 6, 12 and
    # exited 0; the last must end in the check, not in a numpy warning
    paths = {slot: tmp_path / f"{slot}.json" for slot in UNCHECKED_MAPS}
    for slot, obj in UNCHECKED_MAPS.items():
        write_json(paths[slot], obj)
    code, out, err = run_cli([part.format(**paths) for part in argv])
    assert (code, out, err["error"]) == (2, "", error)
    assert err["detail"].endswith(detail)


@pytest.mark.parametrize("command", ["choi-build", "kraus-extract"])
@pytest.mark.parametrize("a, v", OVERFLOWING_SPECS)
def test_overflowing_construction_is_one_domain_line(tmp_path, command, a, v):
    a_path, v_path = write_spec_files(tmp_path, a.astype(complex), v.astype(complex))
    code, out, err = run_cli([command, "--A", a_path, "--v", v_path])
    assert (code, out, err["error"]) == (2, "", "domain")


def test_truncation_above_cap_is_rejected_before_allocation(monkeypatch):
    def no_eye(*args, **kwargs):
        raise AssertionError("an environment was allocated")

    monkeypatch.setattr(np, "eye", no_eye)
    code, out, err = run_cli(["metric-profile", "--M", "1", "--d", "100000000000", "--grid", "0:10:5"])
    assert (code, out, err["error"]) == (2, "", "dimension")


@pytest.mark.parametrize(
    "argv",
    [
        ["choi-build", "--A", "{A}", "--v", "{v}"],
        ["kraus-extract", "--A", "{A}", "--v", "{v}"],
        ["choi-check", "--Z", "{Z}", "--A", "{A}"],
        ["map-apply", "--Z", "{Z}", "--B", "{rho}"],
        ["map-apply", "--kraus", "{kraus}", "--B", "{rho}"],
        ["evolve", "--Z", "{Z}", "--A0", "{A}", "--rho", "{rho}", "--times", "0:1:3"],
        ["battery-phi", "--env", "{env}"],
        ["battery-sim", "--env", "{env}", "--times", "0:1:3"],
    ],
    ids=["choi-build", "kraus-extract", "choi-check", "map-apply-Z", "map-apply-kraus", "evolve",
         "battery-phi", "battery-sim"],
)
def test_zero_dimension_payload_is_one_dimension_line(tmp_path, argv):
    # choi-check and battery-* once ended in a ValueError traceback, map-apply in exit 0
    paths = {slot: tmp_path / f"{slot}.json" for slot in ZERO_SIZE}
    for slot, obj in ZERO_SIZE.items():
        write_json(paths[slot], obj)
    code, out, err = run_cli([part.format(**paths) for part in argv])
    assert (code, out, err["error"]) == (2, "", "dimension")


def test_negative_seed_is_one_domain_line_before_any_check(monkeypatch):
    # once a numpy ValueError traceback from default_rng
    def no_check(seed):
        raise AssertionError("a check ran")

    monkeypatch.setattr(selftest, "CHECKS", (no_check,))
    code, out, err = run_cli(["selftest", "--seed", "-1"])
    assert (code, out, err["error"]) == (2, "", "domain")


def test_failing_selftest_is_one_selftest_line(monkeypatch):
    # once exit 2 with no error line
    assert len(selftest.CHECKS) == 8
    stubs = (lambda seed: ["PASS stub"],) * 7 + (lambda seed: ["FAIL stub"],)
    monkeypatch.setattr(selftest, "CHECKS", stubs)
    code, out, err = run_cli(["selftest", "--seed", "3"])
    assert (code, err["error"], err["detail"]) == (2, "selftest", "1 selftest check(s) failed")
    assert out == selftest.run_selftest(3)[0]
    assert out.endswith("FAIL stub\nselftest: 7 passed, 1 failed\n")

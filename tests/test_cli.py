import copy
import json
import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from cpumap import (
    ChoiMatrix,
    CpuMapError,
    KrausSet,
    build_fixed_point_choi,
    errors,
    kraus_from_fixed_point,
    serialize as ser,
)
from cpumap import selftest
from cpumap.cli import parse_grid

from conftest import (
    NEGATED_IDENTITY_Z,
    OVERFLOWING_SPECS,
    OVERFLOWING_TRACE_Z,
    PAYLOADS,
    ZERO_SIZE,
    cases,
    read_by,
    rng_for,
    run_cli,
    tag_rest,
    tagged_rows,
    write_json,
    write_payloads,
)
from test_rejections import REJECTIONS, assert_tagged_rejections


def test_parse_grid():
    assert np.allclose(parse_grid("0.5:10:20"), np.linspace(0.5, 10.0, 20))
    assert np.array_equal(parse_grid("3:9:1"), np.array([3.0]))


def test_choi_build_then_check(cli_files, tmp_path):
    built = tmp_path / "built.json"
    assert run_cli(["choi-build", "--A", cli_files["A"], "--v", cli_files["v"], "--out", str(built)])[0] == 0
    assert built.read_text() == ser.dumps(PAYLOADS["Z"])
    code, out, _ = run_cli(["choi-check", "--Z", str(built), "--A", cli_files["A"]])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("unitality-residual ")
    assert lines[1].startswith("fixed-point-residual ")
    assert float(lines[0].split()[1]) < 1e-9
    assert float(lines[1].split()[1]) < 1e-9


def test_kraus_extract_and_map_apply(cli_files, tmp_path):
    b_path = tmp_path / "b.json"
    rng = rng_for(701)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    write_json(b_path, ser.matrix_to_json((g + g.conj().T) / 2))
    code, out, _ = run_cli(["kraus-extract", "--A", cli_files["A"], "--v", cli_files["v"]])
    assert code == 0
    assert out.splitlines()[0] + "\n" == ser.dumps(PAYLOADS["kraus"])
    assert float(out.strip().splitlines()[-1].split()[1]) < 1e-9
    out_z = tmp_path / "via_z.json"
    out_k = tmp_path / "via_k.json"
    assert run_cli(["map-apply", "--Z", cli_files["Z"], "--B", str(b_path), "--out", str(out_z)])[0] == 0
    assert run_cli(["map-apply", "--kraus", cli_files["kraus"], "--B", str(b_path), "--out", str(out_k)])[0] == 0
    via_z = ser.matrix_from_json(json.loads(out_z.read_text()))
    via_k = ser.matrix_from_json(json.loads(out_k.read_text()))
    assert np.max(np.abs(via_z - via_k)) < 1e-8


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


# a d = 4 environment holding all its weight on level 2
LEVEL_TWO_ENV = {"d": 4, "spectrum": [0.0, 0.0, 1.0, 0.0], "V": ser.matrix_to_json(np.eye(4))}


def test_battery_phi_prints_level(tmp_path):
    code, out, _ = run_cli(["battery-phi", "--env", write_payloads(tmp_path, {"env": LEVEL_TWO_ENV})["env"]])
    assert code == 0
    assert float(out.strip()) == 2.0


def test_battery_sim_csv(tmp_path):
    out_path = tmp_path / "sim.csv"
    env = write_payloads(tmp_path, {"env": LEVEL_TWO_ENV})["env"]
    assert run_cli(["battery-sim", "--env", env, "--times", "0:2:3", "--out", str(out_path)])[0] == 0
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


def test_output_determinism(tmp_path):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    args = ["metric-profile", "--M", "1", "--r0", "0.1", "--d", "16", "--grid", "0:10:25"]
    assert run_cli(args + ["--out", str(out1)])[0] == 0
    assert run_cli(args + ["--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- error exits --------------------------------------------------------------

class ErrorExit(NamedTuple):
    """One command that must fail: ``{slot}`` parts of ``argv`` name the file of
    that slot of ``PAYLOADS``, with ``payloads`` replacing or adding slots; the
    run must end in ``exit`` with error ``code``, a detail ending in ``detail``
    and exactly ``stdout``, while each ``patch`` target is replaced.  The row
    is run by the test its ``test`` tag names (see ``conftest``)."""

    id: str
    argv: list
    payloads: dict
    exit: int
    code: str
    detail: str = ""
    stdout: str = ""
    patch: dict | None = None
    test: str | None = None


def forbidden(*args, **kwargs):
    raise AssertionError("the command made a call it must not make")


def spec_payloads(a, v):
    return {"A": ser.matrix_to_json(a), "v": ser.vector_to_json(np.asarray(v, dtype=float))}


def without(slot, key):
    """The ``PAYLOADS`` entry of ``slot`` less ``key`` (of its second operator for a Kraus set)."""
    obj = copy.deepcopy(PAYLOADS[slot])
    del (obj["ops"][1] if slot == "kraus" else obj)[key]
    return {slot: obj}


HALF = ser.matrix_to_json(np.eye(2) / 2)
NON_HERMITIAN = ser.matrix_to_json(np.diag([1.0, 1j]))
# Z with unitality residual 1e-3: a NaN tolerance once passed it
PERTURBED_Z = copy.deepcopy(PAYLOADS["Z"])
PERTURBED_Z["re"][0] += 1e-3
# the identity Kraus operator scaled by 2 (Phi[I] = 4I) and by 1e200, whose sum
# D D^dagger overflows; Z = 3 I_4 (Phi[B] = 3 tr(B) I, so Phi[I] = 6I and
# Phi[Phi[I]] = 36I)
DOUBLED_KRAUS = ser.kraus_to_json(KrausSet.from_ops(2, [("B0", 2.0 * np.eye(2))]))
HUGE_KRAUS = ser.kraus_to_json(KrausSet.from_ops(2, [("B0", 1e200 * np.eye(2))]))
NON_UNITAL_Z = ser.choi_to_json(ChoiMatrix(dim=2, matrix=3.0 * np.eye(4)))
# a CP spec on 3 levels and an observable whose dual action overflows
PENCIL = selftest.pencil_spec(42, 3, 0)
OVERFLOWING_B = ser.matrix_to_json(np.full((3, 3), 1.7e308))
FAILING_CHECKS = (lambda seed: ["PASS stub"],) * 7 + (lambda seed: ["FAIL stub"],)
SELFTEST_STUB_REPORT = "cpumap selftest seed=3\n" + "PASS stub\n" * 7 + "FAIL stub\nselftest: 7 passed, 1 failed\n"

EVOLVE = ["evolve", "--Z", "{Z}", "--A0", "{A}", "--rho", "{rho}", "--times"]
BATTERY_SIM = ["battery-sim", "--env", "{env}", "--times"]
# one argv per command (and per map source) that succeeds on PAYLOADS
COMMANDS = {
    "choi-build": ["choi-build", "--A", "{A}", "--v", "{v}"],
    "kraus-extract": ["kraus-extract", "--A", "{A}", "--v", "{v}"],
    "choi-check": ["choi-check", "--Z", "{Z}", "--A", "{A}"],
    "map-apply-Z": ["map-apply", "--Z", "{Z}", "--B", "{rho}"],
    "map-apply-kraus": ["map-apply", "--kraus", "{kraus}", "--B", "{rho}"],
    "evolve": EVOLVE + ["0:1:3"],
    "battery-phi": ["battery-phi", "--env", "{env}"],
    "battery-sim": BATTERY_SIM + ["0:1:3"],
}
CHOI_CHECK = COMMANDS["choi-check"]
TIMED = {"battery-sim": ["battery-sim", "--env", "{env}", "--rho0", "{rho}", "--times"], "evolve": EVOLVE}
FLAGS = {
    "tolerance": CHOI_CHECK + ["--tolerance"],
    "evolve-rate": COMMANDS["evolve"] + ["--rate"],
    "battery-sim-rate": COMMANDS["battery-sim"] + ["--rate"],
    "M": ["metric-profile", "--grid", "0:1:3", "--M"],
    "r0": ["metric-profile", "--M", "1", "--grid", "0:1:3", "--r0"],
}

CLI_ERRORS = tag_rest("test_error_exit", [
    *read_by("test_usage_error_json", ErrorExit("usage", ["choi-build"], {}, 2, "usage")),
    *read_by("test_missing_file_is_io_error",
             ErrorExit("missing-file", ["battery-phi", "--env", "/nonexistent/env.json"], {}, 1, "io")),
    *(ErrorExit(name, COMMANDS["battery-phi"], {"env": content}, 1, "io",
                test=f"test_unparsable_file_is_one_io_line[{name}]")
      for name, content in {"not-utf8": b"\xff\xfe{}", "deep-nesting": b"[" * 100000 + b"]" * 100000}.items()),
    # specs the construction refuses
    ErrorExit("zero-trace", COMMANDS["choi-build"], spec_payloads(np.diag([1.0, -1.0]), [1.0, 0.0]), 2, "zero-trace"),
    ErrorExit("zero-expectation", COMMANDS["choi-build"],
              spec_payloads(np.diag([1.0, -1.0, 1.0]), np.array([1.0, 1.0, 0.0]) / np.sqrt(2)), 2, "zero-expectation"),
    *read_by("test_validation_error_json",
             ErrorExit("degenerate-denominator", COMMANDS["choi-build"],
                       spec_payloads(np.diag([2.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)), 2,
                       "degenerate-denominator")),
    *read_by("test_non_positive_spec_error_json",
             ErrorExit("negative-sqrt", COMMANDS["kraus-extract"],
                       spec_payloads(np.diag([3.0, 2.0, 1.0]), [1.0, 0.0, 0.0]), 2, "negative-sqrt")),
    *(ErrorExit(f"{name}-{command}", COMMANDS[command], spec_payloads(a, v), 2, "domain",
                test=f"test_overflowing_construction_is_one_domain_line[{name}-{command}]")
      for name, (a, v) in OVERFLOWING_SPECS.items() for command in ("choi-build", "kraus-extract")),
    # malformed payloads
    *(ErrorExit(f"{name}-{command}", argv, {"rho": {**HALF, **change}}, 2, "invalid",
                test=f"test_non_numeric_payload_is_one_json_line[{name}-{command}]")
      for name, change in {"string-entry": {"re": ["x", 0.0, 0.0, 0.5]}, "null-entry": {"im": [0.0, None, 0.0, 0.0]},
                           "string-rows": {"rows": "x"}}.items()
      for command, argv in {"map-apply": COMMANDS["map-apply-Z"], "battery-sim": TIMED["battery-sim"] + ["0:1:3"],
                            "evolve": COMMANDS["evolve"]}.items()),
    *(ErrorExit(f"missing-{key}", COMMANDS[command], without(slot, key), 2, "invalid", repr(key),
                test=f"test_missing_key_is_one_invalid_line[{key}]")
      for key, slot, command in (("tag", "kraus", "map-apply-kraus"), ("V", "env", "battery-phi"),
                                 ("re", "rho", "map-apply-Z"), ("rows", "rho", "map-apply-Z"),
                                 ("dim", "Z", "map-apply-Z"))),
    # choi-check and battery-* once ended in a ValueError traceback, map-apply in exit 0
    *(ErrorExit(f"zero-size-{command}", argv, ZERO_SIZE, 2, "dimension",
                test=f"test_zero_dimension_payload_is_one_dimension_line[{command}]")
      for command, argv in COMMANDS.items()),
    # an empty Kraus set once printed the zero matrix and exited 0
    *read_by("test_kraus_set_without_operators_is_one_dimension_line",
             ErrorExit("kraus-without-operators", COMMANDS["map-apply-kraus"], {"kraus": {"dim": 2, "ops": []}}, 2,
                       "dimension")),
    ErrorExit("invalid-density-matrix", ["battery-sim", "--env", "{env}", "--rho0", "{I}", "--times", "0:1:3"], {},
              2, "invalid-density-matrix"),
    ErrorExit("evolve-non-hermitian-A0", EVOLVE + ["0:2:3"], {"A": NON_HERMITIAN, "rho": HALF}, 2, "hermiticity"),
    *read_by("test_map_apply_requires_exactly_one_source",
             ErrorExit("map-apply-needs-one-source", ["map-apply", "--B", "{rho}"], {}, 2, "domain")),
    # grids, flags and sizes; the patched rows are refused before a grid or an
    # environment is allocated
    *read_by("test_bad_grid_is_validation_error", ErrorExit("grid-two-parts", BATTERY_SIM + ["0:1"], {}, 2, "domain")),
    *read_by("test_non_numeric_grid_is_validation_error",
             ErrorExit("grid-non-numeric", ["metric-profile", "--M", "1", "--grid", "a:b:3"], {}, 2, "domain")),
    *(ErrorExit(f"times-{times}-{command}", argv + [times], {}, 2, "domain", patch={"numpy.linspace": forbidden},
                test=f"test_bad_time_grid_is_domain_error_before_allocation[{times}-{command}]")
      for command, argv in TIMED.items() for times in ("nan:1:3", "0:inf:3", "0:1:100000000000")),
    *read_by("test_nan_mass_is_validation_error",
             ErrorExit("mass-nan", ["metric-profile", "--M", "nan", "--grid", "0:1:3"], {}, 2, "domain")),
    *(ErrorExit(f"flag-{value}-{case}", argv[:-1] + [f"{argv[-1]}={value}"],
                {"Z": PERTURBED_Z} if case == "tolerance" else {}, 2, "domain",
                test=f"test_non_finite_float_flag_is_one_domain_line[{value}-{case}-{argv[-1]}]")
      for case, argv in FLAGS.items() for value in ("nan", "inf", "-inf")),
    ErrorExit("negative-tolerance", CHOI_CHECK + ["--tolerance", "-1"], {}, 2, "domain", "got -1"),
    ErrorExit("evolve-negative-rate", EVOLVE + ["0:2:3", "--rate", "-1"], {}, 2, "domain", "got -1"),
    ErrorExit("evolve-zero-rate", EVOLVE + ["0:2:3", "--rate", "0"], {}, 2, "domain", "got 0"),
    # every float flag is refused before a file is read or a grid allocated
    ErrorExit("battery-sim-negative-rate-before-io",
              ["battery-sim", "--env", "/nonexistent/env.json", "--times", "0:1:3", "--rate", "-1"], {}, 2, "domain",
              "got -1"),
    ErrorExit("metric-profile-negative-M", FLAGS["M"] + ["-1"], {}, 2, "domain", "got -1",
              patch={"numpy.linspace": forbidden}),
    ErrorExit("metric-profile-zero-r0", FLAGS["r0"] + ["0"], {}, 2, "domain", "got 0",
              patch={"numpy.linspace": forbidden}),
    # a bad rate or A0 is reported ahead of the residuals of a non-unital map
    ErrorExit("non-unital-evolve-negative-rate", EVOLVE + ["0:2:3", "--rate", "-1"], {"Z": NON_UNITAL_Z}, 2,
              "domain", "got -1"),
    ErrorExit("non-unital-evolve-non-hermitian-A0", EVOLVE + ["0:2:3"], {"Z": NON_UNITAL_Z, "A": NON_HERMITIAN},
              2, "hermiticity"),
    *read_by("test_truncation_above_cap_is_rejected_before_allocation",
             ErrorExit("truncation-above-cap",
                       ["metric-profile", "--M", "1", "--d", "100000000000", "--grid", "0:10:5"], {}, 2, "dimension",
                       patch={"numpy.eye": forbidden})),
    # once a numpy ValueError traceback from default_rng
    *read_by("test_negative_seed_is_one_domain_line_before_any_check",
             ErrorExit("negative-seed", ["selftest", "--seed", "-1"], {}, 2, "domain",
                       patch={"cpumap.selftest.CHECKS": (forbidden,)})),
    # overflows: these once wrote inf, warned or ended in a traceback
    *(ErrorExit(name, ["metric-profile", "--grid", "0:10:5", *extra], {}, 2, "domain",
                test=f"test_overflowing_dilation_factor_is_one_domain_line[{name}]")
      for name, extra in {"mass-cubed-overflows": ["--M", "1e300"],
                          "factor-overflows": ["--M", "1e100", "--r0", "1e-300", "--format", "json"]}.items()),
    *read_by("test_overflowing_dual_action_is_one_domain_line[--Z]",
             ErrorExit("dual-action-overflows-Z", ["map-apply", "--Z", "{Z}", "--B", "{B}"],
                       {"Z": ser.choi_to_json(build_fixed_point_choi(PENCIL)), "B": OVERFLOWING_B}, 2, "domain")),
    *read_by("test_overflowing_dual_action_is_one_domain_line[--kraus]",
             ErrorExit("dual-action-overflows-kraus", ["map-apply", "--kraus", "{kraus}", "--B", "{B}"],
                       {"kraus": ser.kraus_to_json(kraus_from_fixed_point(PENCIL)), "B": OVERFLOWING_B}, 2, "domain")),
    ErrorExit("fixed-point-dual-action-overflows", CHOI_CHECK,
              {"Z": ser.choi_to_json(build_fixed_point_choi(PENCIL)), "A": OVERFLOWING_B}, 2, "domain",
              "fixed-point residual overflows the float range"),
    *read_by("test_overflowing_residual_is_one_domain_line[unitality]",
             ErrorExit("unitality-residual-overflows", CHOI_CHECK,
                       {"Z": ser.choi_to_json(OVERFLOWING_TRACE_Z), "A": ser.matrix_to_json(np.zeros((2, 2)))},
                       2, "domain")),
    *read_by("test_overflowing_residual_is_one_domain_line[fixed-point]",
             ErrorExit("fixed-point-residual-overflows", CHOI_CHECK,
                       {"Z": ser.choi_to_json(NEGATED_IDENTITY_Z), "A": ser.matrix_to_json(np.diag([1e308, 1.0]))},
                       2, "domain")),
    *read_by("test_unchecked_map_is_one_error_line[kraus-unitality-overflows]",
             ErrorExit("kraus-unitality-overflows", ["map-apply", "--kraus", "{kraus}", "--B", "{I}"],
                       {"kraus": HUGE_KRAUS}, 2, "domain", "unitality residual overflows the float range")),
    # residuals: the unchecked maps once printed [4,0,0,4], 6I and the trace 0, 6, 12
    *read_by("test_choi_check_flags_wrong_observable",
             ErrorExit("wrong-observable", CHOI_CHECK, {"A": ser.matrix_to_json([[1.0, 1.0], [1.0, 0.0]])}, 2,
                       "residual", "exceed 1.0000000000000001e-09", "unitality-residual 0\nfixed-point-residual 1\n")),
    *read_by("test_unchecked_map_is_one_error_line[map-apply-kraus]",
             ErrorExit("non-unital-kraus", ["map-apply", "--kraus", "{kraus}", "--B", "{I}"], {"kraus": DOUBLED_KRAUS},
                       2, "residual", ": unitality 3")),
    *read_by("test_unchecked_map_is_one_error_line[map-apply-Z]",
             ErrorExit("non-unital-Z", ["map-apply", "--Z", "{Z}", "--B", "{I}"], {"Z": NON_UNITAL_Z}, 2,
                       "residual", ": unitality 5")),
    *read_by("test_unchecked_map_is_one_error_line[evolve]",
             ErrorExit("non-unital-evolve",
                       ["evolve", "--Z", "{Z}", "--A0", "{I}", "--rho", "{rho}", "--times", "0:2:3"],
                       {"Z": NON_UNITAL_Z, "rho": HALF}, 2, "residual", ": unitality 5, idempotence 30")),
    *read_by("test_failing_selftest_is_one_selftest_line",
             ErrorExit("selftest-fails", ["selftest", "--seed", "3"], {}, 2, "selftest", "1 selftest check(s) failed",
                       SELFTEST_STUB_REPORT, {"cpumap.selftest.CHECKS": FAILING_CHECKS})),
])


def assert_tagged_error_exits(request, directory):
    """Run the rows tagged with the running test."""
    for row in tagged_rows(CLI_ERRORS, request):
        paths = write_payloads(directory, {**PAYLOADS, **row.payloads})
        with pytest.MonkeyPatch.context() as patch:
            for target, value in (row.patch or {}).items():
                patch.setattr(target, value)
            code, out, err = run_cli([part.format(**paths) for part in row.argv])
        assert (code, out, err["error"]) == (row.exit, row.stdout, row.code), row.id
        assert err["detail"].endswith(row.detail), row.id


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_error_exit"))
def test_error_exit(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_tables_cover_every_error():
    classes = {cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, CpuMapError)}
    assert classes <= {row.cls for row in REJECTIONS}
    codes = {cls.code for cls in classes} | {"usage", "io", "residual", "selftest"}
    assert codes <= {row.code for row in CLI_ERRORS}


def test_every_tag_names_a_test():
    # a row tagged with a name no test has would never run
    names = set(re.findall(r"^def (test_\w+)\(", "".join(
        path.read_text() for path in Path(__file__).parent.glob("test_*.py")), re.M))
    assert {row.test.split("[")[0] for row in [*REJECTIONS, *CLI_ERRORS] if row.test} <= names


# --- error exits run by name ---------------------------------------------------


def test_usage_error_json(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_missing_file_is_io_error(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_unparsable_file_is_one_io_line"))
def test_unparsable_file_is_one_io_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_validation_error_json(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_non_positive_spec_error_json(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_overflowing_construction_is_one_domain_line"))
def test_overflowing_construction_is_one_domain_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_non_numeric_payload_is_one_json_line"))
def test_non_numeric_payload_is_one_json_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_missing_key_is_one_invalid_line"))
def test_missing_key_is_one_invalid_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_zero_dimension_payload_is_one_dimension_line"))
def test_zero_dimension_payload_is_one_dimension_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_kraus_set_without_operators_is_one_dimension_line(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_map_apply_requires_exactly_one_source(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_bad_grid_is_validation_error(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_non_numeric_grid_is_validation_error(request, tmp_path):
    assert_tagged_rejections(request)
    assert_tagged_error_exits(request, tmp_path)


def test_parse_grid_caps_count(request):
    assert_tagged_rejections(request)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_bad_time_grid_is_domain_error_before_allocation"))
def test_bad_time_grid_is_domain_error_before_allocation(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_nan_mass_is_validation_error(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_non_finite_float_flag_is_one_domain_line"))
def test_non_finite_float_flag_is_one_domain_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_truncation_above_cap_is_rejected_before_allocation(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_negative_seed_is_one_domain_line_before_any_check(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_overflowing_dilation_factor_is_one_domain_line"))
def test_overflowing_dilation_factor_is_one_domain_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_overflowing_dual_action_is_one_domain_line"))
def test_overflowing_dual_action_is_one_domain_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_overflowing_residual_is_one_domain_line"))
def test_overflowing_residual_is_one_domain_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


@pytest.mark.parametrize("case", cases(CLI_ERRORS, "test_unchecked_map_is_one_error_line"))
def test_unchecked_map_is_one_error_line(case, request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_choi_check_flags_wrong_observable(request, tmp_path):
    assert_tagged_error_exits(request, tmp_path)


def test_failing_selftest_is_one_selftest_line(request, tmp_path, monkeypatch):
    # once exit 2 with no error line; the row's stdout is the library's report
    assert len(selftest.CHECKS) == len(FAILING_CHECKS)
    assert_tagged_error_exits(request, tmp_path)
    monkeypatch.setattr(selftest, "CHECKS", FAILING_CHECKS)
    assert selftest.run_selftest(3) == (SELFTEST_STUB_REPORT, False)

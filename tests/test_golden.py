"""Every pinned output in ``tests/data/`` and the command that writes it; a
deliberate output change edits the file.  Acceptance criterion 9 pins the
seed-42 selftest report, and ``golden_n3_{A,v}.json`` are inputs."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cpumap import MetricParams, build_profile, metric, serialize as ser

from conftest import forbidden, run_cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
N3_SPEC = ["--A", str(DATA / "golden_n3_A.json"), "--v", str(DATA / "golden_n3_v.json")]
PROFILE = ["metric-profile", "--M", "1", "--r0", "0.1", "--d", "16", "--grid", "0:10:200"]

# CLI rows run in process with --out; demo rows run under -W error and print
PINNED = {
    "selftest_seed1.txt": ["selftest", "--seed", "1"],
    "selftest_seed7.txt": ["selftest", "--seed", "7"],
    "selftest_seed99.txt": ["selftest", "--seed", "99"],
    "golden_profile_M1_d16.csv": PROFILE,
    "golden_profile_M1_d16.json": PROFILE + ["--format", "json", "--verbose"],
    "golden_n3_choi.json": ["choi-build"] + N3_SPEC,
    "golden_n3_kraus.json": ["kraus-extract"] + N3_SPEC,
    **{
        f"demo_{demo.name[:2]}.txt": [sys.executable, "-W", "error", str(demo)]
        for demo in sorted((ROOT / "demos").glob("*.py"))
    },
}


def test_every_data_file_is_pinned_or_an_input():
    inputs = {"golden_n3_A.json", "golden_n3_v.json", "selftest_seed42.txt"}
    assert sorted(path.name for path in DATA.iterdir()) == sorted(set(PINNED) | inputs)


@pytest.mark.parametrize("name", PINNED)
def test_output_matches_pinned_file(tmp_path, name):
    argv = PINNED[name]
    if argv[0] == sys.executable:
        run = subprocess.run(argv, capture_output=True)
        assert (run.returncode, run.stderr.decode()) == (0, "")
        output = run.stdout
    else:
        assert run_cli(argv + ["--out", str(tmp_path / name)])[0] == 0
        output = (tmp_path / name).read_bytes()
    assert output == (DATA / name).read_bytes()


def test_profile_outputs_never_build_records(tmp_path, monkeypatch):
    # the writers read the columns; reading .records here fails the test
    monkeypatch.setattr(metric.MetricProfile, "records", property(forbidden))
    csv, verbose = ((DATA / f"golden_profile_M1_d16.{ext}").read_bytes() for ext in ("csv", "json"))
    profile = build_profile(MetricParams(M=1.0, r0=0.1, d=16, r_grid=np.linspace(0.0, 10.0, 200)))
    plain = json.loads(verbose)
    for entry in plain["records"]:
        del entry["env"]
    assert "".join(ser.profile_to_csv(profile)).encode() == csv
    assert "".join(ser.profile_to_json(profile, verbose=True)).encode() == verbose
    assert "".join(ser.profile_to_json(profile)) == ser.dumps(plain)
    for name in ("golden_profile_M1_d16.csv", "golden_profile_M1_d16.json"):
        assert run_cli(PINNED[name] + ["--out", str(tmp_path / name)])[0] == 0
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()

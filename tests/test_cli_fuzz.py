"""Fuzz the CLI float flags, grids and ``--d`` with malformed values.

Every run must end in exit code 0, 1 or 2, write nothing or exactly one
JSON error line to standard error, raise no numpy warning (the command
line would print it to standard error) and write no inf/nan token.
"""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpumap import serialize as ser
from cpumap.cli import main

from conftest import random_density, rng_for

FLOATS = ["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1", "0", "1", "2.5"]
COUNTS = ["1", "3", "50", "0", "-2", "100000000000"]
DIMS = ["2", "4", "16", "1", "-3", "100000000000"]
NON_FINITE_TOKEN = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)

floats = st.sampled_from(FLOATS)
grids = st.builds(lambda a, b, n: f"{a}:{b}:{n}", floats, floats, st.sampled_from(COUNTS))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {
        "A": ser.matrix_to_json(np.diag([2.0, 1.0]).astype(complex)),
        "v": ser.vector_to_json(np.array([1.0, 0.0], dtype=complex)),
        "env": {"d": 2, "spectrum": [0.0, 1.0], "V": ser.matrix_to_json(np.eye(2))},
        "rho": ser.matrix_to_json(random_density(rng_for(771), 2)),
    }
    out = {}
    for name, obj in files.items():
        out[name] = str(tmp / f"{name}.json")
        with open(out[name], "w", encoding="utf-8") as fh:
            fh.write(ser.dumps(obj))
    out["Z"] = str(tmp / "z.json")
    assert main(["choi-build", "--A", out["A"], "--v", out["v"], "--out", out["Z"]]) == 0
    return out


def commands(p):
    """Strategy over the subcommands that take float flags, grids or ``--d``."""
    return st.one_of(
        st.builds(lambda tol: ["choi-check", "--Z", p["Z"], "--A", p["A"], f"--tolerance={tol}"], floats),
        st.builds(
            lambda rate, times, fmt: [
                "evolve", "--Z", p["Z"], "--A0", p["A"], "--rho", p["rho"],
                f"--times={times}", f"--rate={rate}", "--format", fmt,
            ],
            floats, grids, st.sampled_from(["csv", "json"]),
        ),
        st.builds(
            lambda rate, times, fmt: [
                "battery-sim", "--env", p["env"], f"--times={times}", f"--rate={rate}", "--format", fmt,
            ],
            floats, grids, st.sampled_from(["csv", "json"]),
        ),
        st.builds(
            lambda m, r0, d, grid, fmt: [
                "metric-profile", f"--M={m}", f"--r0={r0}", f"--d={d}", f"--grid={grid}", "--format", fmt,
            ],
            floats, floats, st.sampled_from(DIMS), grids, st.sampled_from(["csv", "json"]),
        ),
    )


def test_malformed_flags_end_in_one_json_line(paths):
    p = paths

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(argv=commands(p))
    # reproduced defects: a silent NaN tolerance, overflow warnings, inf in JSON,
    # tracebacks from M**3 and from a d-sized allocation
    @example(argv=["choi-check", "--Z", p["Z"], "--A", p["A"], "--tolerance=nan"])
    @example(argv=["evolve", "--Z", p["Z"], "--A0", p["A"], "--rho", p["rho"], "--times=0:1:3", "--rate=inf"])
    @example(argv=["evolve", "--Z", p["Z"], "--A0", p["A"], "--rho", p["rho"], "--times=0:1e300:3", "--rate=1e300"])
    @example(argv=["battery-sim", "--env", p["env"], "--times=0:1e300:3", "--rate=1e300"])
    @example(argv=["metric-profile", "--M=1e300", "--grid=0:10:5"])
    @example(argv=["metric-profile", "--M=1e100", "--r0=1e-300", "--grid=0:10:5", "--format", "json"])
    @example(argv=["metric-profile", "--M=1", "--d=100000000000", "--grid=0:10:5"])
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        assert code in (0, 1, 2), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1, (argv, lines)
        if lines:
            assert "error" in json.loads(lines[0])
        assert not NON_FINITE_TOKEN.search(out.getvalue()), argv

    run()

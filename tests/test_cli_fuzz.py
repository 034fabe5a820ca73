"""Fuzz the CLI float flags, grids and ``--d`` with malformed values.

Every run must keep the CLI contract that ``conftest.run_cli`` checks.
"""

from hypothesis import example, given, settings, strategies as st

from conftest import run_cli

FLOATS = ["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1", "0", "1", "2.5"]
COUNTS = ["1", "3", "50", "0", "-2", "100000000000"]
DIMS = ["2", "4", "16", "1", "-3", "100000000000"]

floats = st.sampled_from(FLOATS)
grids = st.builds(lambda a, b, n: f"{a}:{b}:{n}", floats, floats, st.sampled_from(COUNTS))


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


def test_malformed_flags_end_in_one_json_line(cli_files):
    p = cli_files

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
        run_cli(argv)

    run()

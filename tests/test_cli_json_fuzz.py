"""Fuzz the JSON input files of every file-reading subcommand.

Each example takes one valid input file, breaks it (a wrong type, a
missing key, a ragged or resized list, a huge or negative size, a NaN or
Infinity literal, a non-object root) and runs the command on it; a
zero-size payload in each slot is an explicit example. Every run must keep
the CLI contract that ``conftest.run_cli`` checks and end in exit code 0
or 2 (every file exists and parses, so exit 1, an I/O failure, is wrong
too).
"""

import copy
import json
import pathlib

from hypothesis import example, given, settings, strategies as st

from conftest import ZERO_SIZE, run_cli

NAN, INF = float("nan"), float("inf")
JUNK = [
    None, True, "x", "2", 0, -1, 1.5, 2**63, 10**12, -(10**12), 1e308, NAN, INF, -INF,
    [], {}, [1.0, "x"], [[1.0, 0.0], [0.0]], [NAN, INF, 0.0, 1.0], [1e308, 0.0, 0.0, 1e308],
]
ROOTS = [[], "x", 1, None, True, [{}]]


# (subcommand argv with {slot} placeholders, the slot that gets the broken file)
COMMANDS = [
    (["choi-build", "--A", "{A}", "--v", "{v}"], "A"),
    (["choi-build", "--A", "{A}", "--v", "{v}"], "v"),
    (["kraus-extract", "--A", "{A}", "--v", "{v}"], "A"),
    (["kraus-extract", "--A", "{A}", "--v", "{v}"], "v"),
    (["choi-check", "--Z", "{Z}", "--A", "{A}"], "Z"),
    (["choi-check", "--Z", "{Z}", "--A", "{A}"], "A"),
    (["map-apply", "--Z", "{Z}", "--B", "{rho}"], "Z"),
    (["map-apply", "--Z", "{Z}", "--B", "{rho}"], "rho"),
    (["map-apply", "--kraus", "{kraus}", "--B", "{rho}"], "kraus"),
    (["evolve", "--Z", "{Z}", "--A0", "{A}", "--rho", "{rho}", "--times", "0:1:3"], "Z"),
    (["evolve", "--Z", "{Z}", "--A0", "{A}", "--rho", "{rho}", "--times", "0:1:3"], "A"),
    (["evolve", "--Z", "{Z}", "--A0", "{A}", "--rho", "{rho}", "--times", "0:1:3"], "rho"),
    (["battery-phi", "--env", "{env}"], "env"),
    (["battery-sim", "--env", "{env}", "--times", "0:1:3", "--format", "json"], "env"),
    (["battery-sim", "--env", "{env}", "--rho0", "{rho}", "--times", "0:1:3"], "rho"),
]


def paths_in(obj, prefix=()):
    """Every path to a value inside a JSON payload, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths_in(value, prefix + (key,))


def mutate(payload, path, action, junk):
    """Replace, delete, truncate or extend the value at ``path``."""
    obj = copy.deepcopy(payload)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "delete":
        del parent[key]
    elif action == "truncate" and isinstance(parent[key], list):
        parent[key] = parent[key][:-1]
    elif action == "extend" and isinstance(parent[key], list):
        parent[key] = parent[key] + [junk]
    else:
        parent[key] = junk
    return obj


def mutations(payload):
    paths = sorted(paths_in(payload), key=repr)
    edits = st.builds(
        lambda path, action, junk: mutate(payload, path, action, junk),
        st.sampled_from(paths),
        st.sampled_from(["replace", "delete", "truncate", "extend"]),
        st.sampled_from(JUNK),
    )
    return st.one_of(edits, st.sampled_from(ROOTS))


def cases(payloads):
    """Strategy over (argv template, slot, broken payload)."""
    return st.one_of(
        *(st.tuples(st.just(argv), st.just(slot), mutations(payloads[slot])) for argv, slot in COMMANDS)
    )


def test_malformed_payloads_end_in_one_json_line(cli_files, tmp_path):
    paths = cli_files
    payloads = {slot: json.loads(pathlib.Path(path).read_text()) for slot, path in paths.items()}
    broken = str(tmp_path / "broken.json")

    def case(command, slot, path, action, junk=None):
        argv = next(argv for argv, s in COMMANDS if argv[0] == command and s == slot)
        return argv, slot, mutate(payloads[slot], path, action, junk)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(case=cases(payloads))
    # reproduced defects: missing keys that exited 1 with code io (KeyError), and
    # numpy warnings from a trace, norm, Hermiticity or unitarity test that
    # overflows and from 1j * inf
    @example(case=case("map-apply", "kraus", ("ops", 0, "tag"), "delete"))
    @example(case=case("battery-phi", "env", ("V",), "delete"))
    @example(case=case("map-apply", "Z", ("dim",), "delete"))
    @example(case=case("choi-build", "A", ("re",), "replace", [1e308, 0.0, 0.0, 1e308]))
    @example(case=case("choi-build", "A", ("im", 0), "replace", 1e308))
    @example(case=case("choi-build", "A", ("im", 0), "replace", INF))
    @example(case=case("choi-build", "v", ("re", 0), "replace", 1e308))
    @example(case=case("battery-phi", "env", ("V", "re"), "replace", [NAN, INF, 0.0, 1.0]))
    @example(case=case("evolve", "rho", ("re",), "replace", [1e308, 0.0, 0.0, 1e308]))
    def run(case):
        argv, slot, payload = case
        with open(broken, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)  # writes NaN and Infinity literals
        code, _, _ = run_cli([part.format(**dict(paths, **{slot: broken})) for part in argv])
        assert code in (0, 2), (argv, payload)

    # a zero-size Choi matrix or environment once ended in a ValueError traceback
    for argv, slot in COMMANDS:
        run = example(case=(argv, slot, ZERO_SIZE[slot]))(run)
    run()

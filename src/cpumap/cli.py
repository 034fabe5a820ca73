"""Command-line front end.

Subcommands mirror the library surface: ``choi-build``, ``choi-check``,
``kraus-extract``, ``map-apply``, ``evolve``, ``battery-phi``,
``battery-sim``, ``metric-profile`` and ``selftest``.

Exit codes: 0 success, 1 I/O failure, 2 validation failure.  Every error
path emits one machine-readable line ``{"error": code, "detail": text}``
on standard error.  Identical arguments (and seed) produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import battery, metric, selftest as selftest_mod, serialize
from .choi import FixedPointSpec, build_fixed_point_choi, check_fixed_point, check_unital
from .dual_map import (
    apply_dual_choi, apply_dual_kraus, evolve_linear, idempotence_residual, kraus_from_fixed_point, unitality_residual
)
from .errors import CpuMapError, DomainError
from .linalg import ensure_hermitian
from .serialize import dumps, fmt

MAX_GRID_POINTS = 10**7
RESIDUAL_TOL = 1e-9  # choi-check's default; map-apply and evolve check their map against it
# how each float flag must compare with 0; every one must also be finite
FLOAT_FLAGS = {"tolerance": ">=", "rate": ">", "M": ">", "r0": ">"}


class _Failure(Exception):
    """A failed command; ``main`` reports it as it reports a ``CpuMapError``."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as JSON validation errors."""

    def error(self, message):
        raise _Failure("usage", message)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise json.JSONDecodeError("nesting too deep", "", 0) from None


def _write_text(path: str | None, chunks) -> None:
    """Write an iterable of text chunks to ``path``, or to standard output."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def parse_grid(spec: str) -> np.ndarray:
    """Parse ``start:stop:count`` with inclusive endpoints."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise DomainError(f"grid must be start:stop:count numbers, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"grid endpoints must be finite, got {spec!r}")
    if not 1 <= count <= MAX_GRID_POINTS:
        raise DomainError(f"grid count must be in [1, {MAX_GRID_POINTS}], got {count}")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def _check_float_flags(args) -> None:
    """Reject a non-finite float flag of the subcommand, then one outside its
    FLOAT_FLAGS range, before any file is read."""
    flags = {name: value for name in FLOAT_FLAGS if (value := getattr(args, name, None)) is not None}
    for name, value in flags.items():
        if not math.isfinite(value):
            raise DomainError(f"--{name} must be finite, got {value}")
    for name, value in flags.items():
        if value < 0 or value == 0 and FLOAT_FLAGS[name] == ">":
            raise DomainError(f"--{name} must be {FLOAT_FLAGS[name]} 0, got {fmt(value)}")


def _load_spec(a_path: str, v_path: str) -> FixedPointSpec:
    a = serialize.matrix_from_json(_read_json(a_path))
    v = serialize.vector_from_json(_read_json(v_path))
    return FixedPointSpec(a=a, v=v)


def build_parser() -> _Parser:
    parser = _Parser(prog="cpumap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("choi-build", help="build the fixed-point Choi matrix")
    p.add_argument("--A", required=True, help="matrix-json file with the observable")
    p.add_argument("--v", required=True, help="vector-json file with the unit vector")
    p.add_argument("--out", default=None)

    p = sub.add_parser("choi-check", help="verify unitality and the fixed point")
    p.add_argument("--Z", required=True, help="Choi-json file")
    p.add_argument("--A", required=True)
    p.add_argument("--tolerance", type=float, default=RESIDUAL_TOL)

    p = sub.add_parser("kraus-extract", help="extract the tagged Kraus family")
    p.add_argument("--A", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("map-apply", help="apply the dual map to an observable")
    p.add_argument("--Z", default=None, help="Choi-json file")
    p.add_argument("--kraus", default=None, help="Kraus-json file")
    p.add_argument("--B", required=True, help="matrix-json observable")
    p.add_argument("--out", default=None)

    p = sub.add_parser("evolve", help="linear observable growth under the map")
    p.add_argument("--Z", required=True)
    p.add_argument("--A0", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--times", required=True, help="grid start:stop:count")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("battery-phi", help="charging constant of an environment")
    p.add_argument("--env", required=True, help="env-json file")

    p = sub.add_parser("battery-sim", help="charging trajectory <N(t)>")
    p.add_argument("--env", required=True)
    p.add_argument("--rho0", default=None, help="matrix-json initial state")
    p.add_argument("--times", required=True, help="grid start:stop:count")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("metric-profile", help="singularity-free dilation profile")
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--r0", type=float, default=None, help="offset, default 0.1*M")
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--grid", required=True, help="radial grid start:stop:count")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--verbose", action="store_true", help="embed env states in JSON")
    p.add_argument("--out", default=None)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)

    return parser


def _cmd_choi_build(args) -> None:
    z = build_fixed_point_choi(_load_spec(args.A, args.v))
    _write_text(args.out, serialize.choi_to_json(z))


def _cmd_choi_check(args) -> None:
    z = serialize.choi_from_json(_read_json(args.Z))
    a = serialize.matrix_from_json(_read_json(args.A))
    unital = check_unital(z)
    fixed = check_fixed_point(z, a)
    sys.stdout.write(f"unitality-residual {fmt(unital)}\n")
    sys.stdout.write(f"fixed-point-residual {fmt(fixed)}\n")
    if unital > args.tolerance or fixed > args.tolerance:
        raise _Failure("residual", f"residuals {fmt(unital)}/{fmt(fixed)} exceed {fmt(args.tolerance)}")


def _cmd_kraus_extract(args) -> None:
    k = kraus_from_fixed_point(_load_spec(args.A, args.v))
    _write_text(args.out, serialize.kraus_to_json(k))
    sys.stdout.write(f"unitality-residual {fmt(unitality_residual(k))}\n")


def _check_map(residuals: dict) -> None:
    """Fail with ``residual`` when a residual of the input map exceeds RESIDUAL_TOL."""
    bad = {name: value for name, value in residuals.items() if value > RESIDUAL_TOL}
    if bad:
        detail = ", ".join(f"{name} {fmt(value)}" for name, value in bad.items())
        raise _Failure("residual", f"map residuals above {fmt(RESIDUAL_TOL)}: {detail}")


def _cmd_map_apply(args) -> None:
    if (args.Z is None) == (args.kraus is None):
        raise DomainError("provide exactly one of --Z or --kraus")
    b = serialize.matrix_from_json(_read_json(args.B))
    if args.Z is not None:
        z = serialize.choi_from_json(_read_json(args.Z))
        _check_map({"unitality": check_unital(z)})
        out = apply_dual_choi(z, b)
    else:
        k = serialize.kraus_from_json(_read_json(args.kraus))
        _check_map({"unitality": unitality_residual(k)})
        out = apply_dual_kraus(k, b)
    _write_text(args.out, serialize.matrix_to_json(out))


def _write_trace(args, trace) -> None:
    writer = serialize.trace_to_json if args.format == "json" else serialize.trace_to_csv
    _write_text(args.out, writer(trace))


def _cmd_evolve(args) -> None:
    z = serialize.choi_from_json(_read_json(args.Z))
    a0 = ensure_hermitian(serialize.matrix_from_json(_read_json(args.A0)))
    rho = serialize.matrix_from_json(_read_json(args.rho))
    # the closed form holds for a unital map with Phi[Phi[A0]] = Phi[A0]
    _check_map({"unitality": check_unital(z), "idempotence": idempotence_residual(z, a0)})
    _write_trace(args, evolve_linear(z, a0, rho, parse_grid(args.times), rate=args.rate))


def _cmd_battery_phi(args) -> None:
    env = serialize.env_from_json(_read_json(args.env))
    sys.stdout.write(fmt(battery.phi(env)) + "\n")


def _cmd_battery_sim(args) -> None:
    env = serialize.env_from_json(_read_json(args.env))
    if args.rho0 is not None:
        rho0 = serialize.matrix_from_json(_read_json(args.rho0))
    else:
        rho0 = np.zeros((env.dim, env.dim), dtype=complex)
        rho0[0, 0] = 1.0
    cfg = battery.BatteryConfig(d=env.dim, env=env, rho0=rho0, rate=args.rate)
    _write_trace(args, battery.simulate_charging(cfg, parse_grid(args.times)))


def _cmd_metric_profile(args) -> None:
    r0 = metric.default_r0(args.M) if args.r0 is None else args.r0
    params = metric.MetricParams(M=args.M, r0=r0, d=args.d, r_grid=parse_grid(args.grid))
    profile = metric.build_profile(params)
    if args.format == "json":
        _write_text(args.out, serialize.profile_to_json(profile, verbose=args.verbose))
    else:
        _write_text(args.out, serialize.profile_to_csv(profile))


def _cmd_selftest(args) -> None:
    report, ok = selftest_mod.run_selftest(seed=args.seed)
    _write_text(args.out, (report,))
    if not ok:
        failed = sum(1 for line in report.splitlines() if line.startswith("FAIL"))
        raise _Failure("selftest", f"{failed} selftest check(s) failed")


_COMMANDS = {
    "choi-build": _cmd_choi_build,
    "choi-check": _cmd_choi_check,
    "kraus-extract": _cmd_kraus_extract,
    "map-apply": _cmd_map_apply,
    "evolve": _cmd_evolve,
    "battery-phi": _cmd_battery_phi,
    "battery-sim": _cmd_battery_sim,
    "metric-profile": _cmd_metric_profile,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    """Run one command; the only place a command ends in failure, writing its
    one JSON error line on standard error."""
    try:
        args = build_parser().parse_args(argv)
        _check_float_flags(args)
        _COMMANDS[args.command](args)
        return 0
    except (_Failure, CpuMapError) as exc:
        code, detail, status = exc.code, str(exc), 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        code, detail, status = "io", f"{type(exc).__name__}: {exc}", 1
    sys.stderr.write(dumps({"error": code, "detail": detail}))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Every library rejection, one row each: the call, the exact error class it
raises and, where the message matters, a pattern the message must contain.
A new rejection case is one more row here, run as ``test_rejection[id]``
(the CLI's error exits are the ``CLI_ERRORS`` table in ``test_cli.py``)."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cpumap import (
    BatteryConfig,
    ChoiMatrix,
    CpuMapError,
    DegenerateDenominator,
    DimensionError,
    DomainError,
    EnvState,
    FixedPointSpec,
    HermiticityError,
    InvalidDensityMatrix,
    KrausSet,
    MetricProfile,
    NegativeSqrtArgument,
    ZeroExpectation,
    ZeroTrace,
    alignment_unitary,
    apply_dual_choi,
    apply_dual_kraus,
    build_fixed_point_choi,
    build_profile,
    choi_from_kraus,
    check_fixed_point,
    check_unital,
    dilation_factor,
    dual_apply_number,
    eig_hermitian,
    env_kraus,
    evolve_linear,
    evolve_linear_euler,
    idempotence_residual,
    is_psd,
    kraus_from_fixed_point,
    metric,
    number_operator,
    partial_trace_second,
    positivity_bounds,
    selftest,
    serialize as ser,
    simulate_charging,
    swap_unitary,
    synth_env,
    unitality_residual,
)
from cpumap.battery import _validate_env
from cpumap.cli import MAX_GRID_POINTS, parse_grid
from cpumap.linalg import as_matrix, ensure_density_matrix, ensure_hermitian

from conftest import (
    NEGATED_IDENTITY_Z,
    OVERFLOWING_SPECS,
    OVERFLOWING_TRACE_Z,
    forbidden,
    make_params as params,
    matrix_payload,
    pencil_spec,
    random_density,
    random_env,
    random_hermitian,
    random_spec,
    rng_for,
)


class Rejection(NamedTuple):
    """``call`` must raise exactly ``cls`` while each ``patch`` target is replaced."""

    id: str
    call: Callable[[], object]
    cls: type
    match: str | None = None
    patch: dict | None = None


def spec(a, v):
    return FixedPointSpec(a=np.asarray(a, dtype=complex), v=np.asarray(v, dtype=complex))


def env3(spectrum, basis=None):
    return EnvState(dim=3, spectrum=np.array(spectrum), basis=np.eye(3, dtype=complex) if basis is None else basis)


def battery_config(rho0=None, rate=1.0, seeds=(415, 416)):
    env = random_env(rng_for(seeds[0]), 3)
    return BatteryConfig(d=3, env=env, rho0=random_density(rng_for(seeds[1]), 3) if rho0 is None else rho0, rate=rate)


def evolve(route=evolve_linear, rho=None, times=(0.0, 1.0), a0=None, **kwargs):
    """Run ``route`` on a random 2-level map with valid inputs apart from those given."""
    rng = rng_for(320)
    z = build_fixed_point_choi(random_spec(rng, 2))
    a0 = random_hermitian(rng, 2) if a0 is None else a0
    rho = random_density(rng, 2) if rho is None else rho
    return route(z, a0, rho, times, **kwargs)


def overflowing_evolution():
    rng = rng_for(322)
    z = build_fixed_point_choi(pencil_spec(rng, 2))
    return evolve_linear(z, np.eye(2), random_density(rng, 2), [0.0, 1e300], rate=1e300)


DIAG21 = ([[2.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
NON_FINITE_TIMES = {"0-nan": [0.0, math.nan], "nan-1": [math.nan, 1.0], "0-inf": [0.0, math.inf]}
RHO_3 = random_density(rng_for(323), 3)
NAN_BASIS = np.eye(3, dtype=complex)
NAN_BASIS[1, 2] = np.nan
# the row- sets hold operators with one nonzero row, so they are built in row
# form and their Kraus sums go through those rows; the others are dense
ROW_0 = np.array([[1.0, 0.0], [0.0, 0.0]])
OVERFLOWING_KRAUS = {
    "term": KrausSet.from_ops(2, [("B0", 1e200 * np.eye(2))]),
    "sum": KrausSet.from_ops(2, [("B0", 1.3e154 * np.eye(2)), ("B1", 1.3e154 * np.eye(2))]),
    "row-term": KrausSet.from_ops(2, [("B0", 1e200 * ROW_0)]),
    "row-sum": KrausSet.from_ops(2, [("B0", 1.3e154 * ROW_0), ("B1", 1.3e154 * ROW_0)]),
}
# inputs whose arrays exceed linalg.MAX_ARRAY_BYTES: the Choi matrix and the
# Kraus stacks of N = 96 and d = 96 need 1.27 GiB each
BIG_SPEC = FixedPointSpec(a=np.diag([2.0] + [1.0] * 95), v=np.eye(96)[0])
BIG_ENV = EnvState(dim=96, spectrum=np.eye(96)[0], basis=np.eye(96, dtype=complex))
BIG_KRAUS = KrausSet.from_ops(96, [("B0", np.eye(96))])
# (d, P): 2e5 spectrum rows at d = 1024 need 1.53 GiB; at d = 2 the columns and
# transient floats of 1.4e7 points (metric.POINT_BYTES each) take the budget
PROFILES_ABOVE_BUDGET = ((1024, 200_000), (2, 14_000_000))
# the fields of a valid one-point profile at d = 2, for MetricProfile rows that change one column
PROFILE_FIELDS = vars(build_profile(params(d=2, grid=(0.5,))))
ENV_PAYLOAD = {"d": 2, "spectrum": [1.0, "0"], "V": matrix_payload(np.eye(2))}
# entry 0 has the wrong shape, entry 1 a non-numeric entry: 0 is reported first
KRAUS_OPS = [
    {"tag": "B0", "matrix": matrix_payload(np.eye(3))},
    {"tag": "B1", "matrix": {"rows": 2, "cols": 2, "re": ["x"] * 4, "im": [0.0] * 4}},
]

REJECTIONS = [
    # battery
    Rejection("number-operator-d1", lambda: number_operator(1), DimensionError),
    Rejection("battery-rho0-trace-3", lambda: battery_config(rho0=np.eye(3)), InvalidDensityMatrix),
    Rejection("battery-rate-zero", lambda: battery_config(rate=0.0), DomainError),
    Rejection("battery-rate-nan", lambda: battery_config(rate=math.nan), DomainError),
    Rejection("charging-descending-times", lambda: simulate_charging(battery_config(seeds=(415, 417)), [1.0, 0.0]),
              DomainError),
    Rejection("battery-rho0-not-square", lambda: battery_config(rho0=np.ones((2, 3))), InvalidDensityMatrix,
              "square"),
    Rejection("charging-times-empty", lambda: simulate_charging(battery_config(seeds=(418, 419)), []), DomainError,
              "is empty"),
    *(Rejection(f"charging-times-{name}", lambda t=t: simulate_charging(battery_config(seeds=(418, 419)), t),
                DomainError) for name, t in NON_FINITE_TIMES.items()),
    Rejection("charging-overflows",
              lambda: simulate_charging(battery_config(rate=1e300, seeds=(418, 419)), [0.0, 1e300]), DomainError),
    Rejection("alignment-theta-1.5", lambda: alignment_unitary(4, 1.5), DomainError),
    Rejection("alignment-d1", lambda: alignment_unitary(1, 0.5), DimensionError),
    Rejection("env-weights-sum-1.1", lambda: env3([0.5, 0.4, 0.2]), DomainError),
    Rejection("env-negative-weight", lambda: env3([1.2, -0.2, 0.0]), DomainError),
    Rejection("env-basis-not-unitary", lambda: env3([0.5, 0.3, 0.2], 2.0 * np.eye(3, dtype=complex)), DomainError),
    Rejection("env-spectrum-length", lambda: env3([0.5, 0.5]), DimensionError),
    Rejection("env-nan-basis", lambda: env3([0.5, 0.3, 0.2], NAN_BASIS), DomainError),
    Rejection("env-d0", lambda: EnvState(dim=0, spectrum=[], basis=np.zeros((0, 0))), DimensionError),
    # a float or bool dimension once reached numpy and raised a bare TypeError
    Rejection("env-d-float", lambda: EnvState(dim=2.0, spectrum=[0.5, 0.5], basis=np.eye(2)), DimensionError,
              "integer"),
    Rejection("env-d-bool", lambda: EnvState(dim=True, spectrum=[1.0], basis=np.eye(1)), DimensionError,
              "integer"),
    Rejection("battery-d-float", lambda: BatteryConfig(d=3.0, env=random_env(rng_for(415), 3), rho0=RHO_3),
              DimensionError, "integer"),
    Rejection("swap-unitary-d-float", lambda: swap_unitary(3.0), DimensionError, "integer"),
    Rejection("alignment-d-float", lambda: alignment_unitary(4.0, 0.5), DimensionError, "integer"),
    Rejection("number-operator-d-bool", lambda: number_operator(True), DimensionError, "integer"),
    # abs(nan - 1) > tol is False, so a NaN weight once slipped through
    Rejection("env-nan-spectrum", lambda: env3([0.5, np.nan, 0.5]), DomainError),
    # the size budget refuses each array before it is allocated
    Rejection("env-kraus-above-budget", lambda: env_kraus(BIG_ENV), DimensionError, "budget",
              patch={"numpy.zeros": forbidden}),
    # dual_apply_number goes through env_kraus, whose budget refuses it before any array
    Rejection("dual-apply-number-above-budget", lambda: dual_apply_number(BIG_ENV), DimensionError, "budget",
              patch={"numpy.zeros": forbidden, "numpy.empty": forbidden}),
    # swap_unitary(200) asks for 12.8 GB, number_operator(20000) for 6.4 GB, alignment_unitary(20000) for 3.2 GB
    Rejection("swap-unitary-above-budget", lambda: swap_unitary(200), DimensionError, "budget",
              patch={"numpy.zeros": forbidden, "numpy.arange": forbidden}),
    Rejection("number-operator-above-budget", lambda: number_operator(20_000), DimensionError, "budget",
              patch={"numpy.diag": forbidden, "numpy.arange": forbidden}),
    Rejection("alignment-unitary-above-budget", lambda: alignment_unitary(20_000, 0.5), DimensionError, "budget",
              patch={"numpy.eye": forbidden, "numpy.arange": forbidden}),
    # the selftest seed: a float once escaped as numpy's TypeError, and True ran and printed seed=True
    *(Rejection(f"selftest-seed-{name}", lambda seed=seed: selftest.run_selftest(seed), DomainError, "integer",
                patch={"cpumap.selftest.CHECKS": (forbidden,)}) for name, seed in {"float": 1.5, "bool": True}.items()),
    Rejection("dual-apply-number-d1", lambda: dual_apply_number(EnvState(dim=1, spectrum=[1.0], basis=np.eye(1))),
              DimensionError, "d >= 2"),
    Rejection("env-rows-basis-not-unitary", lambda: _validate_env(
        metric._spectra(np.array([0.0, 1.5, 2.0, 9.0]), 4)[0], 2.0 * np.eye(4, dtype=complex)), DomainError),
    # choi; both residuals once returned inf, the fixed-point one after a numpy warning
    Rejection("unitality-residual-overflows", lambda: check_unital(OVERFLOWING_TRACE_Z), DomainError,
              "unitality residual"),
    Rejection("fixed-point-residual-overflows", lambda: check_fixed_point(NEGATED_IDENTITY_Z, np.diag([1e308, 1.0])),
              DomainError, "fixed-point residual"),
    # where Phi[A] itself overflows, the residual that holds it is what is reported
    Rejection("fixed-point-dual-action-overflows", lambda: check_fixed_point(
        build_fixed_point_choi(selftest.pencil_spec(42, 3, 0)), np.full((3, 3), 1.7e308)), DomainError,
        "fixed-point residual overflows"),
    Rejection("fixed-point-dimension-mismatch",
              lambda: check_fixed_point(build_fixed_point_choi(spec(*DIAG21)), np.eye(3)), DimensionError),
    Rejection("bounds-dim-one", lambda: positivity_bounds(spec([[2.0]], [1.0])), DimensionError),
    Rejection("zero-trace", lambda: spec(np.diag([1.0, -1.0]), [1.0, 0.0]), ZeroTrace),
    Rejection("zero-expectation", lambda: spec(np.diag([1.0, -1.0, 1.0]), np.array([1.0, 1.0, 0.0]) / np.sqrt(2)),
              ZeroExpectation),
    # <v|A|v> = 1 = tr(A)/N
    Rejection("degenerate-denominator", lambda: spec(np.diag([2.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)),
              DegenerateDenominator),
    *(Rejection(f"spec-overflows-{name}", lambda a=a, v=v: spec(a, v), DomainError)
      for name, (a, v) in OVERFLOWING_SPECS.items()),
    # a NaN v once passed the norm check
    Rejection("spec-nan-v", lambda: spec(np.eye(2), [np.nan, 0.0]), DimensionError),
    Rejection("spec-v-norm-1.1", lambda: spec(DIAG21[0], [1.1, 0.0]), DimensionError),
    Rejection("spec-nan-a", lambda: spec([[np.nan, 0.0], [0.0, 1.0]], DIAG21[1]), DimensionError, "NaN or Inf"),
    Rejection("spec-non-hermitian-a", lambda: spec([[2.0, 1.0], [0.0, 1.0]], DIAG21[1]), HermiticityError),
    Rejection("spec-v-length", lambda: spec(DIAG21[0], [1.0, 0.0, 0.0]), DimensionError),
    Rejection("choi-stack-above-budget", lambda: build_fixed_point_choi(BIG_SPEC), DimensionError, "budget",
              patch={"cpumap.choi._kron": forbidden}),
    Rejection("choi-d0", lambda: ChoiMatrix(dim=0, matrix=np.zeros((0, 0))), DimensionError),
    Rejection("choi-d-float", lambda: ChoiMatrix(dim=2.0, matrix=np.eye(4)), DimensionError, "integer"),
    # dual_map
    Rejection("dual-choi-dimension-mismatch",
              lambda: apply_dual_choi(build_fixed_point_choi(random_spec(rng_for(304), 2)), np.eye(3)),
              DimensionError),
    Rejection("idempotence-residual-overflows",
              lambda: idempotence_residual(NEGATED_IDENTITY_Z, np.diag([1e308, 1.0])), DomainError,
              "idempotence residual"),
    # three distinct eigenvalues with aligned v: unital but not completely positive
    Rejection("kraus-non-positive-spec", lambda: kraus_from_fixed_point(spec(np.diag([3.0, 2.0, 1.0]), [1, 0, 0])),
              NegativeSqrtArgument),
    Rejection("evolve-rho-trace-2", lambda: evolve(rho=np.eye(2)), InvalidDensityMatrix),
    Rejection("evolve-descending-times", lambda: evolve(times=[1.0, 0.5]), DomainError),
    Rejection("evolve-negative-time", lambda: evolve(times=[-1.0, 0.5]), DomainError),
    *(Rejection(f"{route.__name__}-times-{name}", lambda t=t, route=route: evolve(times=t, route=route), DomainError)
      for name, t in NON_FINITE_TIMES.items() for route in (evolve_linear, evolve_linear_euler)),
    *(Rejection(f"{route.__name__}-times-empty", lambda route=route: evolve(times=[], route=route), DomainError,
                "is empty") for route in (evolve_linear, evolve_linear_euler)),
    *(Rejection(f"{route.__name__}-rho-dim-3", lambda route=route: evolve(rho=RHO_3, route=route), DimensionError,
                "rho shape") for route in (evolve_linear, evolve_linear_euler)),
    # evolve once printed the real part of a complex slope
    *(Rejection(f"{route.__name__}-non-hermitian-a0", lambda route=route: evolve(a0=np.diag([1.0, 1j]), route=route),
                HermiticityError) for route in (evolve_linear, evolve_linear_euler)),
    Rejection("evolve-rate-negative", lambda: evolve(rate=-1.0), DomainError, "rate"),
    Rejection("evolve-rate-zero", lambda: evolve(rate=0.0), DomainError, "rate"),
    Rejection("evolve-overflows", overflowing_evolution, DomainError),
    Rejection("kraus-op-shape", lambda: KrausSet.from_ops(2, [("B0", np.eye(3))]), DimensionError),
    Rejection("kraus-one-tag-two-ops", lambda: KrausSet(dim=2, stack=np.zeros((2, 2, 2)), tags=("B0",)),
              DimensionError),
    Rejection("kraus-nan-op", lambda: KrausSet.from_ops(2, [("B0", np.array([[np.nan, 0.0], [0.0, 1.0]]))]),
              DimensionError),
    Rejection("kraus-stack-above-budget", lambda: kraus_from_fixed_point(BIG_SPEC), DimensionError, "budget",
              patch={"numpy.empty": forbidden}),
    Rejection("choi-from-kraus-above-budget", lambda: choi_from_kraus(BIG_KRAUS), DimensionError, "budget",
              patch={"numpy.matmul": forbidden}),
    Rejection("kraus-d0", lambda: KrausSet(dim=0, stack=np.zeros((0, 0, 0)), tags=()), DimensionError),
    Rejection("kraus-d-float", lambda: KrausSet(dim=2.0, stack=np.eye(2)[None], tags=("B0",)), DimensionError,
              "integer"),
    # an empty set once applied as the zero map
    Rejection("kraus-no-ops", lambda: KrausSet(dim=2, stack=np.zeros((0, 2, 2)), tags=()), DimensionError,
              "at least one operator"),
    Rejection("kraus-no-pairs", lambda: KrausSet.from_ops(2, []), DimensionError, "at least one operator"),
    *(row for name, k in OVERFLOWING_KRAUS.items() for row in (
        Rejection(f"kraus-{name}-overflows-dual-action", lambda k=k: apply_dual_kraus(k, np.eye(2)), DomainError,
                  "dual action overflows"),
        Rejection(f"kraus-{name}-overflows-unitality", lambda k=k: unitality_residual(k), DomainError,
                  "unitality residual overflows"))),
    Rejection("dual-kraus-nan-observable", lambda: apply_dual_kraus(
        KrausSet.from_ops(2, [("B0", np.eye(2))]), np.array([[np.nan, 0.0], [0.0, 1.0]])), DimensionError, "NaN"),
    # linalg
    Rejection("partial-trace-shape", lambda: partial_trace_second(np.eye(6), 2, 2), DimensionError),
    # only the product d1 d2 was compared, so bad factors once reached reshape
    Rejection("partial-trace-d-negative", lambda: partial_trace_second(np.eye(4), -2, -2), DimensionError,
              "integer"),
    Rejection("partial-trace-d-float", lambda: partial_trace_second(np.eye(4), 2.0, 2.0), DimensionError,
              "integer"),
    Rejection("partial-trace-d-bool", lambda: partial_trace_second(np.eye(1), True, True), DimensionError,
              "integer"),
    Rejection("density-not-hermitian", lambda: ensure_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]])),
              InvalidDensityMatrix, "not Hermitian"),
    # rho - rho^dagger overflows to inf, which fails the test without a warning
    Rejection("density-hermiticity-overflows",
              lambda: ensure_density_matrix(np.array([[0.5, 1e308], [-1e308, 0.5]])), InvalidDensityMatrix,
              "not Hermitian"),
    Rejection("eig-non-hermitian", lambda: eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])), HermiticityError),
    Rejection("as-matrix-nan", lambda: as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]])), DimensionError),
    # the residual 1 is far above HERM_TOL x max(1, ||M||_max) = 0.1
    Rejection("hermitian-large-entries-asymmetric",
              lambda: ensure_hermitian(np.array([[1e8, 1.0], [0.0, 1e8]])), HermiticityError),
    # a Cholesky verdict at tol = 0 would mean strict definiteness
    *(Rejection(f"is-psd-tol-{name}", lambda tol=tol: is_psd(np.diag([1.0, 0.0]), tol), DomainError, "tol")
      for name, tol in (("nan", math.nan), ("inf", math.inf), ("zero", 0.0), ("negative", -1e-9))),
    # metric
    Rejection("dilation-r-zero", lambda: dilation_factor(0.0, 1.0), DomainError),
    Rejection("dilation-r-negative", lambda: dilation_factor(-1.0, 1.0), DomainError),
    Rejection("dilation-mass-zero", lambda: dilation_factor(2.0, 0.0), DomainError),
    Rejection("dilation-mass-cubed-overflows", lambda: dilation_factor(1.0, 1e300), DomainError,
              r"^dilation factor at r=1\.0, M=1e\+300 is not finite$"),
    Rejection("dilation-factor-overflows", lambda: dilation_factor(1e-300, 1e100), DomainError,
              r"^dilation factor at r=1e-300, M=1e\+100 is not finite$"),
    # build_profile raises offset_factor's error for the first grid point whose target is not finite
    Rejection("profile-mass-cubed-overflows", lambda: build_profile(params(M=1e300, grid=(0.0, 1.0))), DomainError,
              r"^dilation factor at r=0\.1, M=1e\+300 is not finite$"),
    Rejection("profile-factor-overflows", lambda: build_profile(params(M=1e100, r0=1e-300, grid=(0.0, 1.0))),
              DomainError, r"^dilation factor at r=1e-300, M=1e\+100 is not finite$"),
    Rejection("params-d-above-cap", lambda: params(d=metric.MAX_TRUNCATION + 1), DimensionError),
    Rejection("synth-env-d-above-cap", lambda: synth_env(1.0, metric.MAX_TRUNCATION + 1), DimensionError),
    Rejection("synth-env-d-float", lambda: synth_env(0.5, 4.0), DimensionError, "integer"),
    Rejection("synth-env-negative-target", lambda: synth_env(-0.5, 8), DomainError),
    # nan < 0 is False, so NaN once reached math.ceil and raised ValueError
    Rejection("synth-env-nan-target", lambda: synth_env(math.nan, 8), DomainError),
    Rejection("params-mass-zero", lambda: params(M=0.0), DomainError),
    Rejection("params-r0-zero", lambda: params(r0=0.0), DomainError),
    Rejection("params-d1", lambda: params(d=1), DimensionError),
    Rejection("params-d-float", lambda: params(d=4.0), DimensionError, "integer"),
    Rejection("params-grid-descending", lambda: params(grid=(2.0, 1.0)), DomainError),
    Rejection("params-grid-negative", lambda: params(grid=(-1.0, 1.0)), DomainError),
    # refused before the targets are computed
    *(Rejection(f"profile-above-budget-d{d}", lambda d=d, p=p: build_profile(params(d=d, grid=np.linspace(0, 10, p))),
                DimensionError, "budget", patch={"cpumap.metric._targets": forbidden,
                                                 "cpumap.metric._spectra": forbidden})
      for d, p in PROFILES_ABOVE_BUDGET),
    Rejection("params-grid-empty", lambda: params(grid=()), DomainError, "is empty"),
    Rejection("params-mass-nan", lambda: params(M=math.nan), DomainError),
    # r0 = inf once gave an all-zero profile without complaint
    Rejection("params-r0-inf", lambda: params(r0=math.inf), DomainError),
    Rejection("params-grid-inner-nan", lambda: params(grid=(0.0, math.nan, 2.0)), DomainError),
    Rejection("params-grid-leading-nan", lambda: params(grid=(math.nan, 1.0)), DomainError),
    # an infinite radius once gave the CSV row "inf,0,0,false"
    *(Rejection(f"params-grid-{name}", lambda grid=grid: params(grid=grid), DomainError)
      for name, grid in {"zero-inf": (0.0, math.inf), "inf": (math.inf,), "zero-nan": (0.0, math.nan)}.items()),
    # MetricProfile once took any columns: its records then held EnvStates that never passed
    # their checks, and profile_to_csv wrote nan
    *(Rejection(f"profile-{name}", lambda change=change: MetricProfile(**{**PROFILE_FIELDS, **change}), cls, match)
      for name, change, cls, match in (
          ("r-length", {"r": [0.5, 1.0]}, DimensionError, "r has shape"),
          ("clipped-2d", {"clipped": [[False]]}, DimensionError, "clipped has shape"),
          ("spectra-width", {"spectra": [[1.0, 0.0, 0.0]]}, DimensionError, "spectra has shape"),
          ("spectra-rows", {"spectra": [1.0, 0.0]}, DimensionError, "spectra has shape"),
          ("basis-shape", {"basis": np.eye(3)}, DimensionError, "basis has shape"),
          ("r-nan", {"r": [math.nan]}, DomainError, "r contains"),
          ("target-nan", {"target": [math.nan]}, DomainError, "target contains"),
          ("phi-inf", {"phi": [math.inf]}, DomainError, "phi contains"),
          ("clipped-int", {"clipped": [0]}, DomainError, "bool"),
          ("clipped-float", {"clipped": np.zeros(1)}, DomainError, "bool"),
          ("spectra-negative", {"spectra": [[2.0, -1.0]]}, DomainError, "negative weight"),
          ("spectra-sum", {"spectra": [[0.5, 0.0]]}, DomainError, "sums to"),
          ("spectra-nan", {"spectra": [[math.nan, 1.0]]}, DomainError, "sums to"),
          ("basis-not-unitary", {"basis": [[1.0, 1.0], [0.0, 1.0]]}, DomainError, "unitary"),
          ("basis-nan", {"basis": [[math.nan, 0.0], [0.0, 1.0]]}, DomainError, "unitary"),
          # the columns once went unchecked against each other: records then reported an r off the
          # grid and a phi that the environment does not reach
          ("r-off-grid", {"r": [0.75]}, DomainError, "^profile column r differs from the grid of params$"),
          ("phi-off-spectra", {"phi": [0.5]}, DomainError, "^profile column phi differs from the phi of its"),
          ("basis-swaps-levels", {"basis": [[0.0, 1.0], [1.0, 0.0]]}, DomainError, "phi differs"))),
    # serialize
    Rejection("matrix-entry-count", lambda: ser.matrix_from_json(
        {"rows": 2, "cols": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]}), DimensionError),
    *(Rejection(f"matrix-to-json-{name}", lambda m=m: ser.matrix_to_json(m), DimensionError)
      for name, m in {"inf": np.array([[1.0, np.inf]]), "nan": np.array([[np.nan]]), "vector": np.ones(3)}.items()),
    *(Rejection(f"matrix-non-numeric-{name}", lambda change=change: ser.matrix_from_json(
        {"rows": 1, "cols": 2, "re": [1.0, 1.0], "im": [0.0, 0.0], **change}), CpuMapError, repr(field))
      for name, change, field in (
          ("string-re", {"re": ["x", 1.0]}, "re"), ("null-im", {"im": [0.0, None]}, "im"),
          ("string-rows", {"rows": "x"}, "rows"), ("float-cols", {"cols": 2.5}, "cols"),
          ("ragged-re", {"re": [[1.0], [1.0, 2.0]]}, "re"),
          # numpy reads true among numbers as 1, so the entries' types are checked
          ("bool-among-floats-re", {"re": [True, 1.0]}, "re"), ("bools-im", {"im": [False, False]}, "im"),
          ("bool-scalar-re", {"re": True}, "re"), ("bool-nested-re", {"re": [[1.0, True]]}, "re"))),
    Rejection("vector-null-re", lambda: ser.vector_from_json({"re": [1.0, None], "im": [0.0, 0.0]}), CpuMapError,
              "'re'"),
    Rejection("vector-bool-im", lambda: ser.vector_from_json({"re": [1.0, 0.0], "im": [0.0, True]}), CpuMapError,
              "'im'"),
    Rejection("env-string-spectrum", lambda: ser.env_from_json(ENV_PAYLOAD), CpuMapError, "'spectrum'"),
    Rejection("env-bool-spectrum", lambda: ser.env_from_json(dict(ENV_PAYLOAD, spectrum=[True, False])), CpuMapError,
              "'spectrum'"),
    Rejection("env-null-d", lambda: ser.env_from_json(dict(ENV_PAYLOAD, d=None)), CpuMapError, "'d'"),
    Rejection("kraus-negative-dim", lambda: ser.kraus_from_json({"dim": -1, "ops": []}), CpuMapError, "'dim'"),
    Rejection("matrix-list-root", lambda: ser.matrix_from_json([1.0, 2.0]), CpuMapError, "JSON object"),
    Rejection("kraus-ops-not-list", lambda: ser.kraus_from_json({"dim": 2, "ops": 5}), CpuMapError, "'ops'"),
    Rejection("kraus-op-not-object", lambda: ser.kraus_from_json({"dim": 2, "ops": [5]}), CpuMapError, "'matrix'"),
    # a tag once went through str(): null loaded as 'None', 5 as '5'
    *(Rejection(f"kraus-tag-{name}", lambda tag=tag: ser.kraus_from_json(
        {"dim": 2, "ops": [{"tag": tag, "matrix": matrix_payload(np.eye(2))}]}), CpuMapError,
        f"^'tag' must be a string, got a JSON {kind}$")
      for name, tag, kind in (("null", None, "null"), ("number", 5, "number"), ("bool", True, "boolean"),
                              ("array", ["x"], "array"), ("object", {"a": 1}, "object"))),
    Rejection("kraus-first-bad-entry", lambda: ser.kraus_from_json({"dim": 2, "ops": KRAUS_OPS}), DimensionError,
              "'B0'"),
    Rejection("kraus-non-numeric-entry", lambda: ser.kraus_from_json({"dim": 2, "ops": KRAUS_OPS[1:]}), CpuMapError,
              "'re'"),
    # the CLI grid parser
    Rejection("grid-non-numeric", lambda: parse_grid("a:b:3"), DomainError),
    Rejection("grid-fractional-count", lambda: parse_grid("0:1:2.5"), DomainError),
    Rejection("grid-count-above-cap", lambda: parse_grid(f"0:1:{MAX_GRID_POINTS + 1}"), DomainError),
    Rejection("grid-minus-inf", lambda: parse_grid("-inf:1:1"), DomainError),
]


@pytest.mark.parametrize("row", REJECTIONS, ids=lambda row: row.id)
def test_rejection(row):
    with pytest.raises(row.cls, match=row.match) as caught, pytest.MonkeyPatch.context() as patch:
        for target, value in (row.patch or {}).items():
            patch.setattr(target, value)
        row.call()
    assert type(caught.value) is row.cls

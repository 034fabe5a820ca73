"""Every library rejection, one row each: the call, the exact error class it
raises and, where the message matters, a pattern the message must contain.
A new rejection case is one more row here, run as ``test_rejection[id]``
(the CLI's error exits are the ``CLI_ERRORS`` table in ``test_cli.py``).  A
row tagged with a topic test by ``read_by`` is run by that test instead (see
``conftest``)."""

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
    NegativeSqrtArgument,
    ZeroExpectation,
    ZeroTrace,
    alignment_unitary,
    apply_dual_choi,
    apply_dual_kraus,
    build_fixed_point_choi,
    check_fixed_point,
    check_unital,
    dilation_factor,
    eig_hermitian,
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
    synth_env,
    unitality_residual,
)
from cpumap.battery import _validate_env
from cpumap.cli import MAX_GRID_POINTS, parse_grid
from cpumap.linalg import as_matrix, ensure_hermitian

from conftest import (
    NEGATED_IDENTITY_Z,
    OVERFLOWING_SPECS,
    OVERFLOWING_TRACE_Z,
    cases,
    make_params as params,
    pencil_spec,
    random_density,
    random_env,
    random_hermitian,
    random_spec,
    rng_for,
    read_by,
    tag_rest,
    tagged_rows,
)


class Rejection(NamedTuple):
    id: str
    call: Callable[[], object]
    cls: type
    match: str | None = None
    test: str | None = None


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
OVERFLOWING_KRAUS = {
    "term": KrausSet.from_ops(2, [("B0", 1e200 * np.eye(2))]),
    "sum": KrausSet.from_ops(2, [("B0", 1.3e154 * np.eye(2)), ("B1", 1.3e154 * np.eye(2))]),
}
ENV_PAYLOAD = {"d": 2, "spectrum": [1.0, "0"], "V": ser.matrix_to_json(np.eye(2))}
# entry 0 has the wrong shape, entry 1 a non-numeric entry: 0 is reported first
KRAUS_OPS = [
    {"tag": "B0", "matrix": ser.matrix_to_json(np.eye(3))},
    {"tag": "B1", "matrix": {"rows": 2, "cols": 2, "re": ["x"] * 4, "im": [0.0] * 4}},
]

REJECTIONS = tag_rest("test_rejection", [
    # battery
    Rejection("number-operator-d1", lambda: number_operator(1), DimensionError),
    *read_by("test_battery_config_validation",
             Rejection("battery-rho0-trace-3", lambda: battery_config(rho0=np.eye(3)), InvalidDensityMatrix),
             Rejection("battery-rate-zero", lambda: battery_config(rate=0.0), DomainError),
             Rejection("battery-rate-nan", lambda: battery_config(rate=math.nan), DomainError),
             Rejection("charging-descending-times",
                       lambda: simulate_charging(battery_config(seeds=(415, 417)), [1.0, 0.0]), DomainError)),
    Rejection("battery-rho0-not-square", lambda: battery_config(rho0=np.ones((2, 3))), InvalidDensityMatrix,
              "square"),
    Rejection("charging-times-empty", lambda: simulate_charging(battery_config(seeds=(418, 419)), []), DomainError,
              "is empty"),
    *(Rejection(f"charging-times-{name}", lambda t=t: simulate_charging(battery_config(seeds=(418, 419)), t),
                DomainError, test=f"test_simulate_charging_rejects_non_finite_times[times{i}]")
      for i, (name, t) in enumerate(NON_FINITE_TIMES.items())),
    *read_by("test_simulate_charging_rejects_overflowing_trajectory",
             Rejection("charging-overflows", lambda: simulate_charging(
                 battery_config(rate=1e300, seeds=(418, 419)), [0.0, 1e300]), DomainError)),
    *read_by("test_alignment_unitary_domain",
             Rejection("alignment-theta-1.5", lambda: alignment_unitary(4, 1.5), DomainError),
             Rejection("alignment-d1", lambda: alignment_unitary(1, 0.5), DimensionError)),
    *read_by("test_env_state_validation",
             Rejection("env-weights-sum-1.1", lambda: env3([0.5, 0.4, 0.2]), DomainError),
             Rejection("env-negative-weight", lambda: env3([1.2, -0.2, 0.0]), DomainError),
             Rejection("env-basis-not-unitary", lambda: env3([0.5, 0.3, 0.2], 2.0 * np.eye(3, dtype=complex)),
                       DomainError),
             Rejection("env-spectrum-length", lambda: env3([0.5, 0.5]), DimensionError),
             Rejection("env-nan-basis", lambda: env3([0.5, 0.3, 0.2], NAN_BASIS), DomainError)),
    Rejection("env-d0", lambda: EnvState(dim=0, spectrum=[], basis=np.zeros((0, 0))), DimensionError),
    # abs(nan - 1) > tol is False, so a NaN weight once slipped through
    *read_by("test_env_state_rejects_nan_spectrum",
             Rejection("env-nan-spectrum", lambda: env3([0.5, np.nan, 0.5]), DomainError)),
    Rejection("env-rows-basis-not-unitary", lambda: _validate_env(
        metric._spectra(np.array([0.0, 1.5, 2.0, 9.0]), 4)[0], 2.0 * np.eye(4, dtype=complex)), DomainError),
    # choi; both residuals once returned inf, the fixed-point one after a numpy warning
    *read_by("test_overflowing_residuals_raise_domain_error",
             Rejection("unitality-residual-overflows", lambda: check_unital(OVERFLOWING_TRACE_Z), DomainError,
                       "unitality residual"),
             Rejection("fixed-point-residual-overflows",
                       lambda: check_fixed_point(NEGATED_IDENTITY_Z, np.diag([1e308, 1.0])), DomainError,
                       "fixed-point residual")),
    # where Phi[A] itself overflows, the residual that holds it is what is reported
    Rejection("fixed-point-dual-action-overflows", lambda: check_fixed_point(
        build_fixed_point_choi(selftest.pencil_spec(42, 3, 0)), np.full((3, 3), 1.7e308)), DomainError,
        "fixed-point residual overflows"),
    *read_by("test_check_fixed_point_dimension_mismatch",
             Rejection("fixed-point-dimension-mismatch",
                       lambda: check_fixed_point(build_fixed_point_choi(spec(*DIAG21)), np.eye(3)), DimensionError)),
    *read_by("test_bounds_reject_dim_one",
             Rejection("bounds-dim-one", lambda: positivity_bounds(spec([[2.0]], [1.0])), DimensionError)),
    *read_by("test_zero_trace_rejected",
             Rejection("zero-trace", lambda: spec(np.diag([1.0, -1.0]), [1.0, 0.0]), ZeroTrace)),
    *read_by("test_zero_expectation_rejected",
             Rejection("zero-expectation",
                       lambda: spec(np.diag([1.0, -1.0, 1.0]), np.array([1.0, 1.0, 0.0]) / np.sqrt(2)),
                       ZeroExpectation)),
    # <v|A|v> = 1 = tr(A)/N
    *read_by("test_degenerate_denominator_rejected",
             Rejection("degenerate-denominator",
                       lambda: spec(np.diag([2.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)), DegenerateDenominator)),
    *(Rejection(f"spec-overflows-{name}", lambda a=a, v=v: spec(a, v), DomainError,
                test=f"test_overflowing_construction_rejected[{name}]")
      for name, (a, v) in OVERFLOWING_SPECS.items()),
    # a NaN v once passed the norm check
    *read_by("test_nan_reference_vector_rejected",
             Rejection("spec-nan-v", lambda: spec(np.eye(2), [np.nan, 0.0]), DimensionError)),
    Rejection("spec-v-norm-1.1", lambda: spec(DIAG21[0], [1.1, 0.0]), DimensionError),
    *read_by("test_v_length_mismatch",
             Rejection("spec-v-length", lambda: spec(DIAG21[0], [1.0, 0.0, 0.0]), DimensionError)),
    Rejection("choi-d0", lambda: ChoiMatrix(dim=0, matrix=np.zeros((0, 0))), DimensionError),
    # dual_map
    *read_by("test_apply_dual_choi_dimension_mismatch",
             Rejection("dual-choi-dimension-mismatch",
                       lambda: apply_dual_choi(build_fixed_point_choi(random_spec(rng_for(304), 2)), np.eye(3)),
                       DimensionError)),
    *read_by("test_overflowing_idempotence_residual_raises_domain_error",
             Rejection("idempotence-residual-overflows",
                       lambda: idempotence_residual(NEGATED_IDENTITY_Z, np.diag([1e308, 1.0])), DomainError,
                       "idempotence residual")),
    # three distinct eigenvalues with aligned v: unital but not completely positive
    *read_by("test_kraus_rejects_non_positive_spec",
             Rejection("kraus-non-positive-spec",
                       lambda: kraus_from_fixed_point(spec(np.diag([3.0, 2.0, 1.0]), [1, 0, 0])),
                       NegativeSqrtArgument)),
    *read_by("test_evolve_linear_validates_inputs",
             Rejection("evolve-rho-trace-2", lambda: evolve(rho=np.eye(2)), InvalidDensityMatrix),
             Rejection("evolve-descending-times", lambda: evolve(times=[1.0, 0.5]), DomainError),
             Rejection("evolve-negative-time", lambda: evolve(times=[-1.0, 0.5]), DomainError)),
    *(Rejection(f"{route.__name__}-times-{name}", lambda t=t, route=route: evolve(times=t, route=route), DomainError,
                test=f"test_evolve_rejects_non_finite_times[times{i}]")
      for i, (name, t) in enumerate(NON_FINITE_TIMES.items()) for route in (evolve_linear, evolve_linear_euler)),
    *(Rejection(f"{route.__name__}-times-empty", lambda route=route: evolve(times=[], route=route), DomainError,
                "is empty") for route in (evolve_linear, evolve_linear_euler)),
    *(Rejection(f"{route.__name__}-rho-dim-3", lambda route=route: evolve(rho=RHO_3, route=route), DimensionError,
                "rho shape", f"test_evolve_rejects_rho_of_wrong_dimension[{route.__name__}]")
      for route in (evolve_linear, evolve_linear_euler)),
    # evolve once printed the real part of a complex slope
    *(Rejection(f"{route.__name__}-non-hermitian-a0", lambda route=route: evolve(a0=np.diag([1.0, 1j]), route=route),
                HermiticityError) for route in (evolve_linear, evolve_linear_euler)),
    Rejection("evolve-rate-negative", lambda: evolve(rate=-1.0), DomainError, "rate"),
    Rejection("evolve-rate-zero", lambda: evolve(rate=0.0), DomainError, "rate"),
    *read_by("test_evolve_rejects_overflowing_trajectory",
             Rejection("evolve-overflows", overflowing_evolution, DomainError)),
    *read_by("test_kraus_set_validates_shapes",
             Rejection("kraus-op-shape", lambda: KrausSet.from_ops(2, [("B0", np.eye(3))]), DimensionError),
             Rejection("kraus-one-tag-two-ops", lambda: KrausSet(dim=2, stack=np.zeros((2, 2, 2)), tags=("B0",)),
                       DimensionError),
             Rejection("kraus-nan-op",
                       lambda: KrausSet.from_ops(2, [("B0", np.array([[np.nan, 0.0], [0.0, 1.0]]))]),
                       DimensionError)),
    Rejection("kraus-d0", lambda: KrausSet(dim=0, stack=np.zeros((0, 0, 0)), tags=()), DimensionError),
    # an empty set once applied as the zero map
    *read_by("test_kraus_set_needs_an_operator",
             Rejection("kraus-no-ops", lambda: KrausSet(dim=2, stack=np.zeros((0, 2, 2)), tags=()), DimensionError,
                       "at least one operator"),
             Rejection("kraus-no-pairs", lambda: KrausSet.from_ops(2, []), DimensionError, "at least one operator")),
    *(row for name, k in OVERFLOWING_KRAUS.items() for row in read_by(
        f"test_kraus_sums_reject_overflow[{name}-overflows]",
        Rejection(f"kraus-{name}-overflows-dual-action", lambda k=k: apply_dual_kraus(k, np.eye(2)), DomainError,
                  "dual action overflows"),
        Rejection(f"kraus-{name}-overflows-unitality", lambda k=k: unitality_residual(k), DomainError,
                  "unitality residual overflows"))),
    *read_by("test_apply_dual_kraus_rejects_nan_observable",
             Rejection("dual-kraus-nan-observable", lambda: apply_dual_kraus(
                 KrausSet.from_ops(2, [("B0", np.eye(2))]), np.array([[np.nan, 0.0], [0.0, 1.0]])), DimensionError,
                 "NaN")),
    # linalg
    *read_by("test_partial_trace_dimension_mismatch",
             Rejection("partial-trace-shape", lambda: partial_trace_second(np.eye(6), 2, 2), DimensionError)),
    *read_by("test_eig_rejects_non_hermitian",
             Rejection("eig-non-hermitian", lambda: eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])),
                       HermiticityError)),
    *read_by("test_as_matrix_rejects_nonfinite",
             Rejection("as-matrix-nan", lambda: as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]])), DimensionError)),
    # the residual 1 is far above HERM_TOL x max(1, ||M||_max) = 0.1
    Rejection("hermitian-large-entries-asymmetric",
              lambda: ensure_hermitian(np.array([[1e8, 1.0], [0.0, 1e8]])), HermiticityError),
    # a Cholesky verdict at tol = 0 would mean strict definiteness
    *(Rejection(f"is-psd-tol-{name}", lambda tol=tol: is_psd(np.diag([1.0, 0.0]), tol), DomainError, "tol")
      for name, tol in (("nan", math.nan), ("inf", math.inf), ("zero", 0.0), ("negative", -1e-9))),
    # metric
    *read_by("test_dilation_factor_domain",
             Rejection("dilation-r-zero", lambda: dilation_factor(0.0, 1.0), DomainError),
             Rejection("dilation-r-negative", lambda: dilation_factor(-1.0, 1.0), DomainError),
             Rejection("dilation-mass-zero", lambda: dilation_factor(2.0, 0.0), DomainError)),
    *read_by("test_dilation_factor_rejects_overflow",
             Rejection("dilation-mass-cubed-overflows", lambda: dilation_factor(1.0, 1e300), DomainError),
             Rejection("dilation-factor-overflows", lambda: dilation_factor(1e-300, 1e100), DomainError)),
    *read_by("test_truncation_cap",
             Rejection("params-d-above-cap", lambda: params(d=metric.MAX_TRUNCATION + 1), DimensionError),
             Rejection("synth-env-d-above-cap", lambda: synth_env(1.0, metric.MAX_TRUNCATION + 1), DimensionError)),
    *read_by("test_synth_env_negative_target",
             Rejection("synth-env-negative-target", lambda: synth_env(-0.5, 8), DomainError)),
    # nan < 0 is False, so NaN once reached math.ceil and raised ValueError
    *read_by("test_synth_env_rejects_nan_target",
             Rejection("synth-env-nan-target", lambda: synth_env(math.nan, 8), DomainError)),
    *read_by("test_metric_params_validation",
             Rejection("params-mass-zero", lambda: params(M=0.0), DomainError),
             Rejection("params-r0-zero", lambda: params(r0=0.0), DomainError),
             Rejection("params-d1", lambda: params(d=1), DimensionError),
             Rejection("params-grid-descending", lambda: params(grid=(2.0, 1.0)), DomainError),
             Rejection("params-grid-negative", lambda: params(grid=(-1.0, 1.0)), DomainError)),
    Rejection("params-grid-empty", lambda: params(grid=()), DomainError, "is empty"),
    *read_by("test_metric_params_rejects_nan_mass",
             Rejection("params-mass-nan", lambda: params(M=math.nan), DomainError)),
    # r0 = inf once gave an all-zero profile without complaint
    *read_by("test_metric_params_rejects_infinite_offset",
             Rejection("params-r0-inf", lambda: params(r0=math.inf), DomainError)),
    *read_by("test_metric_params_rejects_nan_grid",
             Rejection("params-grid-inner-nan", lambda: params(grid=(0.0, math.nan, 2.0)), DomainError),
             Rejection("params-grid-leading-nan", lambda: params(grid=(math.nan, 1.0)), DomainError)),
    # an infinite radius once gave the CSV row "inf,0,0,false"
    *(Rejection(f"params-grid-{name}", lambda grid=grid: params(grid=grid), DomainError,
                test=f"test_metric_params_rejects_non_finite_grid[{name}]")
      for name, grid in {"zero-inf": (0.0, math.inf), "inf": (math.inf,), "zero-nan": (0.0, math.nan)}.items()),
    # serialize
    *read_by("test_matrix_rejects_bad_payload",
             Rejection("matrix-entry-count", lambda: ser.matrix_from_json(
                 {"rows": 2, "cols": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]}), DimensionError)),
    *(Rejection(f"matrix-to-json-{name}", lambda m=m: ser.matrix_to_json(m), DimensionError,
                test=f"test_matrix_to_json_rejects_non_finite_or_non_matrix[{name}]")
      for name, m in {"inf": np.array([[1.0, np.inf]]), "nan": np.array([[np.nan]]), "vector": np.ones(3)}.items()),
    *(Rejection(f"matrix-non-numeric-{name}", lambda change=change: ser.matrix_from_json(
        {"rows": 1, "cols": 2, "re": [1.0, 1.0], "im": [0.0, 0.0], **change}), CpuMapError, repr(field),
        f"test_matrix_rejects_non_numeric_payload[payload{i}-{field}]")
      for i, (name, change, field) in enumerate((
          ("string-re", {"re": ["x", 1.0]}, "re"), ("null-im", {"im": [0.0, None]}, "im"),
          ("string-rows", {"rows": "x"}, "rows"), ("float-cols", {"cols": 2.5}, "cols"),
          ("ragged-re", {"re": [[1.0], [1.0, 2.0]]}, "re")))),
    *read_by("test_decoders_reject_malformed_fields",
             Rejection("vector-null-re", lambda: ser.vector_from_json({"re": [1.0, None], "im": [0.0, 0.0]}),
                       CpuMapError, "'re'"),
             Rejection("env-string-spectrum", lambda: ser.env_from_json(ENV_PAYLOAD), CpuMapError, "'spectrum'"),
             Rejection("env-null-d", lambda: ser.env_from_json(dict(ENV_PAYLOAD, d=None)), CpuMapError, "'d'"),
             Rejection("kraus-negative-dim", lambda: ser.kraus_from_json({"dim": -1, "ops": []}), CpuMapError,
                       "'dim'"),
             Rejection("matrix-list-root", lambda: ser.matrix_from_json([1.0, 2.0]), CpuMapError, "JSON object"),
             Rejection("kraus-ops-not-list", lambda: ser.kraus_from_json({"dim": 2, "ops": 5}), CpuMapError,
                       "'ops'"),
             Rejection("kraus-op-not-object", lambda: ser.kraus_from_json({"dim": 2, "ops": [5]}), CpuMapError,
                       "'matrix'")),
    *read_by("test_kraus_decoder_reports_first_bad_entry",
             Rejection("kraus-first-bad-entry", lambda: ser.kraus_from_json({"dim": 2, "ops": KRAUS_OPS}),
                       DimensionError, "'B0'"),
             Rejection("kraus-non-numeric-entry", lambda: ser.kraus_from_json({"dim": 2, "ops": KRAUS_OPS[1:]}),
                       CpuMapError, "'re'")),
    # the CLI grid parser
    *read_by("test_non_numeric_grid_is_validation_error",
             Rejection("grid-non-numeric", lambda: parse_grid("a:b:3"), DomainError),
             Rejection("grid-fractional-count", lambda: parse_grid("0:1:2.5"), DomainError)),
    *read_by("test_parse_grid_caps_count",
             Rejection("grid-count-above-cap", lambda: parse_grid(f"0:1:{MAX_GRID_POINTS + 1}"), DomainError),
             Rejection("grid-minus-inf", lambda: parse_grid("-inf:1:1"), DomainError)),
])


def assert_tagged_rejections(request):
    """Run the rows tagged with the running test: each raises exactly its class."""
    for row in tagged_rows(REJECTIONS, request):
        with pytest.raises(row.cls, match=row.match) as caught:
            row.call()
        assert type(caught.value) is row.cls, row.id


@pytest.mark.parametrize("case", cases(REJECTIONS, "test_rejection"))
def test_rejection(case, request):
    assert_tagged_rejections(request)

"""Deterministic self-test suite behind the ``cpumap selftest`` command.

Every check is seeded and runs its instances serially in a fixed order,
so two runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import math

import numpy as np

from .battery import (
    BatteryConfig,
    EnvState,
    aligned_env,
    env_kraus,
    phi,
    simulate_charging,
    swap_unitary,
)
from .choi import (
    BOUND_TOL,
    PSD_TOL,
    FixedPointSpec,
    _batches,
    _bound_minima,
    _choi_stack,
    _fixed_point_residuals,
    _spec_arrays,
    _unital_residuals,
    build_fixed_point_choi,
)
from .dual_map import (
    _kraus_sum,
    choi_from_kraus,
    evolve_linear,
    evolve_linear_euler,
    idempotence_residual,
    kraus_from_fixed_point,
    unitality_residual,
)
from .errors import DomainError
from .linalg import _psd_verdicts, max_abs, partial_trace_second
from .metric import MetricParams, build_profile, offset_factor
from .serialize import fmt

EQUIVALENCE_DIMS = (2, 3, 4, 8)
EQUIVALENCE_PER_DIM = 260
BATTERY_DIMS = (4, 8, 16)
BATTERY_PAIRS_PER_DIM = 34


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def _random_unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_density(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_spectrum(rng, d: int) -> np.ndarray:
    # ascending spectrum is the canonical labeling (any env is a column
    # permutation away); it makes sum_j sigma_j j the sharp phi bound
    sig = np.sort(rng.random(d) + 1e-3)
    sig = sig / sig.sum()
    return sig / sig.sum()  # second pass tightens the unit-sum residual


def _random_env(rng, d: int) -> EnvState:
    sig = _random_spectrum(rng, d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return EnvState(dim=d, spectrum=sig, basis=q)


def equivalence_spec(seed: int, n: int, idx: int) -> FixedPointSpec:
    """Seeded instance for the positivity-equivalence suite.

    Instance kinds cycle with the index: fully random pairs, v aligned
    with the top eigenvector, identity-plus-projector pencils (the exact
    positivity family), and near-aligned perturbations.  All kinds are
    drawn with well-separated denominators, inside the domain
    <v|A|v> >= tr(A)/N where the two-sided bound characterizes positivity.
    """
    rng = _rng(seed, n, idx)
    kind = idx % 4
    for _ in range(100):
        if kind == 2:
            alpha = float(rng.normal())
            beta = abs(float(rng.normal())) + 0.5
            v = _random_unit(rng, n)
            a = alpha * np.eye(n) + beta * np.outer(v, v.conj())
        else:
            a = _random_hermitian(rng, n)
            if kind == 0:
                v = _random_unit(rng, n)
            else:
                top = np.linalg.eigh(a)[1][:, -1]
                if kind == 1:
                    v = top
                else:
                    mix = top + 0.15 * _random_unit(rng, n)
                    v = mix / np.linalg.norm(mix)
        t = float(np.real(np.trace(a)))
        e = float(np.real(np.conj(v) @ a @ v))
        if abs(t) < 1e-3 or abs(e) < 1e-3 or abs(e - t / n) < 1e-3:
            continue
        return FixedPointSpec(a=a, v=v)
    raise RuntimeError(f"no valid instance for seed={seed} n={n} idx={idx}")


def check_equivalence(seed: int):
    agree, unital, fixed = [], [], []
    for n in EQUIVALENCE_DIMS:
        specs = [equivalence_spec(seed, n, idx) for idx in range(EQUIVALENCE_PER_DIM)]
        for batch in _batches(specs):
            a, v, e, t = _spec_arrays(batch)
            z = _choi_stack(a, v, e, t, batch[0].is_scalar)
            bounds_ok = np.all(_bound_minima(a, e, t) >= -BOUND_TOL, axis=1)
            agree.append(bounds_ok == _psd_verdicts(z, PSD_TOL))
            unital.append(_unital_residuals(z))
            fixed.append(_fixed_point_residuals(z, a))
    agree = np.concatenate(agree)
    bad = int(np.count_nonzero(~agree))
    max_unital = float(np.max(np.concatenate(unital)))
    max_fixed = float(np.max(np.concatenate(fixed)))
    lines = [
        _line(
            bad == 0,
            f"positivity-equivalence instances={agree.size} counterexamples={bad}",
        ),
        _line(
            max_unital < 1e-9 and max_fixed < 1e-9,
            f"construction-residuals unital={fmt(max_unital)} fixed-point={fmt(max_fixed)}",
        ),
    ]
    return lines


def check_idempotence(seed: int):
    worst = 0.0
    count = 0
    for n in EQUIVALENCE_DIMS:
        for idx in range(13):
            spec = equivalence_spec(seed, n, idx)
            z = build_fixed_point_choi(spec)
            rng = _rng(seed, 91, n, idx)
            for _ in range(4):
                worst = max(worst, idempotence_residual(z, _random_hermitian(rng, n)))
                count += 1
    return [_line(worst < 1e-9, f"idempotence observables={count} max={fmt(worst)}")]


def pencil_spec(seed: int, n: int, idx: int) -> FixedPointSpec:
    """Valid (completely positive) spec: A = alpha I + beta |v><v|."""
    rng = _rng(seed, 7, n, idx)
    for _ in range(100):
        v = _random_unit(rng, n)
        alpha = float(rng.normal())
        beta = abs(float(rng.normal())) + 0.5
        if idx % 3 == 2:
            beta = -beta  # v sits in the bottom eigenspace
        a = alpha * np.eye(n) + beta * np.outer(v, v.conj())
        t = float(np.real(np.trace(a)))
        e = alpha + beta
        if abs(t) < 1e-3 or abs(e) < 1e-3 or abs(e - t / n) < 1e-3:
            continue
        return FixedPointSpec(a=a, v=v)
    raise RuntimeError("no valid pencil instance")


def check_kraus_roundtrip(seed: int):
    worst_entry = 0.0
    worst_unital = 0.0
    count = 0
    for n in EQUIVALENCE_DIMS:
        specs = [pencil_spec(seed, n, idx) for idx in range(12)]
        specs.append(FixedPointSpec(a=np.eye(n, dtype=complex), v=_random_unit(_rng(seed, 8, n), n)))
        for spec in specs:
            z = build_fixed_point_choi(spec)
            k = kraus_from_fixed_point(spec)
            worst_entry = max(worst_entry, max_abs(choi_from_kraus(k).matrix - z.matrix))
            worst_unital = max(worst_unital, unitality_residual(k))
            count += 1
    ok = worst_entry < 1e-8 and worst_unital < 1e-9
    return [
        _line(
            ok,
            f"kraus-roundtrip specs={count} choi-residual={fmt(worst_entry)} "
            f"unitality={fmt(worst_unital)}",
        )
    ]


def swap_conjugate(u: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """U J U^dagger for the real swap unitary U, in real arithmetic.

    The real and imaginary parts of J are conjugated separately into one
    complex array; since U's entries are 0 and 1 this equals the complex
    product entry for entry.
    """
    out = np.empty(joint.shape, dtype=complex)
    out.real = u @ joint.real @ u.T
    out.imag = u @ joint.imag @ u.T
    return out


def check_battery_oracle(seed: int):
    worst = 0.0
    pairs = 0
    phi_ok = True
    for d in BATTERY_DIMS:
        u = swap_unitary(d)
        for idx in range(BATTERY_PAIRS_PER_DIM):
            rng = _rng(seed, 13, d, idx)
            env = _random_env(rng, d)
            rho = _random_density(rng, d)
            sigma = env.sigma_fock()
            oracle = partial_trace_second(swap_conjugate(u, np.kron(rho, sigma)), d, d)
            # the primal channel sum_k S_k^dagger rho S_k is the dual kernel on the S_k^dagger
            primal = _kraus_sum(env_kraus(env).stack.conj().transpose(0, 2, 1), rho)
            worst = max(worst, max_abs(primal - oracle), max_abs(primal - sigma))
            p = phi(env)
            phi_ok = phi_ok and (-1e-12 <= p <= env.phi_max() + 1e-12)
            pairs += 1
    return [
        _line(worst < 1e-9, f"battery-replacement pairs={pairs} max-residual={fmt(worst)}"),
        _line(phi_ok, f"phi-bounds pairs={pairs} all within [0, phi_max]"),
    ]


def check_charging_law(seed: int):
    d = 4
    spectrum = np.zeros(d)
    spectrum[2] = 1.0
    env = EnvState(dim=d, spectrum=spectrum, basis=np.eye(d, dtype=complex))
    times = np.array([0.0, 1.0, 2.0])
    expected = np.array([0.0, 2.0, 4.0])
    worst = 0.0
    for idx in range(10):
        rho0 = _random_density(_rng(seed, 17, idx), d)
        trace = simulate_charging(BatteryConfig(d=d, env=env, rho0=rho0), times)
        worst = max(worst, float(np.max(np.abs(trace.values - expected))))
    return [_line(worst <= 1e-12, f"charging-law states=10 max-deviation={fmt(worst)}")]


def check_alignment_monotone(seed: int):
    d = 8
    sig = _random_spectrum(_rng(seed, 19), d)
    values = [phi(aligned_env(d, sig, th)) for th in np.linspace(0.0, 1.0, 50)]
    ok = bool(np.all(np.diff(values) >= -1e-12))
    top = abs(values[-1] - float(np.dot(sig, np.arange(d)))) < 1e-12
    return [
        _line(
            ok and top,
            f"alignment-monotonicity grid=50 phi0={fmt(values[0])} phi1={fmt(values[-1])}",
        )
    ]


def check_metric_profile(seed: int):
    params = MetricParams(M=1.0, r0=0.1, d=16, r_grid=np.linspace(0.0, 10.0, 50))
    profile = build_profile(params)
    finite = all(
        math.isfinite(rec.target_factor) and math.isfinite(rec.phi_achieved)
        for rec in profile.records
    )
    horizon_r = min(profile.records, key=lambda rec: abs(rec.r - 2.0 * params.M)).r
    direct = 32.0 * params.M**3 * math.exp(-(horizon_r + params.r0) / (2 * params.M)) / (
        horizon_r + params.r0
    )
    horizon_ok = abs(offset_factor(horizon_r, params) - direct) <= 1e-12
    slope_worst = 0.0
    for idx, rec in enumerate(profile.records):
        if rec.clipped:
            continue
        rho0 = _random_density(_rng(seed, 23, idx), params.d)
        trace = simulate_charging(
            BatteryConfig(d=params.d, env=rec.env, rho0=rho0), np.array([0.0, 1.0])
        )
        slope_worst = max(slope_worst, abs(trace.phi_fit - rec.target_factor))
    clipped = sum(1 for rec in profile.records if rec.clipped)
    ok = finite and horizon_ok and slope_worst < 1e-9
    return [
        _line(
            ok,
            f"metric-profile points=50 clipped={clipped} "
            f"slope-residual={fmt(slope_worst)}",
        )
    ]


def check_evolution(seed: int):
    worst = 0.0
    for n in (2, 3, 4):
        spec = equivalence_spec(seed, n, 2)  # pencil kind
        z = build_fixed_point_choi(spec)
        rng = _rng(seed, 29, n)
        a0 = _random_hermitian(rng, n)
        rho = _random_density(rng, n)
        times = np.linspace(0.0, 5.0, 11)
        trace = evolve_linear(z, a0, rho, times)
        euler = evolve_linear_euler(z, a0, rho, times)
        worst = max(worst, float(np.max(np.abs(trace.values - euler))))
    return [_line(worst < 1e-9, f"euler-vs-closed-form max={fmt(worst)}")]


def _line(ok: bool, detail: str) -> str:
    return f"{'PASS' if ok else 'FAIL'} {detail}"


CHECKS = (
    check_equivalence,
    check_idempotence,
    check_kraus_roundtrip,
    check_battery_oracle,
    check_charging_law,
    check_alignment_monotone,
    check_metric_profile,
    check_evolution,
)


def run_selftest(seed: int = 42) -> tuple[str, bool]:
    """Run every check of ``CHECKS`` in order; returns (report text, all
    passed).  A negative seed, which the generators cannot take, raises
    DomainError before any check."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    lines: list[str] = [f"cpumap selftest seed={seed}"]
    for check in CHECKS:
        lines += check(seed)
    failed = sum(1 for ln in lines if ln.startswith("FAIL"))
    passed = sum(1 for ln in lines if ln.startswith("PASS"))
    lines.append(f"selftest: {passed} passed, {failed} failed")
    return "\n".join(lines) + "\n", failed == 0

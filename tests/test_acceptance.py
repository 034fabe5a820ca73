"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cpumap import (
    BatteryConfig,
    EnvState,
    MetricParams,
    aligned_env,
    apply_dual_choi,
    build_fixed_point_choi,
    build_profile,
    check_unital,
    choi_from_kraus,
    choi_is_psd,
    env_kraus,
    kraus_from_fixed_point,
    kron,
    partial_trace_second,
    phi,
    positivity_bounds,
    simulate_charging,
    swap_unitary,
    unitality_residual,
)
from cpumap.linalg import max_abs
from cpumap.selftest import equivalence_spec, pencil_spec, run_selftest

from conftest import random_density, random_env, random_hermitian, random_spectrum, rng_for

SEED = 42


def report(ok, label, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def suite_specs():
    """The seeded spec population shared by criteria 1-3."""
    return [
        (n, idx, equivalence_spec(SEED, n, idx))
        for n in (2, 3, 4, 8)
        for idx in range(260)
    ]


def test_criterion_1_positivity_equivalence():
    started = time.monotonic()
    counterexamples = 0
    total = 0
    for n, idx, spec in suite_specs():
        z = build_fixed_point_choi(spec)
        lower_ok, upper_ok = positivity_bounds(spec)
        if (lower_ok and upper_ok) != choi_is_psd(z):
            counterexamples += 1
        total += 1
    elapsed = time.monotonic() - started
    report(
        counterexamples == 0 and total >= 1000 and elapsed < 30.0,
        "criterion-1 positivity equivalence",
        f"{total} instances, {counterexamples} counterexamples, {elapsed:.1f}s",
    )


def test_criterion_2_construction_residuals():
    worst_unital = 0.0
    worst_fixed = 0.0
    for n, idx, spec in suite_specs():
        z = build_fixed_point_choi(spec)
        worst_unital = max(worst_unital, check_unital(z))
        worst_fixed = max(worst_fixed, max_abs(apply_dual_choi(z, spec.a) - spec.a))
    report(
        worst_unital < 1e-9 and worst_fixed < 1e-9,
        "criterion-2 unitality and fixed-point residuals",
        f"max unital {worst_unital:.2e}, max fixed-point {worst_fixed:.2e}",
    )


def test_criterion_3_idempotence():
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 8):
        for idx in range(13):
            spec = equivalence_spec(SEED, n, idx)
            z = build_fixed_point_choi(spec)
            rng = rng_for(SEED, 900, n, idx)
            for _ in range(4):
                b = random_hermitian(rng, n)
                once = apply_dual_choi(z, b)
                worst = max(worst, max_abs(apply_dual_choi(z, once) - once))
                count += 1
    report(
        count >= 200 and worst < 1e-9,
        "criterion-3 idempotence",
        f"{count} observables, max residual {worst:.2e}",
    )


def test_criterion_4_kraus_round_trip():
    worst_entry = 0.0
    worst_unital = 0.0
    count = 0
    for n in (2, 3, 4, 8):
        for idx in range(12):
            spec = pencil_spec(SEED, n, idx)
            z = build_fixed_point_choi(spec)
            k = kraus_from_fixed_point(spec)
            worst_entry = max(worst_entry, max_abs(choi_from_kraus(k).matrix - z.matrix))
            worst_unital = max(worst_unital, unitality_residual(k))
            count += 1
    report(
        worst_entry < 1e-8 and worst_unital < 1e-9,
        "criterion-4 Kraus round-trip",
        f"{count} specs, Choi residual {worst_entry:.2e}, unitality {worst_unital:.2e}",
    )


def test_criterion_5_battery_replacement_oracle():
    worst = 0.0
    pairs = 0
    for d in (4, 8, 16):
        u = swap_unitary(d)
        for idx in range(34):
            rng = rng_for(SEED, 910, d, idx)
            env = random_env(rng, d)
            rho = random_density(rng, d)
            oracle = partial_trace_second(
                u @ kron(rho, env.sigma_fock()) @ u.conj().T, d, d
            )
            primal = np.zeros((d, d), dtype=complex)
            for op in env_kraus(env).stack:
                primal += op.conj().T @ rho @ op
            worst = max(worst, max_abs(primal - oracle))
            pairs += 1
    report(
        pairs >= 100 and worst < 1e-9,
        "criterion-5 battery replacement oracle",
        f"{pairs} pairs, max residual {worst:.2e}",
    )


def test_criterion_6_charging_law():
    d = 4
    sig = np.zeros(d)
    sig[2] = 1.0
    env = EnvState(dim=d, spectrum=sig, basis=np.eye(d, dtype=complex))
    times = np.array([0.0, 1.0, 2.0])
    expected = np.array([0.0, 2.0, 4.0])
    worst = 0.0
    for idx in range(10):
        rho0 = random_density(rng_for(SEED, 920, idx), d)
        trace = simulate_charging(BatteryConfig(d=d, env=env, rho0=rho0), times)
        worst = max(worst, float(np.max(np.abs(trace.values - expected))))
    report(
        worst <= 1e-12,
        "criterion-6 charging law",
        f"10 initial states, max deviation {worst:.2e}",
    )


def test_criterion_7_phi_bounds_and_monotonicity():
    bounds_ok = True
    for d in (4, 8, 16):
        for idx in range(20):
            env = random_env(rng_for(SEED, 930, d, idx), d)
            p = phi(env)
            bounds_ok = bounds_ok and (-1e-12 <= p <= env.phi_max() + 1e-12)
    d = 8
    sig = random_spectrum(rng_for(SEED, 931), d)
    values = [phi(aligned_env(d, sig, float(th))) for th in np.linspace(0.0, 1.0, 50)]
    monotone = bool(np.all(np.diff(values) >= -1e-12))
    report(
        bounds_ok and monotone,
        "criterion-7 phi bounds and alignment monotonicity",
        f"bounds ok on 60 random envs, 50-point path monotone={monotone}",
    )


def test_criterion_8_metric_profile():
    params = MetricParams(M=1.0, r0=0.1, d=16, r_grid=np.linspace(0.0, 10.0, 50))
    profile = build_profile(params)
    finite = all(
        math.isfinite(rec.target_factor) and math.isfinite(rec.phi_achieved)
        for rec in profile.records
    )
    horizon = min(profile.records, key=lambda rec: abs(rec.r - 2.0))
    direct = 32.0 * math.exp(-(horizon.r + 0.1) / 2.0) / (horizon.r + 0.1)
    horizon_ok = abs(horizon.target_factor - direct) <= 1e-12
    slope_worst = 0.0
    unclipped = 0
    for idx, rec in enumerate(profile.records):
        if rec.clipped:
            continue
        rho0 = random_density(rng_for(SEED, 940, idx), params.d)
        trace = simulate_charging(
            BatteryConfig(d=params.d, env=rec.env, rho0=rho0), np.array([0.0, 1.0])
        )
        slope_worst = max(slope_worst, abs(trace.phi_fit - rec.target_factor))
        unclipped += 1
    report(
        finite and horizon_ok and slope_worst < 1e-9 and unclipped > 0,
        "criterion-8 metric profile",
        f"50 points finite, horizon residual {abs(horizon.target_factor - direct):.1e}, "
        f"{unclipped} unclipped slopes within {slope_worst:.2e}",
    )


def test_criterion_9_selftest_determinism():
    report_text, passed = run_selftest(42)
    in_process = report_text.encode()
    cmd = [sys.executable, "-m", "cpumap", "selftest", "--seed", "42"]
    run = subprocess.run(cmd, capture_output=True)
    identical = run.stdout == in_process
    committed = (Path(__file__).parent / "data" / "selftest_seed42.txt").read_bytes()
    unchanged = run.stdout == committed
    report(
        passed and run.returncode == 0 and identical and unchanged,
        "criterion-9 selftest determinism",
        f"in-process passed={passed}, exit code {run.returncode}, byte-identical={identical}, "
        f"matches tests/data/selftest_seed42.txt={unchanged}",
    )

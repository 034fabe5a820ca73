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
    _dual_action,
    _fixed_point_residuals,
    _unital_residuals,
    _validate_specs,
    build_fixed_point_choi,
)
from .dual_map import (
    _kraus_sum,
    choi_from_kraus,
    evolve_linear,
    evolve_linear_euler,
    kraus_from_fixed_point,
    unitality_residual,
)
from .errors import DimensionError, DomainError
from .linalg import _ensure_size, _psd_verdicts, max_abs, partial_trace_second
from .metric import MetricParams, build_profile, offset_factor
from .serialize import fmt

EQUIVALENCE_DIMS = (2, 3, 4, 8)
EQUIVALENCE_PER_DIM = 260
IDEMPOTENCE_PER_DIM = 13
IDEMPOTENCE_OBSERVABLES = 4
BATTERY_DIMS = (4, 8, 16)
BATTERY_PAIRS_PER_DIM = 34


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _random_hermitian(rng, n: int) -> np.ndarray:
    x = rng.normal(size=(2, n, n))
    g = x[0] + 1j * x[1]
    return (g + g.conj().T) / 2.0


def _random_unit(rng, n: int) -> np.ndarray:
    return _unit(rng.normal(size=2 * n))


def _unit(x: np.ndarray) -> np.ndarray:
    """The complex vector x[:n] + i x[n:] of a real 2n-vector, normalized."""
    n = len(x) // 2
    v = x[:n] + 1j * x[n:]
    return v / np.linalg.norm(v)


def _random_density(rng, n: int) -> np.ndarray:
    x = rng.normal(size=(2, n, n))
    g = x[0] + 1j * x[1]
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
    x = rng.normal(size=(2, d, d))
    q, _ = np.linalg.qr(x[0] + 1j * x[1])
    return EnvState(dim=d, spectrum=sig, basis=q)


def equivalence_spec(seed: int, n: int, idx: int) -> FixedPointSpec:
    """Seeded instance for the positivity-equivalence suite."""
    a, v = _equivalence_draw(seed, n, idx)
    return FixedPointSpec(a=a, v=v)


def _equivalence_draw(seed: int, n: int, idx: int) -> tuple[np.ndarray, np.ndarray]:
    """The (A, v) of :func:`equivalence_spec`, not yet validated.

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
            a, v = _pencil_draw(rng, n)
        else:
            a = _random_hermitian(rng, n)
            if kind == 0:
                v = _random_unit(rng, n)
            else:
                v = _near_top(rng, np.linalg.eigh(a)[1][:, -1], kind)
        if _well_separated(a, v, n):
            return a, v
    raise RuntimeError(f"no valid instance for seed={seed} n={n} idx={idx}")


def _pencil_draw(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One attempt of kind 2: alpha I + beta |v><v| with beta >= 0.5."""
    x = rng.normal(size=2 + 2 * n)
    alpha = float(x[0])
    beta = abs(float(x[1])) + 0.5
    v = _unit(x[2:])
    return alpha * np.eye(n) + beta * np.outer(v, v.conj()), v


def _near_top(rng, top: np.ndarray, kind: int) -> np.ndarray:
    """v of kinds 1 and 3 from A's top eigenvector: the vector itself, or
    the vector moved by 0.15 times a random unit and normalized."""
    if kind == 1:
        return top
    mix = top + 0.15 * _random_unit(rng, len(top))
    return mix / np.linalg.norm(mix)


def _well_separated(a: np.ndarray, v: np.ndarray, n: int) -> bool:
    """True iff tr(A), <v|A|v> and their difference from tr(A)/N all have
    magnitude at least 1e-3."""
    t = float(np.real(np.trace(a)))
    e = float(np.real(np.conj(v) @ a @ v))
    return not (abs(t) < 1e-3 or abs(e) < 1e-3 or abs(e - t / n) < 1e-3)


def _equivalence_fields(seed: int, n: int, count: int):
    """The draws of ``equivalence_spec(seed, n, idx)`` for idx < count,
    validated as one stack: ``_validate_specs``'s fields.

    Every draw's first attempt is made here, with one stacked ``eigh`` for
    the kinds 1 and 3; a draw whose first attempt is rejected is redone
    whole by :func:`_equivalence_draw`.
    """
    rngs = [_rng(seed, n, idx) for idx in range(count)]
    a = np.empty((count, n, n), dtype=complex)
    v = np.empty((count, n), dtype=complex)
    for idx, rng in enumerate(rngs):
        if idx % 4 == 2:
            a[idx], v[idx] = _pencil_draw(rng, n)
        else:
            a[idx] = _random_hermitian(rng, n)
            if idx % 4 == 0:
                v[idx] = _random_unit(rng, n)
    vecs = np.linalg.eigh(a[1::2])[1]  # the odd indices are the kinds 1 and 3
    for idx in range(1, count, 2):
        v[idx] = _near_top(rngs[idx], vecs[idx // 2][:, -1], idx % 4)
    for idx in range(count):
        if not _well_separated(a[idx], v[idx], n):
            a[idx], v[idx] = _equivalence_draw(seed, n, idx)
    return _validate_specs(a, v)


def _choi_batches(fields, n: int):
    """Build the Choi matrices of validated N-level spec fields batch by
    batch; yields each batch's indices and its A, e, t and Z stacks."""
    for idx in _batches(fields[4], n):
        a, v, t, e, scalar = (f[idx] for f in fields)
        e, t = e[:, None, None], t[:, None, None]
        yield idx, a, e, t, _choi_stack(a, v, e, t, scalar[0])


def check_equivalence(seed: int):
    agree, unital, fixed = [], [], []
    for n in EQUIVALENCE_DIMS:
        for _, a, e, t, z in _choi_batches(_equivalence_fields(seed, n, EQUIVALENCE_PER_DIM), n):
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


def _idempotence_residuals(seed: int, n: int) -> np.ndarray:
    """||Phi[Phi[B]] - Phi[B]||_max as an (IDEMPOTENCE_OBSERVABLES,
    IDEMPOTENCE_PER_DIM) array: [k, idx] for the k-th observable drawn for
    ``equivalence_spec(seed, n, idx)``.  Observable k of a batch of specs is
    applied as one stack."""
    obs = np.empty((IDEMPOTENCE_OBSERVABLES, IDEMPOTENCE_PER_DIM, n, n), dtype=complex)
    for idx in range(IDEMPOTENCE_PER_DIM):
        rng = _rng(seed, 91, n, idx)
        for k in range(IDEMPOTENCE_OBSERVABLES):
            obs[k, idx] = _random_hermitian(rng, n)
    residuals = np.empty(obs.shape[:2])
    for idx, _, _, _, z in _choi_batches(_equivalence_fields(seed, n, IDEMPOTENCE_PER_DIM), n):
        for k in range(IDEMPOTENCE_OBSERVABLES):
            once = _dual_action(z, obs[k, idx])
            residuals[k, idx] = np.max(np.abs(_dual_action(z, once) - once), axis=(1, 2))
    return residuals


def check_idempotence(seed: int):
    worst = max(float(np.max(_idempotence_residuals(seed, n))) for n in EQUIVALENCE_DIMS)
    count = len(EQUIVALENCE_DIMS) * IDEMPOTENCE_PER_DIM * IDEMPOTENCE_OBSERVABLES
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
        kraus = [kraus_from_fixed_point(spec) for spec in specs]
        fields = tuple(np.array([getattr(spec, name) for spec in specs])
                       for name in ("a", "v", "trace", "expectation", "is_scalar"))
        for idx, _, _, _, z in _choi_batches(fields, n):
            worst_entry = max(worst_entry, *(max_abs(choi_from_kraus(kraus[i]).matrix - zi) for i, zi in zip(idx, z)))
        worst_unital = max(worst_unital, *(unitality_residual(k) for k in kraus))
        count += len(specs)
    ok = worst_entry < 1e-8 and worst_unital < 1e-9
    return [
        _line(
            ok,
            f"kraus-roundtrip specs={count} choi-residual={fmt(worst_entry)} "
            f"unitality={fmt(worst_unital)}",
        )
    ]


def _swap_oracle_arrays(d: int):
    """The joint array :func:`_swap_traced` reuses at dimension d, and the
    column and value of the one nonzero in row (i, r) of ``swap_unitary(d)``
    as (d, d) arrays indexed [r, i]; None if some row has not exactly one."""
    u = swap_unitary(d)
    rows, cols = np.nonzero(u)
    if not np.array_equal(rows, np.arange(d * d)):
        return None
    # zeros: the entries the partial trace does not read are never written, but it checks them
    # all; J is never written whole, so this check's faults no longer follow where this array
    # sits in the heap (about 500 a run with it allocated before U, while U is held or after)
    joint = np.zeros((d * d, d * d), dtype=complex)
    return joint, cols.reshape(d, d).T, u[rows, cols].reshape(d, d).T


def _swap_traced(joint, cols, vals, left, right):
    """tr_2[U J U^dagger] for J = left (x) right and a real U with one
    nonzero per row, forming only the d^3 entries the partial trace reads.

    Entry (U J U^T)[(i, r), (j, r)] is the one term vals[(i, r)] *
    J[cols[(i, r)], cols[(j, r)]] * vals[(j, r)], the full product's entry
    bit for bit, and each entry of J is gathered as the one product of an
    entry of ``left`` and one of ``right`` that np.kron forms; J itself is
    never formed, and a 1 x 1 ``right`` = [[1]] takes any J as ``left``.
    The entries overwrite ``joint`` at (i r, j r), the only ones
    :func:`partial_trace_second` reads, so it sums in its own order.
    """
    d = cols.shape[0]
    outer, inner = np.divmod(cols, len(right))  # J's index c is (outer, inner) of left (x) right
    entries = left[outer[:, :, None], outer[:, None, :]] * right[inner[:, :, None], inner[:, None, :]]
    blocks = vals[:, :, None] * entries * vals[:, None, :]  # [r, i, j]
    np.einsum("irjr->rij", joint.reshape(d, d, d, d))[...] = blocks
    return partial_trace_second(joint, d, d)


def check_battery_oracle(seed: int):
    worst, pairs, phi_ok = 0.0, 0, True
    for d in BATTERY_DIMS:
        arrays = _swap_oracle_arrays(d)
        if arrays is None:  # no oracle at this d: its pairs are missing, so the line fails
            continue
        for idx in range(BATTERY_PAIRS_PER_DIM):
            rng = _rng(seed, 13, d, idx)
            env = _random_env(rng, d)
            rho = _random_density(rng, d)
            sigma = env.sigma_fock()
            oracle = _swap_traced(*arrays, rho, sigma)
            # the primal channel sum_k S_k^dagger rho S_k is the conjugate of the
            # dual kernel on the S_k^T at conj(rho), with no conjugated copy of the stack
            primal = _kraus_sum(env_kraus(env).stack.transpose(0, 2, 1), rho.conj()).conj()
            worst = max(worst, max_abs(primal - oracle), max_abs(primal - sigma))
            phi_ok = phi_ok and (-1e-12 <= phi(env) <= env.phi_max() + 1e-12)
            pairs += 1
    return [
        _line(pairs == len(BATTERY_DIMS) * BATTERY_PAIRS_PER_DIM and worst < 1e-9,
              f"battery-replacement pairs={pairs} max-residual={fmt(worst)}"),
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
    finite = bool(np.all(np.isfinite(profile.target)) and np.all(np.isfinite(profile.phi)))
    horizon_r = float(profile.r[np.argmin(np.abs(profile.r - 2.0 * params.M))])
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
    clipped = int(np.count_nonzero(profile.clipped))
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
    passed).  A seed the generators cannot take, negative or not an integer
    (a bool included), raises DomainError before any check."""
    try:
        seed = _ensure_size(seed, "seed", 0)
    except DimensionError as err:  # a seed is no dimension, so its error is DomainError
        raise DomainError(str(err)) from None
    lines: list[str] = [f"cpumap selftest seed={seed}"]
    for check in CHECKS:
        lines += check(seed)
    failed = sum(1 for ln in lines if ln.startswith("FAIL"))
    passed = sum(1 for ln in lines if ln.startswith("PASS"))
    lines.append(f"selftest: {passed} passed, {failed} failed")
    return "\n".join(lines) + "\n", failed == 0

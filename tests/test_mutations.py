"""Each cross-check of the selftest can fail: one row per small, plausible
fault in one side of one check.  A row replaces ``target`` with the faulty
version while its check runs, and the check must return its ``line`` as a
FAIL line instead of raising.  A new mutation is one more row here."""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from cpumap import (
    apply_dual_kraus, env_kraus, evolve_linear_euler, metric, number_operator, phi, selftest, swap_unitary,
)
from cpumap.battery import _env_split
from cpumap.dual_map import _kraus_sum, _row_sum, _single_rows, _stack_from_rows
from cpumap.linalg import _prevalidated, _psd_verdicts

from conftest import random_env, rng_for

SPECTRA = metric._spectra
RECORDS = metric.MetricProfile.records


class Mutation(NamedTuple):
    id: str
    target: str
    fault: Callable
    check: Callable[[int], list]
    line: str


def swapped_rows(d):
    u = swap_unitary(d)
    u[[1, d]] = u[[d, 1]]  # the rows of (0, 1) and (1, 0): still a permutation
    return u


def extra_nonzero(d):
    u = swap_unitary(d)
    u[0, 1] = 1.0
    return u


def leaky_spectra(targets, d):
    """Move 1e-6 of weight from each unclipped row's upper level to level 0:
    the spectra stay valid, but their phi falls below the target."""
    spectra, clipped = SPECTRA(targets, d)
    rows = np.flatnonzero(~clipped)
    upper = d - 1 - np.argmax(spectra[rows, ::-1] > 0, axis=1)
    spectra[rows, upper] -= 1e-6
    spectra[rows, 0] += 1e-6
    return spectra, clipped


def first_factor_traced(m, d1, d2):
    """The partial trace over the wrong factor: sum_k <k,i|M|k,j>."""
    return np.einsum("kikj->ij", np.asarray(m).reshape(d1, d2, d1, d2))


def env_ops_wrong_row(d):
    """Give E_{i,j} the row of index i instead of j."""
    index, _, tags = _env_split(d)
    return index, index, tags


def env_rows_unrooted(env):
    """Weigh row j by sigma_j instead of sqrt(sigma_j)."""
    return env.spectrum[:, None] * env.basis.conj().T


def rows_found_at_zero(stack):
    """Report row 0 as the nonzero row of every operator that has one."""
    index = _single_rows(stack)
    return None if index is None else np.zeros_like(index)


def stack_last_row_zero(dim, index, which, rows):
    """Leave the last operator's row zero in the stack written from the rows."""
    stack = _stack_from_rows(dim, index, which, rows)
    stack[-1] = 0.0
    return stack


def row_sum_drops_row(position):
    """A row kernel that leaves out distinct row ``position`` (0 or -1) and
    every operator that holds it."""
    def kernel(index, which, rows, b):
        dropped = np.arange(len(rows))[position]
        keep = which != dropped
        return _row_sum(index[keep], which[keep] - (which[keep] > dropped), np.delete(rows, dropped, axis=0), b)
    return kernel


def verdicts_from_first_slot(stack, tol):
    """A stacked verdict kernel that reads instance 0's factor for every instance."""
    return np.repeat(_psd_verdicts(stack[:1], tol), len(stack))


def records_off_by_one(profile):
    """Each record's environment takes the next point's spectrum row (past
    the constructor, which refuses spectra whose phi is not the phi column)."""
    rolled = _prevalidated(metric.MetricProfile, **{**vars(profile), "spectra": np.roll(profile.spectra, -1, axis=0)})
    return RECORDS.fget(rolled)


MUTATIONS = [
    Mutation("swap-unitary-rows-exchanged", "cpumap.selftest.swap_unitary", swapped_rows,
             selftest.check_battery_oracle, "battery-replacement"),
    Mutation("swap-unitary-extra-nonzero", "cpumap.selftest.swap_unitary", extra_nonzero,
             selftest.check_battery_oracle, "battery-replacement"),
    Mutation("swap-unitary-identity", "cpumap.selftest.swap_unitary", lambda d: np.eye(d * d),
             selftest.check_battery_oracle, "battery-replacement"),
    # the other side of the oracle: the primal Kraus sum it is compared with
    Mutation("primal-sum-drops-last-operator", "cpumap.selftest._kraus_sum",
             lambda stack, b: _kraus_sum(stack[:-1], b), selftest.check_battery_oracle, "battery-replacement"),
    Mutation("partial-trace-first-factor", "cpumap.selftest.partial_trace_second", first_factor_traced,
             selftest.check_battery_oracle, "battery-replacement"),
    # env_kraus, and dual_apply_number through it, takes its rows from _env_rows
    # through the split k = i*d + j of _env_split, so only the oracle sees a fault in either
    Mutation("env-ops-wrong-row", "cpumap.battery._env_split", env_ops_wrong_row,
             selftest.check_battery_oracle, "battery-replacement"),
    Mutation("env-rows-unrooted", "cpumap.battery._env_rows", env_rows_unrooted,
             selftest.check_battery_oracle, "battery-replacement"),
    # the oracle reads the stack that the row-form set of env_kraus writes on first read
    Mutation("row-form-stack-last-row-zero", "cpumap.dual_map._stack_from_rows", stack_last_row_zero,
             selftest.check_battery_oracle, "battery-replacement"),
    # a set's row form is decided when it is built; the identity-A families of
    # the round trip have one nonzero row per operator, so their sums take it
    Mutation("single-rows-at-row-zero", "cpumap.dual_map._single_rows", rows_found_at_zero,
             selftest.check_kraus_roundtrip, "kraus-roundtrip"),
    Mutation("row-sum-drops-first-row", "cpumap.dual_map._row_sum", row_sum_drops_row(0),
             selftest.check_kraus_roundtrip, "kraus-roundtrip"),
    # the slopes are compared with the target column, not with the phi column
    # computed from the same spectra
    Mutation("profile-spectra-leak", "cpumap.metric._spectra", leaky_spectra,
             selftest.check_metric_profile, "metric-profile"),
    Mutation("profile-records-off-by-one", "cpumap.metric.MetricProfile.records", property(records_off_by_one),
             selftest.check_metric_profile, "metric-profile"),
    Mutation("euler-scaled", "cpumap.selftest.evolve_linear_euler",
             lambda *args, **kwargs: evolve_linear_euler(*args, **kwargs) * (1 + 1e-6),
             selftest.check_evolution, "euler-vs-closed-form"),
    Mutation("psd-tol-negated", "cpumap.selftest._psd_verdicts", lambda stack, tol: _psd_verdicts(stack, -tol),
             selftest.check_equivalence, "positivity-equivalence"),
    Mutation("psd-verdicts-from-first-slot", "cpumap.selftest._psd_verdicts", verdicts_from_first_slot,
             selftest.check_equivalence, "positivity-equivalence"),
]


@pytest.mark.parametrize("row", MUTATIONS, ids=lambda row: row.id)
def test_mutation_fails_its_check(row, monkeypatch):
    monkeypatch.setattr(row.target, row.fault)
    assert any(ln.startswith(f"FAIL {row.line} ") for ln in row.check(42))


# The round trip's identity-A families end in zero operators, so a row kernel
# that drops its last distinct row changes no selftest line: no check sums the
# swap channel through it.  Every row of the swap channel enters Phi[N] = phi I.
@pytest.mark.parametrize("d", [4, 8, 16])
def test_row_sum_dropping_its_last_row_breaks_the_swap_identity(d, monkeypatch):
    env = random_env(rng_for(430, d), d)
    want = phi(env) * np.eye(d)
    assert np.max(np.abs(apply_dual_kraus(env_kraus(env), number_operator(d)) - want)) < 1e-12
    monkeypatch.setattr("cpumap.dual_map._row_sum", row_sum_drops_row(-1))
    assert np.max(np.abs(apply_dual_kraus(env_kraus(env), number_operator(d)) - want)) > 1e-3

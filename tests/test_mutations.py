"""Each cross-check of the selftest can fail: one row per small, plausible
fault in one side of one check.  A row replaces ``target`` with the faulty
version while its check runs, and the check must return its ``line`` as a
FAIL line instead of raising.  A new mutation is one more row here."""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from cpumap import selftest, swap_unitary


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


MUTATIONS = [
    Mutation("swap-unitary-rows-exchanged", "cpumap.selftest.swap_unitary", swapped_rows,
             selftest.check_battery_oracle, "battery-replacement"),
    Mutation("swap-unitary-extra-nonzero", "cpumap.selftest.swap_unitary", extra_nonzero,
             selftest.check_battery_oracle, "battery-replacement"),
    Mutation("swap-unitary-identity", "cpumap.selftest.swap_unitary", lambda d: np.eye(d * d),
             selftest.check_battery_oracle, "battery-replacement"),
]


@pytest.mark.parametrize("row", MUTATIONS, ids=lambda row: row.id)
def test_mutation_fails_its_check(row, monkeypatch):
    monkeypatch.setattr(row.target, row.fault)
    assert any(ln.startswith(f"FAIL {row.line} ") for ln in row.check(42))

"""Shared seeded generators for the test suite."""

import numpy as np
import pytest

from cpumap import FixedPointSpec
from cpumap.selftest import (
    _random_density as random_density,
    _random_env as random_env,
    _random_hermitian as random_hermitian,
    _random_spectrum as random_spectrum,
    _random_unit as random_unit,
    _rng as rng_for,
)

# specs with finite entries, trace and expectation whose construction
# overflows: A - (t/N) I and the eigenvalue gaps in the first, A/e in the second
OVERFLOWING_SPECS = [
    pytest.param(np.diag([1.7e308, -1.7e308, -1.7e308]), np.eye(3)[0], id="huge-diagonal"),
    pytest.param(np.array([[1e-11, 1e300], [1e300, 1.0]]), np.eye(2)[0], id="tiny-expectation"),
]


def random_spec(rng, n):
    """Generic spec with well-separated denominators (not necessarily CP)."""
    while True:
        a = random_hermitian(rng, n)
        v = random_unit(rng, n)
        t = float(np.real(np.trace(a)))
        e = float(np.real(np.conj(v) @ a @ v))
        if abs(t) > 1e-2 and abs(e) > 1e-2 and abs(e - t / n) > 1e-2:
            return FixedPointSpec(a=a, v=v)


def pencil_spec(rng, n, bottom=False):
    """Completely positive spec: A = alpha I + beta |v><v|."""
    while True:
        v = random_unit(rng, n)
        alpha = float(rng.normal())
        beta = abs(float(rng.normal())) + 0.5
        if bottom:
            beta = -beta
        a = alpha * np.eye(n) + beta * np.outer(v, v.conj())
        t = float(np.real(np.trace(a)))
        e = alpha + beta
        if abs(t) > 1e-2 and abs(e) > 1e-2 and abs(e - t / n) > 1e-2:
            return FixedPointSpec(a=a, v=v)


def hermitian_basis(n):
    """Complete operator basis of n^2 Hermitian matrices."""
    basis = []
    for j in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1.0
        basis.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2)
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            basis.append(m)
    return basis

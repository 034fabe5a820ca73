"""Shared seeded generators, reference oracles and the CLI harness for the
test suite."""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest

from cpumap import FixedPointSpec, kron, partial_trace_second, serialize as ser, swap_unitary
from cpumap.cli import main
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


# regression matrix for A = diag(2,1), v = e1, pinned from direct term-by-term
# substitution: A (x) P/2 = diag(1, 0, 1/2, 0) and the complement term
# diag(0,3) (x) diag(-1/6, 1/3) = diag(0, 0, -1/2, 1)
PINNED_Z_DIAG21 = np.diag([1.0, 0.0, 0.0, 1.0])


def kron_reference_choi(spec):
    """The Choi matrix as two np.kron terms, the form the broadcast replaces."""
    n, e, t = spec.dim, spec.expectation, spec.trace
    proj_t = np.outer(spec.v, spec.v.conj()).T
    first = np.kron(spec.a / e, proj_t)
    if spec.is_scalar:
        return first
    denom = n / t - 1.0 / e
    return first + np.kron((np.eye(n) - spec.a / e) / denom, np.eye(n) / t - proj_t / e)


def swap_oracle(rho, sigma_fock, d):
    """Independent route: conjugate by the swap and trace out the environment."""
    u = swap_unitary(d)
    return partial_trace_second(u @ kron(rho, sigma_fock) @ u.conj().T, d, d)


def primal_loop(kset, rho):
    """The primal channel sum_k S_k^dagger rho S_k, one operator at a time."""
    out = np.zeros(rho.shape, dtype=complex)
    for op in kset.stack:
        out += op.conj().T @ rho @ op
    return out


# --- the command line --------------------------------------------------------

NON_FINITE_TOKEN = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)
ZERO_MATRIX = {"rows": 0, "cols": 0, "re": [], "im": []}
# a self-consistent zero-size payload for each CLI input slot
ZERO_SIZE = {
    "A": ZERO_MATRIX,
    "v": {"re": [], "im": []},
    "rho": ZERO_MATRIX,
    "Z": dict(dim=0, **ZERO_MATRIX),
    "kraus": {"dim": 0, "ops": []},
    "env": {"d": 0, "spectrum": [], "V": ZERO_MATRIX},
}


def write_json(path, obj):
    path.write_text(ser.dumps(obj))


def run_cli(argv):
    """Run ``cpumap.cli.main(argv)`` in process and check the CLI contract.

    The exit code is 0, 1 or 2; standard error is empty on exit 0 and
    exactly one ``{"error", "detail"}`` JSON line otherwise; no warning is
    raised (the command line would print it to standard error); standard
    output holds no inf/nan token.  Returns ``(code, stdout, error)``, with
    ``error`` the decoded error line, or None on exit 0.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert not NON_FINITE_TOKEN.search(stdout), argv
    if code == 0:
        assert stderr == "", (argv, stderr)
        return code, stdout, None
    assert stderr.endswith("\n") and stderr.count("\n") == 1, (argv, stderr)
    error = json.loads(stderr)
    assert list(error) == ["error", "detail"], (argv, error)
    return code, stdout, error


@pytest.fixture
def cli_files(tmp_path):
    """Paths of valid CLI inputs on a 2-level system: A = diag(2, 1), v = e1,
    the Choi matrix Z and Kraus set the CLI builds from them, an environment
    and a state rho."""
    payloads = {
        "A": ser.matrix_to_json(np.diag([2.0, 1.0])),
        "v": ser.vector_to_json(np.eye(2)[0]),
        "env": {"d": 2, "spectrum": [0.0, 1.0], "V": ser.matrix_to_json(np.eye(2))},
        "rho": ser.matrix_to_json(random_density(rng_for(703), 2)),
    }
    paths = {name: tmp_path / f"{name}.json" for name in ("A", "v", "Z", "kraus", "env", "rho")}
    for name, obj in payloads.items():
        write_json(paths[name], obj)
    paths = {name: str(path) for name, path in paths.items()}
    for command, name in (("choi-build", "Z"), ("kraus-extract", "kraus")):
        assert run_cli([command, "--A", paths["A"], "--v", paths["v"], "--out", paths[name]])[0] == 0
    return paths

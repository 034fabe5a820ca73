"""Shared seeded generators, reference oracles and the CLI harness for the
test suite."""

import contextlib
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cpumap import (
    ChoiMatrix,
    FixedPointSpec,
    MetricParams,
    build_fixed_point_choi,
    kraus_from_fixed_point,
    kron,
    partial_trace_second,
    serialize as ser,
    swap_unitary,
)
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
OVERFLOWING_SPECS = {
    "huge-diagonal": (np.diag([1.7e308, -1.7e308, -1.7e308]), np.eye(3)[0]),
    "tiny-expectation": (np.array([[1e-11, 1e300], [1e300, 1.0]]), np.eye(2)[0]),
}

# dim-2 Choi matrices whose residuals overflow: the partial trace of the first
# adds two 1.7e308 entries; the second is minus the identity map's, so
# Phi[B] - B = -2B and Phi[Phi[B]] - Phi[B] = 2B
OVERFLOWING_TRACE_Z = ChoiMatrix(dim=2, matrix=np.diag([1.7e308, 1.7e308, 1.0, 1.0]))
NEGATED_IDENTITY_Z = ChoiMatrix(dim=2, matrix=-np.outer(np.eye(2).ravel(), np.eye(2).ravel()))


def random_spec(rng, n):
    """Generic spec with well-separated denominators (not necessarily CP)."""
    while True:
        a = random_hermitian(rng, n)
        v = random_unit(rng, n)
        t = float(np.real(np.trace(a)))
        e = float(np.real(np.conj(v) @ a @ v))
        if abs(t) > 1e-2 and abs(e) > 1e-2 and abs(e - t / n) > 1e-2:
            return FixedPointSpec(a=a, v=v)


def zero_weight_spectrum(rng, d, level):
    """random_spectrum on d levels with no weight at ``level``."""
    sigma = random_spectrum(rng, d)
    sigma[level] = 0.0
    sigma /= sigma.sum()
    return sigma / sigma.sum()


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


def make_params(M=1.0, r0=0.1, d=16, grid=(0.5, 2.0, 10.0)):
    return MetricParams(M=M, r0=r0, d=d, r_grid=np.asarray(grid, dtype=float))


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


def psd_reference(h, tol):
    """The slow side of every PSD verdict: lambda_min(h) >= -tol from the full spectrum."""
    return bool(np.linalg.eigvalsh(h).min() >= -tol)


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


def traced_peak_bytes(fn, *args):
    """Peak bytes allocated above the starting level while ``fn(*args)`` runs,
    as tracemalloc counts them; numpy reports its data buffers to it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


# --- the rejection tables -----------------------------------------------------
# Every row of the library table (test_rejections.REJECTIONS) and of the CLI
# table (test_cli.CLI_ERRORS) runs once, as ``test_rejection[id]`` or
# ``test_error_exit[id]``.


def forbidden(*args, **kwargs):
    """A stand-in for a call that a rejected input must never reach, such as
    an allocation the size budget refuses."""
    raise AssertionError("the command made a call it must not make")


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


# the JSON objects of the file formats, built here from the arrays: inputs of
# the command line, and references for the package's text writers

def matrix_payload(m):
    a = np.asarray(m, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1], "re": a.real.reshape(-1).tolist(),
            "im": a.imag.reshape(-1).tolist()}


def vector_payload(v):
    a = np.asarray(v, dtype=complex).reshape(-1)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def choi_payload(z):
    return {"dim": z.dim, **matrix_payload(z.matrix)}


def kraus_payload(k):
    return {"dim": k.dim, "ops": [{"tag": tag, "matrix": matrix_payload(op)} for tag, op in k.ops]}


CLI_SPEC = FixedPointSpec(a=np.diag([2.0, 1.0]), v=np.eye(2)[0])
# valid CLI inputs, one per argv slot, on a 2-level system: A = diag(2, 1),
# v = e1, the Choi matrix Z and Kraus set built from them, an environment, a
# state rho and the identity observable I
PAYLOADS = {
    "A": matrix_payload(CLI_SPEC.a),
    "v": vector_payload(CLI_SPEC.v),
    "Z": choi_payload(build_fixed_point_choi(CLI_SPEC)),
    "kraus": kraus_payload(kraus_from_fixed_point(CLI_SPEC)),
    "env": {"d": 2, "spectrum": [0.0, 1.0], "V": matrix_payload(np.eye(2))},
    "rho": matrix_payload(random_density(rng_for(703), 2)),
    "I": matrix_payload(np.eye(2)),
}


def write_json(path, obj):
    path.write_text(ser.dumps(obj))


def write_payloads(directory, payloads):
    """Write each payload (a JSON object, or raw bytes) to ``<slot>.json`` in
    ``directory``; returns slot -> path."""
    paths = {}
    for slot, obj in payloads.items():
        path = directory / f"{slot}.json"
        if isinstance(obj, bytes):
            path.write_bytes(obj)
        else:
            write_json(path, obj)
        paths[slot] = str(path)
    return paths


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
    """Paths of the ``PAYLOADS`` files."""
    return write_payloads(tmp_path, PAYLOADS)

"""Seeded workloads and their correctness gates.

Each ``make_*`` function draws a workload's inputs from the seed with its
own generators (it never imports cpumap's) and returns the batch: a list
of items.  An item is a callable ``item(api, counts)`` that makes its calls
through the :class:`tracing.Api`, adds input-size counters to ``counts``
and raises :class:`CheckFailed` when an output is wrong.

Tolerances are the package's own: 1e-9 for residuals, 1e-8 for Choi round
trips, and exact agreement between the spectral bounds and the direct
PSD check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from cpumap import NegativeSqrtArgument

RESIDUAL_TOL = 1e-9
CHOI_TOL = 1e-8
PSD_TOL = 1e-8
PHI_SLACK = 1e-12
CHARGE_TIMES = np.linspace(0.0, 5.0, 11)


class CheckFailed(Exception):
    """An output of the program failed its correctness gate."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def max_abs(m) -> float:
    return float(np.max(np.abs(m)))


# --- generators --------------------------------------------------------------

def _hermitian(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _density(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unitary(rng, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def _spectrum(rng, d: int) -> np.ndarray:
    sig = np.sort(rng.random(d) + 1e-3)
    sig = sig / sig.sum()
    return sig / sig.sum()  # second pass brings the sum within 1e-12 of 1


FIXED_POINT_KINDS = ("pencil", "scalar", "hermitian", "hermitian-top")


def _fixed_point_input(rng, kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, v) of one kind, with tr A, <v|A|v> and <v|A|v> - trA/N kept
    away from zero, as the package's own positivity sweep draws them.

    Pencils aI + b|v><v| with b > 0 and scalar A are completely positive;
    random Hermitian A, with v random or near the top eigenvector, is not.
    """
    for _ in range(100):
        v = _unit(rng, n)
        if kind == "pencil":
            alpha = float(rng.normal())
            beta = abs(float(rng.normal())) + 0.5
            a = alpha * np.eye(n) + beta * np.outer(v, v.conj())
        elif kind == "scalar":
            c = math.copysign(abs(float(rng.normal())) + 0.5, float(rng.normal()))
            a = c * np.eye(n, dtype=complex)
        else:
            a = _hermitian(rng, n)
            if kind == "hermitian-top":
                mix = np.linalg.eigh(a)[1][:, -1] + 0.15 * v
                v = mix / np.linalg.norm(mix)
        t = float(np.trace(a).real)
        e = float((v.conj() @ a @ v).real)
        if kind == "scalar" or min(abs(t), abs(e), abs(e - t / n)) >= 1e-3:
            return a, v
    raise RuntimeError(f"no {kind} input drawn for N={n}")


# --- fixed-point ---------------------------------------------------------------

def make_fixed_point(seed: int, small: bool, workdir: Path) -> list:
    """Every kind at every N, plus two more CP N=16 and non-CP N=12 specs.

    The extra specs put the 90th-percentile item well inside the CP N=16
    specs and the median inside the non-CP N=12 ones, away from the edge
    between two classes of items where a percentile jumps.
    """
    rng = np.random.default_rng([seed, 1])
    if small:
        batch = [(kind, 4) for kind in FIXED_POINT_KINDS]
    else:
        batch = [(kind, n) for kind in FIXED_POINT_KINDS for n in (4, 8, 12, 16)]
        batch += [("pencil", 16), ("scalar", 16), ("hermitian", 12), ("hermitian-top", 12)]
    items = []
    for kind, n in batch:
        a, v = _fixed_point_input(rng, kind, n)
        items.append(FixedPointItem(a, v, _hermitian(rng, n)))
    return items


class FixedPointItem:
    """Build, certify and round-trip one fixed-point spec."""

    def __init__(self, a, v, b):
        self.a, self.v, self.b = a, v, b

    def __call__(self, api, counts) -> None:
        n = self.a.shape[0]
        spec = api.FixedPointSpec(a=self.a, v=self.v)
        z = api.build_fixed_point_choi(spec)
        counts["choi.choi_bytes"] += 16 * n**4
        lower_ok, upper_ok = api.positivity_bounds(spec)
        psd = api.is_psd(z.matrix, PSD_TOL)
        counts["choi.bounds_checks"] += 1
        counts["choi.bounds_agree"] += (lower_ok and upper_ok) == psd
        check((lower_ok and upper_ok) == psd, "spectral bounds disagree with is_psd")
        check(api.check_unital(z) < RESIDUAL_TOL, "unitality residual")
        check(api.check_fixed_point(z, self.a) < RESIDUAL_TOL, "fixed-point residual")
        check(api.idempotence_residual(z, self.b) < RESIDUAL_TOL, "idempotence residual")
        if not psd:
            try:
                api.kraus_from_fixed_point(spec)
            except NegativeSqrtArgument:
                return
            raise CheckFailed("non-CP spec yielded a Kraus family")
        k = api.kraus_from_fixed_point(spec)
        counts["dual_map.kraus_ops"] += n * n
        check(api.unitality_residual(k) < RESIDUAL_TOL, "Kraus unitality residual")
        zk = api.choi_from_kraus(k)
        counts["choi.choi_bytes"] += 16 * n**4
        check(max_abs(zk.matrix - z.matrix) < CHOI_TOL, "Choi round trip")
        via_kraus = api.apply_dual_kraus(k, self.b)
        via_choi = api.apply_dual_choi(z, self.b)
        check(max_abs(via_kraus - via_choi) < RESIDUAL_TOL, "Kraus and Choi dual actions differ")


# --- battery-profile -----------------------------------------------------------

def make_battery_profile(seed: int, small: bool, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    dims = (8,) if small else (8, 16, 32)
    items = []
    for d in dims:
        for aligned in (False, True):
            basis = None if aligned else _unitary(rng, d)
            items.append(EnvItem(d, _spectrum(rng, d), basis, float(rng.random()),
                                 _hermitian(rng, d), _density(rng, d)))
    # six profiles of similar cost make up the middle of the batch
    for d in (8,) if small else (12, 16, 20) * 2:
        m = float(rng.uniform(0.5, 2.0))
        grid = np.linspace(0.0, float(rng.uniform(5.0, 20.0)) * m, 50 if small else 500)
        items.append(ProfileItem(m, float(rng.uniform(0.05, 0.2)) * m, d, grid))
    return items


class EnvItem:
    """Swap-channel checks on one environment state."""

    def __init__(self, d, spectrum, basis, theta, x, rho):
        self.d, self.spectrum, self.basis, self.theta = d, spectrum, basis, theta
        self.x, self.rho = x, rho

    def __call__(self, api, counts) -> None:
        d = self.d
        if self.basis is None:
            env = api.aligned_env(d, self.spectrum, self.theta)
        else:
            env = api.EnvState(dim=d, spectrum=self.spectrum, basis=self.basis)
        k = api.env_kraus(env)
        counts["dual_map.kraus_ops"] += d * d
        p = api.phi(env)
        check(max_abs(api.dual_apply_number(env) - p * np.eye(d)) < RESIDUAL_TOL,
              "Phi[N] differs from phi I")
        sigma = env.sigma_fock()
        replaced = np.trace(sigma @ self.x) * np.eye(d)
        check(max_abs(api.apply_dual_kraus(k, self.x) - replaced) < RESIDUAL_TOL,
              "Phi[X] differs from tr[sigma X] I")
        check(-PHI_SLACK <= p <= env.phi_max() + PHI_SLACK, "phi outside [0, phi_max]")
        cfg = api.BatteryConfig(d=d, env=env, rho0=self.rho)
        charge = api.simulate_charging(cfg, CHARGE_TIMES)
        check(abs(charge.phi_fit - p) < RESIDUAL_TOL
              and max_abs(charge.values - p * CHARGE_TIMES) < RESIDUAL_TOL,
              "charging slope differs from phi")
        if d <= 16:
            u = api.swap_unitary(d)
            joint = u @ api.kron(self.rho, sigma) @ u.conj().T
            check(max_abs(api.partial_trace_second(joint, d, d) - sigma) < RESIDUAL_TOL,
                  "swap oracle differs from sigma")


class ProfileItem:
    """One dilation profile over a radial grid."""

    def __init__(self, m, r0, d, grid):
        self.m, self.r0, self.d, self.grid = m, r0, d, grid

    def __call__(self, api, counts) -> None:
        params = api.MetricParams(M=self.m, r0=self.r0, d=self.d, r_grid=self.grid)
        records = api.build_profile(params).records
        target = np.array([rec.target_factor for rec in records])
        achieved = np.array([rec.phi_achieved for rec in records])
        clipped = np.array([rec.clipped for rec in records])
        counts["metric.points"] += len(records)
        counts["metric.clipped"] += int(clipped.sum())
        check(len(records) == len(self.grid), "one record per grid point")
        check(bool(np.all(np.isfinite(target)) and np.all(np.isfinite(achieved))),
              "non-finite profile value")
        check(bool(np.array_equal(clipped, target > self.d - 1)),
              "clip flag differs from target > d - 1")
        check(max_abs(np.where(clipped, 0.0, achieved - target)) <= RESIDUAL_TOL,
              "achieved phi differs from the unclipped target")


# --- cli-io --------------------------------------------------------------------

def _matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def _parse_matrix(obj: dict) -> np.ndarray:
    re, im = np.array(obj["re"], dtype=float), np.array(obj["im"], dtype=float)
    return (re + 1j * im).reshape(obj["rows"], obj["cols"])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def make_cli_io(seed: int, small: bool, workdir: Path) -> list:
    """One item per spec: three writes, then five reads of the files written.

    An item is a whole spec because single commands fall into classes of
    very different cost, and a percentile over them jumps between classes
    from run to run.  The batch is one N=8 spec and then one N=16 spec three
    times over, each copy in its own directory, so the median and the
    90th-percentile items are both runs of the same N=16 work.
    """
    rng = np.random.default_rng([seed, 3])
    if small:
        refs = [_cli_reference(rng, 4)]
    else:
        n8, n16 = _cli_reference(rng, 8), _cli_reference(rng, 16)
        refs = [n8, n16, n16, n16]
    return [_cli_spec(ref, workdir / f"spec{j}") for j, ref in enumerate(refs)]


def _cli_reference(rng, n: int) -> CliReference:
    a, v = _fixed_point_input(rng, "pencil", n)
    return CliReference(a, v, b=_hermitian(rng, n), rho=_density(rng, n),
                        spectrum=_spectrum(rng, n), basis=_unitary(rng, n),
                        m=float(rng.uniform(0.5, 2.0)), r0_share=float(rng.uniform(0.05, 0.2)))


def _cli_spec(ref: CliReference, f: Path) -> CliSpec:
    """Write the spec's input files into ``f`` and return its commands."""
    f.mkdir()
    _write_json(f / "a.json", _matrix_json(ref.a))
    _write_json(f / "v.json", {"re": ref.v.real.tolist(), "im": ref.v.imag.tolist()})
    _write_json(f / "b.json", _matrix_json(ref.b))
    _write_json(f / "rho.json", _matrix_json(ref.rho))
    _write_json(f / "env.json", {"d": len(ref.spectrum), "spectrum": ref.spectrum.tolist(),
                                 "V": _matrix_json(ref.basis)})
    a_v = ["--A", f / "a.json", "--v", f / "v.json"]
    return CliSpec([
        CliCall(["choi-build", *a_v, "--out", f / "z.json"], ref.choi_build),
        CliCall(["kraus-extract", *a_v, "--out", f / "k.json"], ref.kraus_extract),
        CliCall(["metric-profile", "--M", repr(ref.m), "--r0", repr(ref.r0), "--d", "16",
                 "--grid", "0:10:200", "--format", "json", "--out", f / "p.json"],
                ref.metric_profile),
        CliCall(["choi-check", "--Z", f / "z.json", "--A", f / "a.json"], ref.choi_check),
        CliCall(["map-apply", "--Z", f / "z.json", "--B", f / "b.json",
                 "--out", f / "bz.json"], ref.map_apply_choi),
        CliCall(["map-apply", "--kraus", f / "k.json", "--B", f / "b.json",
                 "--out", f / "bk.json"], ref.map_apply_kraus),
        CliCall(["evolve", "--Z", f / "z.json", "--A0", f / "b.json", "--rho", f / "rho.json",
                 "--times", "0:10:1001", "--out", f / "evolve.csv"], ref.evolve),
        CliCall(["battery-sim", "--env", f / "env.json", "--times", "0:5:101",
                 "--out", f / "charge.csv"], ref.battery_sim),
    ])


class CliReference:
    """Library results that one spec's command-line outputs must parse back to.

    The grids here are the ones the commands name: 0:10:200 for the
    profile, 0:10:1001 for evolve and 0:5:101 for battery-sim.
    """

    def __init__(self, a, v, b, rho, spectrum, basis, m, r0_share):
        self.a, self.v, self.b, self.rho = a, v, b, rho
        self.spectrum, self.basis = spectrum, basis
        self.m, self.r0 = m, r0_share * m

    def _choi(self, api):
        return api.build_fixed_point_choi(api.FixedPointSpec(a=self.a, v=self.v))

    def _kraus(self, api):
        return api.kraus_from_fixed_point(api.FixedPointSpec(a=self.a, v=self.v))

    def choi_build(self, api, data: bytes) -> None:
        obj = json.loads(data)
        z = self._choi(api)
        check(obj["dim"] == z.dim and np.array_equal(_parse_matrix(obj), z.matrix),
              "choi-build output differs from build_fixed_point_choi")

    def kraus_extract(self, api, data: bytes) -> None:
        obj = json.loads(data)
        k = self._kraus(api)
        check([entry["tag"] for entry in obj["ops"]] == [tag for tag, _ in k.ops],
              "kraus-extract tags differ")
        check(all(np.array_equal(_parse_matrix(entry["matrix"]), op)
                  for entry, (_, op) in zip(obj["ops"], k.ops)),
              "kraus-extract operators differ from kraus_from_fixed_point")

    def metric_profile(self, api, data: bytes) -> None:
        params = api.MetricParams(M=self.m, r0=self.r0, d=16, r_grid=np.linspace(0.0, 10.0, 200))
        want = [(rec.r, rec.target_factor, rec.phi_achieved, rec.clipped)
                for rec in api.build_profile(params).records]
        got = [(rec["r"], rec["target"], rec["phi"], rec["clipped"])
               for rec in json.loads(data)["records"]]
        check(got == want, "metric-profile output differs from build_profile")

    def choi_check(self, api, data: bytes) -> None:
        z = self._choi(api)
        want = [["unitality-residual", api.check_unital(z)],
                ["fixed-point-residual", api.check_fixed_point(z, self.a)]]
        got = [[name, float(x)] for name, x in (line.split() for line in data.decode().splitlines())]
        check(got == want, "choi-check residuals differ from check_unital/check_fixed_point")

    def map_apply_choi(self, api, data: bytes) -> None:
        out = api.apply_dual_choi(self._choi(api), self.b)
        check(np.array_equal(_parse_matrix(json.loads(data)), out),
              "map-apply --Z output differs from apply_dual_choi")

    def map_apply_kraus(self, api, data: bytes) -> None:
        out = api.apply_dual_kraus(self._kraus(api), self.b)
        check(np.array_equal(_parse_matrix(json.loads(data)), out),
              "map-apply --kraus output differs from apply_dual_kraus")

    def evolve(self, api, data: bytes) -> None:
        trace = api.evolve_linear(self._choi(api), self.b, self.rho, np.linspace(0.0, 10.0, 1001))
        _check_csv(data, trace, "evolve output differs from evolve_linear")

    def battery_sim(self, api, data: bytes) -> None:
        d = len(self.spectrum)
        env = api.EnvState(dim=d, spectrum=self.spectrum, basis=self.basis)
        ground = np.zeros((d, d), dtype=complex)
        ground[0, 0] = 1.0
        trace = api.simulate_charging(api.BatteryConfig(d=d, env=env, rho0=ground),
                                      np.linspace(0.0, 5.0, 101))
        _check_csv(data, trace, "battery-sim output differs from simulate_charging")


def _check_csv(data: bytes, trace, what: str) -> None:
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    got = np.array(rows, dtype=float)
    check(got.shape == (len(trace.times), 2) and np.array_equal(got[:, 0], trace.times)
          and np.array_equal(got[:, 1], trace.values), what)


class CliSpec:
    """One spec's commands, run in order; a failed command fails the item."""

    def __init__(self, calls):
        self.calls = calls

    def __call__(self, api, counts) -> None:
        for call in self.calls:
            call(api, counts)


class CliCall:
    """One in-process command; its output is checked against the library
    on the first call and must repeat byte for byte after that."""

    def __init__(self, argv, verify):
        self.argv = [str(arg) for arg in argv]
        self.inputs = [Path(arg) for flag, arg in zip(argv, argv[1:])
                       if flag != "--out" and isinstance(arg, Path)]
        self.out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        self.verify = verify
        self.expected = None

    def __call__(self, api, counts) -> None:
        code, stdout, stderr = api.cli(self.argv)
        check(code == 0, f"{self.argv[0]} exited {code}: {stderr.strip()}")
        counts["serialize.bytes_in"] += sum(p.stat().st_size for p in self.inputs)
        if self.out is None:
            data = stdout.encode()
        else:
            data = self.out.read_bytes()
            counts["serialize.bytes_out"] += len(data)
        if self.expected is None:
            self.verify(api, data)
            self.expected = data
        else:
            check(data == self.expected, f"{self.argv[0]} output bytes changed on repeat")


# --- selftest ------------------------------------------------------------------

def make_selftest(seed: int, small: bool, workdir: Path) -> list:
    return [SelftestCall(seed)]


class SelftestCall:
    """``run_selftest`` must pass and repeat its report byte for byte."""

    def __init__(self, seed):
        self.seed = seed
        self.expected = None

    def __call__(self, api, counts) -> None:
        report, ok = api.run_selftest(self.seed)
        check(ok and "FAIL" not in report, "selftest reported a failure")
        if self.expected is None:
            self.expected = report
        else:
            check(report == self.expected, "selftest report changed on repeat")


WORKLOADS = {
    "fixed-point": make_fixed_point,
    "battery-profile": make_battery_profile,
    "cli-io": make_cli_io,
    "selftest": make_selftest,
}

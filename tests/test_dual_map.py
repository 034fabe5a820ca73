import numpy as np
import pytest

from cpumap import (
    FixedPointSpec,
    KrausSet,
    aligned_env,
    apply_dual_choi,
    apply_dual_kraus,
    build_fixed_point_choi,
    choi_from_kraus,
    dual_apply_number,
    env_kraus,
    evolve_linear,
    evolve_linear_euler,
    idempotence_residual,
    kraus_from_fixed_point,
    kron,
    partial_trace_second,
    unitality_residual,
)
from cpumap import dual_map, serialize as ser
from cpumap.dual_map import KRAUS_CHUNK_BYTES, _stack_from_rows, complete_basis
from cpumap.linalg import eig_hermitian, max_abs
from cpumap.selftest import equivalence_spec

from conftest import (
    NEGATED_IDENTITY_Z,
    PAYLOADS,
    PINNED_Z_DIAG21,
    hermitian_basis,
    pencil_spec,
    psd_reference,
    random_density,
    random_env,
    random_hermitian,
    random_spec,
    random_unit,
    rng_for,
    traced_peak_bytes,
    zero_weight_spectrum,
)


def closed_form_dual(spec, b):
    """One-application formula for the fixed-point family."""
    n = spec.dim
    e = spec.expectation
    t = spec.trace
    vbv = float(np.real(np.conj(spec.v) @ b @ spec.v))
    trb = float(np.real(np.trace(b)))
    return spec.a * (vbv / e) + (np.eye(n) - spec.a / e) * (
        (trb / t - vbv / e) / (n / t - 1.0 / e)
    )


def test_apply_dual_choi_fixed_point_and_identity():
    rng = rng_for(301)
    spec = random_spec(rng, 4)
    z = build_fixed_point_choi(spec)
    assert max_abs(apply_dual_choi(z, spec.a) - spec.a) < 1e-9
    assert max_abs(apply_dual_choi(z, np.eye(4)) - np.eye(4)) < 1e-9


def test_apply_dual_choi_matches_closed_form():
    rng = rng_for(302)
    for n in (2, 3, 5):
        spec = random_spec(rng, n)
        z = build_fixed_point_choi(spec)
        for _ in range(5):
            b = random_hermitian(rng, n)
            assert max_abs(apply_dual_choi(z, b) - closed_form_dual(spec, b)) < 1e-9


def test_apply_dual_choi_hermitian_output():
    rng = rng_for(303)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    out = apply_dual_choi(z, random_hermitian(rng, 3))
    assert max_abs(out - out.conj().T) < 1e-12


def test_idempotence():
    rng = rng_for(305)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    for _ in range(5):
        assert idempotence_residual(z, random_hermitian(rng, 3)) < 1e-9
    assert idempotence_residual(z, np.eye(3)) < 1e-12
    assert idempotence_residual(z, spec.a) < 1e-9


def test_idempotence_residual_below_overflow_is_exact():
    # the REJECTIONS row idempotence-residual-overflows raises DomainError one step further out
    assert idempotence_residual(NEGATED_IDENTITY_Z, np.diag([1e307, 1.0])) == 2e307


def test_kraus_identity_observable():
    # A = I: every v-ray coefficient is 1 and the complement family collapses
    v = random_unit(rng_for(306), 3)
    spec = FixedPointSpec(a=np.eye(3, dtype=complex), v=v)
    k = kraus_from_fixed_point(spec)
    b_ops = [op for tag, op in k.ops if tag.startswith("B")]
    c_ops = [op for tag, op in k.ops if tag.startswith("C")]
    assert len(b_ops) == 3 and len(c_ops) == 6
    for op in b_ops:
        assert abs(np.linalg.norm(op.reshape(-1)) - 1.0) < 1e-10  # sqrt(1) |a_i><v|
    for op in c_ops:
        assert max_abs(op) < 1e-10
    assert unitality_residual(k) < 1e-10


def test_kraus_pinned_roundtrip():
    spec = FixedPointSpec(
        a=np.diag([2.0, 1.0]).astype(complex), v=np.array([1.0, 0.0], dtype=complex)
    )
    k = kraus_from_fixed_point(spec)
    rebuilt = choi_from_kraus(k)
    assert max_abs(rebuilt.matrix - PINNED_Z_DIAG21) < 1e-12
    assert max_abs(rebuilt.matrix - build_fixed_point_choi(spec).matrix) < 1e-12


def test_kraus_unitality_seeded():
    rng = rng_for(307)
    k = kraus_from_fixed_point(pencil_spec(rng, 4))
    assert unitality_residual(k) < 1e-9
    assert len(k.ops) == 16


def test_kraus_roundtrip_both_pencil_orientations():
    rng = rng_for(308)
    for n in (2, 3, 4):
        for bottom in (False, True):
            spec = pencil_spec(rng, n, bottom=bottom)
            z = build_fixed_point_choi(spec)
            k = kraus_from_fixed_point(spec)
            assert max_abs(choi_from_kraus(k).matrix - z.matrix) < 1e-8
            assert unitality_residual(k) < 1e-9


def test_apply_dual_kraus_identity_and_fixed_point():
    rng = rng_for(309)
    spec = pencil_spec(rng, 3)
    k = kraus_from_fixed_point(spec)
    assert max_abs(apply_dual_kraus(k, np.eye(3)) - np.eye(3)) < 1e-9
    assert max_abs(apply_dual_kraus(k, spec.a) - spec.a) < 1e-8


def test_representation_equivalence_on_basis():
    rng = rng_for(310)
    for n in (2, 3):
        spec = pencil_spec(rng, n)
        z = build_fixed_point_choi(spec)
        k = kraus_from_fixed_point(spec)
        for b in hermitian_basis(n):
            assert max_abs(apply_dual_kraus(k, b) - apply_dual_choi(z, b)) < 1e-8


def test_choi_from_kraus_identity_channel():
    k = KrausSet.from_ops(3, [("B0", np.eye(3, dtype=complex))])
    z = choi_from_kraus(k)
    rng = rng_for(311)
    b = random_hermitian(rng, 3)
    assert max_abs(apply_dual_choi(z, b) - b) < 1e-12


def test_choi_from_kraus_replacement_family():
    # family {|k><0|}: the map sends every B to <0|B|0> I
    n = 3
    ops = []
    for k_idx in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k_idx, 0] = 1.0
        ops.append((f"E{k_idx},0", m))
    kset = KrausSet.from_ops(n, ops)
    rng = rng_for(312)
    b = random_hermitian(rng, n)
    # explicit loop oracle
    oracle = np.zeros((n, n), dtype=complex)
    for _, op in kset.ops:
        oracle += op @ b @ op.conj().T
    expected = b[0, 0] * np.eye(n)
    assert max_abs(oracle - expected) < 1e-12
    assert max_abs(apply_dual_kraus(kset, b) - expected) < 1e-12
    assert max_abs(apply_dual_choi(choi_from_kraus(kset), b) - expected) < 1e-12


def test_duality_identity():
    # tr[channel(rho) A] == tr[rho dual(A)] with the primal built by
    # conjugate-transposing every stored operator
    rng = rng_for(313)
    spec = pencil_spec(rng, 3)
    k = kraus_from_fixed_point(spec)
    for _ in range(5):
        rho = random_density(rng, 3)
        a = random_hermitian(rng, 3)
        primal = np.zeros((3, 3), dtype=complex)
        for op in k.stack:
            primal += op.conj().T @ rho @ op
        lhs = np.trace(primal @ a)
        rhs = np.trace(rho @ apply_dual_kraus(k, a))
        assert abs(lhs - rhs) < 1e-10


def test_dual_preserves_positivity():
    rng = rng_for(314)
    spec = pencil_spec(rng, 4)
    z = build_fixed_point_choi(spec)
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = g @ g.conj().T  # PSD input
        out = apply_dual_choi(z, b)
        assert psd_reference(out, 1e-9)


def test_complete_basis_orthonormal_and_deterministic():
    v = random_unit(rng_for(315), 5)
    basis = complete_basis(v)
    assert len(basis) == 5
    gram = np.array([[np.conj(x) @ y for y in basis] for x in basis])
    assert max_abs(gram - np.eye(5)) < 1e-12
    assert max_abs(basis[0] - v) < 1e-12
    again = complete_basis(v.copy())
    for b1, b2 in zip(basis, again):
        assert np.array_equal(b1, b2)


def test_evolve_linear_zero_and_doubling():
    rng = rng_for(316)
    spec = random_spec(rng, 3)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    trace = evolve_linear(z, a0, rho, [0.0, 1.0, 2.0])
    assert trace.values[0] == 0.0
    assert abs(trace.values[2] - 2.0 * trace.values[1]) < 1e-12


def test_evolve_linear_slope_is_single_application_trace():
    rng = rng_for(317)
    spec = random_spec(rng, 4)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    trace = evolve_linear(z, a0, rho, np.linspace(0, 3, 7))
    slope = float(np.real(np.trace(rho @ apply_dual_choi(z, a0))))
    assert abs(trace.phi_fit - slope) < 1e-12
    assert np.allclose(trace.values, slope * trace.times)


def test_evolve_linear_rate_multiplier():
    rng = rng_for(318)
    spec = random_spec(rng, 2)
    z = build_fixed_point_choi(spec)
    a0 = random_hermitian(rng, 2)
    rho = random_density(rng, 2)
    base = evolve_linear(z, a0, rho, [0.0, 1.0])
    scaled = evolve_linear(z, a0, rho, [0.0, 1.0], rate=2.5)
    assert abs(scaled.phi_fit - 2.5 * base.phi_fit) < 1e-12


def test_euler_agrees_with_closed_form():
    rng = rng_for(319)
    for n in (2, 3):
        spec = random_spec(rng, n)
        z = build_fixed_point_choi(spec)
        a0 = random_hermitian(rng, n)
        rho = random_density(rng, n)
        times = np.linspace(0.0, 4.0, 17)
        closed = evolve_linear(z, a0, rho, times).values
        euler = evolve_linear_euler(z, a0, rho, times)
        assert np.max(np.abs(closed - euler)) < 1e-9


def test_kraus_set_needs_dim_at_least_one():
    k = KrausSet.from_ops(1, [("B0", np.eye(1))])
    assert unitality_residual(k) == 0.0 and apply_dual_kraus(k, [[3.0]]) == 3.0


def test_kraus_set_ops_are_views_of_the_stack():
    k = kraus_from_fixed_point(pencil_spec(rng_for(321), 3))
    assert k.stack.shape == (9, 3, 3) and len(k.tags) == 9
    for (tag, op), want_tag, want_op in zip(k.ops, k.tags, k.stack):
        assert tag == want_tag
        assert np.shares_memory(op, k.stack) and np.array_equal(op, want_op)
    with pytest.raises(ValueError):
        k.stack[0, 0, 0] = 1.0


def test_repr_and_equality_leave_a_row_form_stack_unwritten():
    # a generated repr and == read the stack: repr wrote the 16 MiB stack of
    # this d = 32 set, and == of two sets raised numpy's ambiguous-truth ValueError
    rng = rng_for(336)
    a, b = env_kraus(random_env(rng, 32)), env_kraus(random_env(rng, 32))
    assert "KrausSet" in repr(a)
    assert a == a and a != b and not a == b
    assert "stack" not in vars(a) and "stack" not in vars(b)


def loop_kraus_from_fixed_point(spec):
    """The per-operator construction: one outer product per (tag, operator)."""
    n, e, t = spec.dim, spec.expectation, spec.trace
    avals, avecs = eig_hermitian(spec.a)
    if spec.is_scalar:
        z, w = np.ones(n), np.zeros(n)
    else:
        denom = n / t - 1.0 / e
        z = avals / e + (1.0 - avals / e) * (1.0 / t - 1.0 / e) / denom
        w = (1.0 - avals / e) / (denom * t)
    z, w = np.clip(z, 0.0, None), np.clip(w, 0.0, None)
    basis = complete_basis(spec.v)
    ops = [(f"B{i}", np.sqrt(z[i]) * np.outer(avecs[:, i], basis[0].conj())) for i in range(n)]
    for i in range(n):
        for j in range(1, n):
            ops.append((f"C{i},{j}", np.sqrt(w[i]) * np.outer(avecs[:, i], basis[j].conj())))
    return ops


def test_kraus_from_fixed_point_equals_outer_product_loop():
    rng = rng_for(322)
    for n in (2, 3, 4, 8):
        specs = [pencil_spec(rng, n), pencil_spec(rng, n, bottom=True),
                 FixedPointSpec(a=2.0 * np.eye(n, dtype=complex), v=random_unit(rng, n))]
        for spec in specs:
            k = kraus_from_fixed_point(spec)
            want = loop_kraus_from_fixed_point(spec)
            assert k.tags == tuple(tag for tag, _ in want)
            assert all(np.array_equal(op, m) for op, (_, m) in zip(k.stack, want))


def test_choi_from_kraus_equals_outer_product_sum():
    rng = rng_for(323)
    for n in (2, 3, 5, 8, 16):
        k = kraus_from_fixed_point(pencil_spec(rng, n))
        oracle = np.zeros((n * n, n * n), dtype=complex)
        for op in k.stack:
            u = op.reshape(-1)
            oracle += np.outer(u, u.conj())
        assert max_abs(choi_from_kraus(k).matrix - oracle) < 1e-12


def random_kraus(rng, n_ops, d):
    """n_ops complex Gaussian operators on d levels (not a unital family)."""
    stack = rng.normal(size=(n_ops, d, d)) + 1j * rng.normal(size=(n_ops, d, d))
    return KrausSet(dim=d, stack=stack, tags=tuple(f"E{k}" for k in range(n_ops)))


def one_and_a_half_chunks(rng):
    """16-level operators filling one chunk and half of the next, plus one."""
    per_chunk = KRAUS_CHUNK_BYTES // (16 * 16 * 16)
    return random_kraus(rng, per_chunk + per_chunk // 2 + 1, 16)


def zero_weight_env(rng, d=32):
    """aligned_env at theta = 1 on d levels whose level 0 has weight 0: the
    operators E_{i,0} are zero, which count as having one nonzero row, so the
    whole stack is summed through its rows."""
    return aligned_env(d, zero_weight_spectrum(rng, d, 0), theta=1.0)


def env_and_dense_operator(rng):
    """The swap channel's 256 operators on 16 levels, then one dense operator:
    the stack is not single-row as a whole, so all five chunks are summed
    densely."""
    k = env_kraus(random_env(rng, 16))
    dense = random_kraus(rng, 1, 16)
    return KrausSet(dim=16, stack=np.concatenate([k.stack, dense.stack]), tags=k.tags + ("X",))


KRAUS_FAMILIES = {
    "env-d2": lambda rng: env_kraus(random_env(rng, 2)),
    "env-d3": lambda rng: env_kraus(random_env(rng, 3)),
    "env-d8": lambda rng: env_kraus(random_env(rng, 8)),
    "env-d13": lambda rng: env_kraus(random_env(rng, 13)),
    "env-d32": lambda rng: env_kraus(random_env(rng, 32)),
    "aligned-env-zero-weight": lambda rng: env_kraus(zero_weight_env(rng)),
    "env-then-dense": env_and_dense_operator,
    "fixed-point-n2": lambda rng: kraus_from_fixed_point(pencil_spec(rng, 2)),
    "fixed-point-n16": lambda rng: kraus_from_fixed_point(pencil_spec(rng, 16)),
    "partial-chunk": one_and_a_half_chunks,
    "one-operator": lambda rng: random_kraus(rng, 1, 5),
    "d1": lambda rng: random_kraus(rng, 3, 1),
}


def literal_kraus_sum(k, b):
    """sum_k D_k B D_k^dagger one operator at a time, and the sum of the
    terms' magnitudes, which bounds the rounding of either summation order."""
    want = sum(op @ b @ op.conj().T for op in k.stack)
    scale = max_abs(sum(abs(op) @ abs(b) @ abs(op).T for op in k.stack))
    return want, scale


@pytest.mark.parametrize("family", list(KRAUS_FAMILIES))
def test_kraus_sums_equal_operator_loop(family):
    rng = rng_for(331)
    k = KRAUS_FAMILIES[family](rng)
    d = k.dim
    non_hermitian = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for b in (random_hermitian(rng, d), non_hermitian):
        want, scale = literal_kraus_sum(k, b)
        assert max_abs(apply_dual_kraus(k, b) - want) <= 1e-12 * scale
    want, scale = literal_kraus_sum(k, np.eye(d))
    assert abs(unitality_residual(k) - max_abs(want - np.eye(d))) <= 1e-12 * scale


def dense_chunks(monkeypatch, call, *args):
    """How many chunks ``call(*args)`` sums through the dense products."""
    counted, real_add_dense_terms = [], dual_map._add_dense_terms

    def add_dense_terms(buf, ops, b):
        counted.append(len(ops))
        real_add_dense_terms(buf, ops, b)

    monkeypatch.setattr(dual_map, "_add_dense_terms", add_dense_terms)
    call(*args)
    monkeypatch.undo()
    return len(counted)


@pytest.mark.parametrize("d", [2, 3, 8, 13, 16, 32])
def test_kraus_sum_branches_follow_the_operators(monkeypatch, d):
    # every swap-channel operator has at most one nonzero row, none if its
    # weight is zero, so no chunk of theirs reaches the dense products; a
    # pencil family's operators are dense, so every chunk does, and so does
    # every chunk of a stack with one dense operator after the swap channel's
    rng = rng_for(332, d)
    for env in (random_env(rng, d), zero_weight_env(rng, d)):
        k = env_kraus(env)
        assert dense_chunks(monkeypatch, apply_dual_kraus, k, random_hermitian(rng, d)) == 0
        assert dense_chunks(monkeypatch, unitality_residual, k) == 0
        assert dense_chunks(monkeypatch, dual_apply_number, env) == 0
    pencil = kraus_from_fixed_point(pencil_spec(rng, d))
    chunks = -(-d * d // dual_map._kraus_chunk_len(d * d, d))
    assert dense_chunks(monkeypatch, apply_dual_kraus, pencil, random_hermitian(rng, d)) == chunks
    assert dense_chunks(monkeypatch, unitality_residual, pencil) == chunks
    mixed = KrausSet(dim=d, stack=np.concatenate([k.stack, random_kraus(rng, 1, d).stack]), tags=k.tags + ("X",))
    chunks = -(-(d * d + 1) // dual_map._kraus_chunk_len(d * d + 1, d))
    assert dense_chunks(monkeypatch, unitality_residual, mixed) == chunks


def scalar_family(rng, n):
    """The fixed-point family of a scalar A: operator i is |a_i><v|, one
    nonzero row, and the C operators are zero."""
    return kraus_from_fixed_point(FixedPointSpec(a=3.0 * np.eye(n, dtype=complex), v=random_unit(rng, n)))


def assert_row_form_precondition(dim, index, which, rows, tags):
    """What KrausSet._from_rows takes unchecked: a tuple of K str tags, K
    integers ``index`` in [0, dim) and ``which`` in [0, len(rows)), and
    finite complex (R, dim) rows."""
    count = len(tags)
    assert count and type(tags) is tuple and all(type(tag) is str for tag in tags)
    for ints, bound in ((index, dim), (which, len(rows))):
        assert ints.dtype.kind in "iu" and ints.shape == (count,) and np.all((ints >= 0) & (ints < bound))
    assert rows.dtype == complex and rows.ndim == 2 and rows.shape[1] == dim and np.all(np.isfinite(rows))


# inputs that break the precondition one clause each, with dim 2; _from_rows
# takes them unchecked, so the precondition check must refuse every one
BROKEN_ROW_FORMS = {
    "nan": ([0, 1], [0, 1], [[np.nan, 0.0], [0.0, 1.0]], ("E0", "E1")),
    "inf": ([0, 1], [0, 1], [[1.0, 0.0], [0.0, np.inf]], ("E0", "E1")),
    "index-above-dim": ([0, 2], [0, 1], np.eye(2), ("E0", "E1")),
    "index-negative": ([-1, 0], [0, 1], np.eye(2), ("E0", "E1")),
    "index-float": ([0.0, 1.0], [0, 1], np.eye(2), ("E0", "E1")),
    "index-bool": ([False, True], [0, 1], np.eye(2), ("E0", "E1")),
    "index-length": ([0, 1, 1], [0, 1], np.eye(2), ("E0", "E1")),
    "which-above-rows": ([0, 1], [0, 3], np.eye(3, 2), ("E0", "E1")),
    "which-negative": ([0, 1], [0, -1], np.eye(2), ("E0", "E1")),
    "which-float": ([0, 1], [0.0, 1.0], np.eye(2), ("E0", "E1")),
    "which-length": ([0, 1], [0], np.eye(2), ("E0", "E1")),
    "no-rows": ([0, 1], [0, 0], np.zeros((0, 2)), ("E0", "E1")),
    "rows-not-a-matrix": ([0, 1], [0, 1], np.ones(2), ("E0", "E1")),
    "row-longer-than-dim": ([0, 1], [0, 1], np.eye(2, 3), ("E0", "E1")),
    "no-tags": (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 2)), ()),
    "tag-not-str": ([0, 1], [0, 1], np.eye(2), ("E0", 1)),
    "tags-a-list": ([0, 1], [0, 1], np.eye(2), ["E0", "E1"]),
}


@pytest.mark.parametrize("name", BROKEN_ROW_FORMS)
def test_row_form_precondition_refuses_each_broken_clause(name):
    index, which, rows, tags = BROKEN_ROW_FORMS[name]
    index, which, rows = np.asarray(index), np.asarray(which), np.asarray(rows, dtype=complex)
    assert_row_form_precondition(2, np.arange(2), np.arange(2), np.eye(2, dtype=complex), ("E0", "E1"))
    with pytest.raises(AssertionError):
        assert_row_form_precondition(2, index, which, rows, tags)


@pytest.mark.parametrize("d", [2, 3, 16])
def test_each_builder_decides_the_row_form(d, monkeypatch):
    # the swap channel's stack, a scalar family and the CLI's diag(2, 1)/e1
    # file have one nonzero row per operator and keep each as its own
    # distinct row; env_kraus holds the swap channel's d distinct rows once;
    # a pencil family is dense
    passed = []
    build = KrausSet._from_rows
    monkeypatch.setattr(KrausSet, "_from_rows", lambda *args: passed.append(args) or build(*args))
    rng = rng_for(333, d)
    env = zero_weight_env(rng, d)
    row_form = env_kraus(env)
    singles = {
        "env-rows": row_form,
        "env-stack": KrausSet(dim=d, stack=row_form.stack, tags=row_form.tags),
        "scalar": scalar_family(rng, d),
        "cli-file": ser.kraus_from_json(PAYLOADS["kraus"]),
    }
    for name, k in singles.items():
        assert k._rows is not None, name
        index, which, rows = k._rows
        assert not (index.flags.writeable or which.flags.writeable or rows.flags.writeable)
        want_which = np.arange(d * d) % d if name == "env-rows" else np.arange(len(k.tags))
        assert np.array_equal(which, want_which) and len(rows) == want_which.max() + 1, name
        assert np.array_equal(_stack_from_rows(k.dim, index, which, rows), k.stack), name
    assert kraus_from_fixed_point(pencil_spec(rng, d))._rows is None
    # _from_rows checks nothing, so env_kraus must pass what it takes, zero weights included
    env_kraus(random_env(rng, d))
    assert len(passed) == 2
    for args in passed:
        assert_row_form_precondition(*args)


def full_scan_rows(stack):
    """The row-form decision from one read of the whole stack."""
    nonzero = stack.any(axis=2)
    return nonzero.argmax(axis=1) if np.all(nonzero.sum(axis=1) <= 1) else None


def zeros_then(ops, zeros=12):
    """``zeros`` all-zero operators, then ``ops``."""
    return np.concatenate([np.zeros((zeros,) + ops.shape[1:], dtype=complex), ops])


# pencil families hold zero operators: at this seed operator 0 at N = 2 and 4,
# operators 1 and 2 at N = 16 and 32
ROW_FORM_STACKS = {
    **{f"pencil-n{n}": lambda rng, n=n: kraus_from_fixed_point(pencil_spec(rng, n)).stack for n in (2, 4, 16, 32)},
    **{f"scalar-n{n}": lambda rng, n=n: scalar_family(rng, n).stack for n in (2, 3, 16)},
    # the stack that env_kraus's row-form set writes from its rows
    **{f"env-d{d}": lambda rng, d=d: env_kraus(random_env(rng, d)).stack for d in (2, 8, 32)},
    "env-zero-weight": lambda rng: env_kraus(zero_weight_env(rng, 8)).stack,
    "env-then-dense": lambda rng: env_and_dense_operator(rng).stack,
    "zeros-then-env": lambda rng: zeros_then(env_kraus(random_env(rng, 4)).stack),
    "zeros-then-dense": lambda rng: zeros_then(random_kraus(rng, 3, 4).stack),
    "all-zero": lambda rng: np.zeros((40, 3, 3), dtype=complex),
}


@pytest.mark.parametrize("family", ROW_FORM_STACKS)
def test_row_form_decision_equals_a_full_scan(family):
    stack = ROW_FORM_STACKS[family](rng_for(336))
    got, want = dual_map._single_rows(stack), full_scan_rows(stack)
    assert (got is None) == (want is None)
    assert got is None or np.array_equal(got, want)
    assert (got is None) == family.startswith(("pencil", "env-then-dense", "zeros-then-dense"))


def test_dense_stack_is_refused_at_its_first_nonzero_operator():
    # a full scan writes a (K, n) map of nonzero rows, 16 KiB here; the
    # refusal reads the 12 zero operators and the first dense one
    stack = zeros_then(random_kraus(rng_for(337), 1012, 16).stack)
    assert traced_peak_bytes(dual_map._single_rows, stack) < stack.shape[0] * stack.shape[1] // 2
    assert dual_map._single_rows(stack) is None


def counted_scans(monkeypatch):
    """Count calls of dual_map._single_rows from here on."""
    calls, real_single_rows = [], dual_map._single_rows

    def single_rows(stack):
        calls.append(len(stack))
        return real_single_rows(stack)

    monkeypatch.setattr(dual_map, "_single_rows", single_rows)
    return calls


@pytest.mark.parametrize("family", ["scalar", "pencil", "env-stack"])
def test_a_set_is_scanned_once(monkeypatch, family):
    rng = rng_for(334)
    env_set = env_kraus(random_env(rng, 8))
    build = {"scalar": lambda: scalar_family(rng, 8), "pencil": lambda: kraus_from_fixed_point(pencil_spec(rng, 8)),
             "env-stack": lambda: KrausSet(dim=8, stack=env_set.stack, tags=env_set.tags)}[family]
    calls = counted_scans(monkeypatch)
    k = build()
    unitality_residual(k)
    apply_dual_kraus(k, random_hermitian(rng, 8))
    assert len(calls) == 1


def test_oracle_stack_sum_scans_nothing(monkeypatch):
    # the selftest oracle's transposed stack: its operators have one nonzero
    # column each, and it is summed through the dense products
    rng = rng_for(335)
    env = random_env(rng, 8)
    rho = random_density(rng, 8)
    calls = counted_scans(monkeypatch)
    primal = dual_map._kraus_sum(env_kraus(env).stack.transpose(0, 2, 1), rho.conj()).conj()
    assert calls == []
    assert max_abs(primal - env.sigma_fock()) < 1e-12


@pytest.mark.parametrize("seed", [1, 7, 42, 99])
def test_evolve_generator_by_independent_routes(seed):
    # check_evolution's instances; it compares evolve_linear with the Euler
    # verifier, and both take the generator Phi[A0] from apply_dual_choi
    for n in (2, 3, 4):
        spec = equivalence_spec(seed, n, 2)
        z = build_fixed_point_choi(spec)
        rng = rng_for(seed, 29, n)
        a0 = random_hermitian(rng, n)
        rho = random_density(rng, n)
        generator = apply_dual_choi(z, a0)
        literal = partial_trace_second(z.matrix @ kron(np.eye(n), a0.T), n, n)
        via_kraus = apply_dual_kraus(kraus_from_fixed_point(spec), a0)
        tol = 1e-12 * max(1.0, max_abs(z.matrix)) * max(1.0, max_abs(a0)) * n * n
        assert max_abs(generator - literal) <= tol
        assert max_abs(generator - via_kraus) <= tol
        slope = evolve_linear(z, a0, rho, [0.0, 1.0]).phi_fit
        assert abs(slope - float(np.real(np.trace(rho @ literal)))) <= tol

import math

import numpy as np
import pytest

from daqec.mixed_radix_sim import (
    GateSpec,
    KrausChannel,
    RadixVector,
    apply_channel,
    apply_unitary,
    basis_map_gate,
    basis_state,
    basis_sum_state,
    depolarizing_channel,
    dump_state,
    embed_unitary,
    fidelity,
    heisenberg_weyl_ops,
    measure_sites,
    partial_trace,
    permute_gate_sites,
    permute_sites,
    pure_state,
    to_density,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
U02 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def bell_pair():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return pure_state((2, 2), amps)


# ---------------------------------------------------------------------------
# construction


def test_basis_state_qubits():
    s = basis_state((2, 2), (0, 0))
    assert s.array[0] == 1.0 and np.count_nonzero(s.array) == 1


def test_basis_state_all_flag_qutrits():
    s = basis_state((3, 3, 3), (2, 2, 2))
    assert s.array[26] == 1.0  # 2*9 + 2*3 + 2


def test_basis_state_mixed_radix_index():
    # direct tensor construction: site 0 is the most significant digit,
    # so (1,1) in radix (3,2) lands at index 1*2 + 1 = 3
    s = basis_state((3, 2), (1, 1))
    ref = np.kron([0, 1, 0], [0, 1])
    assert np.array_equal(np.nonzero(s.array)[0], np.nonzero(ref)[0])
    assert np.nonzero(s.array)[0][0] == 3


def test_basis_state_level_out_of_range():
    with pytest.raises(ValueError):
        basis_state((2, 3), (2, 0))


def test_dimension_cap():
    with pytest.raises(ValueError):
        basis_state((2,) * 23, (0,) * 23)
    basis_state((2,) * 23, (0,) * 23, cap=2**23)  # explicit cap raise works


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        pure_state((2,), np.array([1.0, 1.0]))


def test_basis_sum_state_adds_repeated_terms():
    s = basis_sum_state((3, 2), [((2, 1), 0.6), ((0, 0), 0.5j), ((0, 0), 0.3j)])
    ref = np.zeros(6, dtype=complex)
    ref[5], ref[0] = 0.6, 0.8j
    np.testing.assert_allclose(s.array, ref, atol=1e-15)
    with pytest.raises(ValueError):  # the sum must be normalized
        basis_sum_state((2,), [((0,), 0.6), ((0,), 0.6)])
    with pytest.raises(ValueError):  # the same cap as basis_state
        basis_sum_state((2,) * 23, [((0,) * 23, 1.0)])


def test_basis_map_gate_literal_matrices():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    g = basis_map_gate((2, 2), lambda x: (x[0], x[0] ^ x[1]))
    assert g.site_dims == (2, 2) and np.array_equal(g.matrix, cnot)
    assert np.array_equal(basis_map_gate((2, 2), lambda x: (x[1], x[0])).matrix, swap)
    assert np.array_equal(basis_map_gate((3,), lambda x: (2 - x[0],)).matrix, U02)
    # mixed radix: |a, b> -> |a, (a + b) mod 2> on a qutrit and a qubit
    g = basis_map_gate((3, 2), lambda x: (x[0], (x[0] + x[1]) % 2))
    ref = np.eye(6)
    ref[[2, 3]] = ref[[3, 2]]  # |1,0> <-> |1,1>; |0,b> and |2,b> stay
    assert np.array_equal(g.matrix, ref)


def test_basis_map_gate_rejects_map_that_is_not_one_to_one():
    with pytest.raises(ValueError):
        basis_map_gate((2, 2), lambda x: (x[0], 0))


def test_radix_vector_rejects_trivial_sites():
    with pytest.raises(ValueError):
        RadixVector((2, 1))


# ---------------------------------------------------------------------------
# unitaries


def test_apply_identity():
    s = bell_pair()
    out = apply_unitary(s, GateSpec(np.eye(4), (2, 2)), [0, 1])
    np.testing.assert_allclose(out.array, s.array, atol=1e-12)


def test_u02_involution():
    g = GateSpec(U02, (3,))
    s = basis_state((3,), (2,))
    once = apply_unitary(s, g, [0])
    np.testing.assert_allclose(once.array, [1, 0, 0], atol=1e-12)
    twice = apply_unitary(once, g, [0])
    np.testing.assert_allclose(twice.array, s.array, atol=1e-12)


def test_hadamard_on_zero():
    s = apply_unitary(basis_state((2,), (0,)), GateSpec(H, (2,)), [0])
    np.testing.assert_allclose(s.array, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_unitary(basis_state((3, 2), (0, 0)), GateSpec(H, (2,)), [0])


def test_apply_unitary_duplicate_sites():
    with pytest.raises(ValueError):
        apply_unitary(bell_pair(), GateSpec(np.eye(4), (2, 2)), [1, 1])


def test_gate_spec_rejects_non_unitary():
    with pytest.raises(ValueError):
        GateSpec(np.array([[1, 1], [0, 1]], dtype=complex), (2,))


def test_density_unitary_matches_pure():
    rng = np.random.default_rng(3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = pure_state((2, 2), v / np.linalg.norm(v))
    g = GateSpec(np.kron(H, H), (2, 2))
    pure_out = apply_unitary(s, g, [0, 1])
    dens_out = apply_unitary(to_density(s), g, [0, 1])
    np.testing.assert_allclose(
        dens_out.array, np.outer(pure_out.array, pure_out.array.conj()), atol=1e-12)


# ---------------------------------------------------------------------------
# channels


def test_depolarizing_zero_strength_is_identity_channel():
    ch = depolarizing_channel(2, 1, 0.0)
    assert len(ch.ops) == 1
    s = apply_channel(basis_state((2,), (0,)), ch, [0])
    np.testing.assert_allclose(s.array, [[1, 0], [0, 0]], atol=1e-12)


def test_two_qubit_depolarizing_structure():
    p = 0.37
    ch = depolarizing_channel(2, 2, p)
    assert len(ch.ops) == 16
    norms = sorted(float(np.linalg.norm(k) / 2) for k in ch.ops)  # ||K|| = w*sqrt(dim)
    np.testing.assert_allclose(norms[:15], [math.sqrt(p / 15)] * 15, atol=1e-12)
    np.testing.assert_allclose(norms[15], math.sqrt(1 - p), atol=1e-12)
    total = sum(k.conj().T @ k for k in ch.ops)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def _hw_mixture(state_vec, d, n, p):
    """Independent expansion: (1-p) rho + p * mean of nontrivial conjugations."""
    rho = np.outer(state_vec, state_vec.conj())
    singles = heisenberg_weyl_ops(d)
    words = [np.eye(1)]
    for _ in range(n):
        words = [np.kron(w, s) for w in words for s in singles]
    acc = np.zeros_like(rho)
    for w in words[1:]:
        acc += w @ rho @ w.conj().T
    return (1 - p) * rho + p * acc / (len(words) - 1)


def test_two_qubit_depolarizing_full_strength_explicit_sum():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    ref = _hw_mixture(v, 2, 2, 1.0)
    out = apply_channel(basis_state((2, 2), (0, 0)), depolarizing_channel(2, 2, 1.0), [0, 1])
    np.testing.assert_allclose(out.array, ref, atol=1e-12)
    # uniform mixture over the 15 nontrivial conjugations of |00><00|
    np.testing.assert_allclose(np.diag(ref).real, [3 / 15, 4 / 15, 4 / 15, 4 / 15], atol=1e-12)


def test_single_qubit_depolarizing_kraus_expansion():
    p = 0.3
    v = np.array([1.0, 0.0], dtype=complex)
    ref = _hw_mixture(v, 2, 1, p)
    out = apply_channel(basis_state((2,), (0,)), depolarizing_channel(2, 1, p), [0])
    np.testing.assert_allclose(out.array, ref, atol=1e-12)
    np.testing.assert_allclose(np.diag(out.array).real, [1 - 2 * p / 3, 2 * p / 3], atol=1e-12)


def test_single_qubit_depolarizing_full_on_plus():
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    out = apply_channel(pure_state((2,), plus), depolarizing_channel(2, 1, 1.0), [0])
    ref = _hw_mixture(plus.astype(complex), 2, 1, 1.0)
    np.testing.assert_allclose(out.array, ref, atol=1e-12)


def test_channel_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,), (2,))


def test_depolarizing_rejects_bad_p():
    with pytest.raises(ValueError):
        depolarizing_channel(2, 1, 1.5)


def test_qutrit_depolarizing_trace_preserving():
    ch = depolarizing_channel(3, 1, 0.4)
    assert len(ch.ops) == 9
    s = apply_channel(basis_state((3,), (1,)), ch, [0])
    assert abs(np.trace(s.array) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# measurement


def test_measure_deterministic_qubit():
    res = measure_sites(basis_state((2,), (0,)), [0])
    assert len(res) == 1
    levels, p, post = res[0]
    assert levels == (0,) and abs(p - 1.0) < 1e-12


def test_measure_no_sites_is_the_one_empty_outcome():
    pure = bell_pair()
    mixed = apply_channel(pure, depolarizing_channel(2, 1, 0.5), [0])
    for s in (pure, mixed):
        [(levels, p, post)] = measure_sites(s, [])
        assert levels == () and abs(p - 1.0) < 1e-12
        np.testing.assert_allclose(post.array, s.array, atol=1e-12)
        levels, p, _ = measure_sites(s, [], rng=np.random.default_rng(0))
        assert levels == () and abs(p - 1.0) < 1e-12


def test_measure_site_validity():
    with pytest.raises(ValueError):
        measure_sites(bell_pair(), [2])
    with pytest.raises(ValueError):
        measure_sites(bell_pair(), [0, 0])


def test_measure_plus_state():
    s = apply_unitary(basis_state((2,), (0,)), GateSpec(H, (2,)), [0])
    res = measure_sites(s, [0])
    assert [r[0] for r in res] == [(0,), (1,)]
    for _, p, _ in res:
        assert abs(p - 0.5) < 1e-12


def test_measure_decoder_ancilla_branching():
    # rank-one flag circuit: |beta> = (|psi 2>|0> + |2 psi>|1>)/sqrt(2) plus
    # flag-free |22>|0> at weight 1/3 gives ancilla outcomes 2/3 and 1/3
    amps = np.zeros(18, dtype=complex)
    rx = RadixVector((3, 3, 2))
    amps[rx.index_of((0, 2, 0))] = math.sqrt(1 / 3)
    amps[rx.index_of((2, 0, 1))] = math.sqrt(1 / 3)
    amps[rx.index_of((2, 2, 0))] = math.sqrt(1 / 3)
    s = pure_state((3, 3, 2), amps)
    res = measure_sites(s, [2])
    probs = {levels[0]: p for levels, p, _ in res}
    assert abs(probs[0] - 2 / 3) < 1e-12
    assert abs(probs[1] - 1 / 3) < 1e-12


def test_measure_probabilities_sum_to_one(rng):
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = pure_state((3, 2, 2), v / np.linalg.norm(v))
    res = measure_sites(s, [0, 2])
    assert abs(sum(p for _, p, _ in res) - 1.0) < 1e-9
    for _, p, post in res:
        assert abs(np.linalg.norm(post.array) - 1.0) < 1e-9


def test_measure_sampling_matches_enumeration(rng):
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    s = pure_state((3, 2), v / np.linalg.norm(v))
    enum = {levels: p for levels, p, _ in measure_sites(s, [0, 1])}
    n = 100_000
    counts = {k: 0 for k in enum}
    for _ in range(n):
        levels, _, _ = measure_sites(s, [0, 1], rng)
        counts[levels] += 1
    for levels, p in enum.items():
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[levels] / n - p) < 4 * sigma + 1e-12


def test_measure_density_input():
    rho = to_density(bell_pair())
    res = measure_sites(rho, [0])
    assert len(res) == 2
    for levels, p, post in res:
        assert abs(p - 0.5) < 1e-12
        assert post.is_density
        assert abs(np.trace(post.array) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# partial trace and fidelity


def test_partial_trace_product_state():
    s = basis_state((2, 3), (1, 2))
    red = partial_trace(s, [1])
    ref = np.zeros((3, 3))
    ref[2, 2] = 1.0
    np.testing.assert_allclose(red.array, ref, atol=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    red = partial_trace(bell_pair(), [0])
    np.testing.assert_allclose(red.array, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_codeword_reduction():
    # (|022>+|202>+|220>)/sqrt(3) reduced over site 0:
    # (1/3)|22><22| + (2/3)|beta><beta|, beta = (|02>+|20>)/sqrt(2)
    rx = RadixVector((3, 3, 3))
    amps = np.zeros(27, dtype=complex)
    for levels in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
        amps[rx.index_of(levels)] = 1 / math.sqrt(3)
    red = partial_trace(pure_state((3, 3, 3), amps), [1, 2])
    beta = np.zeros(9, dtype=complex)
    beta[RadixVector((3, 3)).index_of((0, 2))] = 1 / math.sqrt(2)
    beta[RadixVector((3, 3)).index_of((2, 0))] = 1 / math.sqrt(2)
    bot = np.zeros(9, dtype=complex)
    bot[RadixVector((3, 3)).index_of((2, 2))] = 1.0
    ref = np.outer(bot, bot.conj()) / 3 + 2 * np.outer(beta, beta.conj()) / 3
    np.testing.assert_allclose(red.array, ref, atol=1e-12)
    assert abs(fidelity(red, pure_state((3, 3), beta)) - 2 / 3) < 1e-9


def test_partial_trace_requires_kept_site():
    with pytest.raises(ValueError):
        partial_trace(bell_pair(), [])


def test_fidelity_self_and_orthogonal():
    s0 = basis_state((3,), (0,))
    s1 = basis_state((3,), (1,))
    assert abs(fidelity(s0, s0) - 1.0) < 1e-12
    assert fidelity(s0, s1) < 1e-12


def test_fidelity_radix_mismatch():
    with pytest.raises(ValueError):
        fidelity(basis_state((2,), (0,)), basis_state((3,), (0,)))


# ---------------------------------------------------------------------------
# invariants


def _random_gate(rng, dims):
    dim = math.prod(dims)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return GateSpec(q, dims)


def test_norm_preservation_random_circuits(rng):
    dims = (2, 3, 2, 3, 2)
    for _ in range(100):
        v = rng.normal(size=math.prod(dims)) + 1j * rng.normal(size=math.prod(dims))
        s = pure_state(dims, v / np.linalg.norm(v))
        for _ in range(6):
            k = int(rng.integers(1, 3))
            sites = tuple(rng.choice(len(dims), size=k, replace=False))
            s = apply_unitary(s, _random_gate(rng, tuple(dims[i] for i in sites)), sites)
        assert abs(np.linalg.norm(s.array) - 1.0) < 1e-9


def test_trace_preservation_random_channels(rng):
    s = to_density(basis_state((2, 2, 2), (0, 1, 0)))
    for _ in range(20):
        p = float(rng.uniform(0, 1))
        sites = tuple(rng.choice(3, size=2, replace=False))
        s = apply_channel(s, depolarizing_channel(2, 2, p), sites)
        assert abs(np.trace(s.array) - 1.0) < 1e-9
    assert s.min_eigenvalue() > -1e-9


def test_gate_site_permutation_consistency(rng):
    dims = (2, 3, 3)
    v = rng.normal(size=18) + 1j * rng.normal(size=18)
    s = pure_state(dims, v / np.linalg.norm(v))
    g = _random_gate(rng, (3, 3))
    a = apply_unitary(s, g, [1, 2])
    b = apply_unitary(s, permute_gate_sites(g, (1, 0)), [2, 1])
    np.testing.assert_allclose(a.array, b.array, atol=1e-10)


def test_permute_sites_roundtrip(rng):
    dims = (2, 3, 2)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = pure_state(dims, v / np.linalg.norm(v))
    p = permute_sites(s, (2, 0, 1))
    assert p.radix.dims == (2, 2, 3)
    back = permute_sites(p, (1, 2, 0))
    np.testing.assert_allclose(back.array, s.array, atol=1e-12)


def test_embed_unitary_fixes_upper_levels():
    e = embed_unitary(H, 3)
    np.testing.assert_allclose(e[2], [0, 0, 1], atol=1e-12)
    GateSpec(e, (3,))  # still unitary


def test_dump_format():
    s = basis_state((3, 2), (1, 1))
    assert dump_state(s) == "3\t11\t1\t0"
    lines = dump_state(bell_pair()).splitlines()
    assert [ln.split("\t")[0] for ln in lines] == ["0", "3"]
    with pytest.raises(ValueError):
        dump_state(to_density(bell_pair()))

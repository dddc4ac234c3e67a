import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daqec import mixed_radix_sim as mrs
from daqec.mixed_radix_sim import (
    AMP_EPS,
    GateSpec,
    MixedRadixState,
    RadixVector,
    apply_permutations,
    apply_unitary,
    basis_map_gate,
    basis_state,
    basis_sum_state,
    embed_unitary,
    fidelity,
    append_sites,
    measure_sites,
    partial_trace,
    project_sites,
    support_matrix,
)

from dense_oracle import (
    dense,
    dense_apply_unitary,
    dense_fidelity,
    dense_measure_sites,
    dense_partial_trace,
    dense_project_site,
    digits_local,
    pure_state,
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
    assert dense(s)[0] == 1.0 and np.count_nonzero(dense(s)) == 1
    assert s.index.tolist() == [0] and s.array.tolist() == [1.0]


def test_basis_state_all_flag_qutrits():
    s = basis_state((3, 3, 3), (2, 2, 2))
    assert dense(s)[26] == 1.0  # 2*9 + 2*3 + 2


def test_basis_state_mixed_radix_index():
    # direct tensor construction: site 0 is the most significant digit,
    # so (1,1) in radix (3,2) lands at index 1*2 + 1 = 3
    s = basis_state((3, 2), (1, 1))
    ref = np.kron([0, 1, 0], [0, 1])
    assert np.array_equal(np.nonzero(dense(s))[0], np.nonzero(ref)[0])
    assert np.nonzero(dense(s))[0][0] == 3


def test_basis_state_level_out_of_range():
    with pytest.raises(ValueError):
        basis_state((2, 3), (2, 0))


def test_dimension_cap():
    # an index must fit in int64: 3^39 < 2^63 < 3^40
    s = basis_state((3,) * 39, (2,) * 39)
    assert s.index.tolist() == [3**39 - 1]
    with pytest.raises(ValueError, match="int64"):
        basis_state((3,) * 40, (0,) * 40)


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        basis_sum_state((2,), [((0,), 1.0), ((1,), 1.0)])


def test_basis_sum_state_adds_repeated_terms():
    s = basis_sum_state((3, 2), [((2, 1), 0.6), ((0, 0), 0.5j), ((0, 0), 0.3j)])
    ref = np.zeros(6, dtype=complex)
    ref[5], ref[0] = 0.6, 0.8j
    np.testing.assert_allclose(dense(s), ref, atol=1e-15)
    with pytest.raises(ValueError):  # the sum must be normalized
        basis_sum_state((2,), [((0,), 0.6), ((0,), 0.6)])
    # terms that cancel leave the support
    s = basis_sum_state((2, 2), [((1, 1), 1.0), ((0, 1), 0.5), ((0, 1), -0.5)])
    assert s.index.tolist() == [3]


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


def test_radix_vector_index_roundtrip():
    radix = RadixVector((3, 2, 4))
    for index in range(radix.total_dim):
        assert radix.index_of(radix.levels_of(index)) == index
    assert radix.levels_of(radix.index_of((2, 0, 3))) == (2, 0, 3)
    with pytest.raises(ValueError):  # one level per site
        radix.index_of((1, 1))


_HALF = np.array([1.0, 1.0]) / math.sqrt(2)


@pytest.mark.parametrize("index, amps, match", [
    (np.array([0.0, 3.0]), _HALF, "1-D int64"),                      # float indices
    (np.array([0, 3], dtype=np.int32), _HALF, "1-D int64"),          # a narrower integer
    ([0, 3], _HALF, "1-D int64"),                                    # not an array
    (np.array([[0, 3]], dtype=np.int64), _HALF[None], "1-D int64"),  # not 1-D
    (np.array([3, 0], dtype=np.int64), _HALF, "increase strictly"),  # descending
    (np.array([3, 3], dtype=np.int64), _HALF, "increase strictly"),  # repeated
    (np.array([-1, 3], dtype=np.int64), _HALF, "increase strictly"),  # below the register
    (np.array([0, 4], dtype=np.int64), _HALF, "increase strictly"),  # above the register
    (np.array([0, 3], dtype=np.int64), np.array([1.0]), "indices but"),
    (np.array([0, 1, 3], dtype=np.int64), np.array([0.6, 0.8, 0.0, 0.0]), "indices but"),
    (np.array([0, 3], dtype=np.int64), np.array([1.0, 1.0]), "normalized"),
])
def test_state_invariants_are_checked(index, amps, match):
    with pytest.raises(ValueError, match=match):
        MixedRadixState(RadixVector((2, 2)), index, amps)


# each check is written to fail on NaN, which compares false with everything


def test_state_refuses_a_nan_amplitude():
    with pytest.raises(ValueError, match="not normalized"):
        MixedRadixState(RadixVector((2,)), np.array([0]), np.array([np.nan]))


def test_gate_refuses_a_nan_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        GateSpec(np.full((2, 2), np.nan), (2,))


def test_basis_sum_state_refuses_a_nan_amplitude():
    with pytest.raises(ValueError, match="amplitudes not normalized"):
        basis_sum_state((2,), [((0,), np.nan)])


def test_project_sites_refuses_a_nan_weight():
    state = basis_state((2, 2), (0, 1))
    state.array[:] = np.nan  # a state gone bad after its checks
    with pytest.raises(ValueError, match="not disentangled"):
        project_sites(state, [0], [0])


def test_state_accepts_its_invariants():
    s = MixedRadixState(RadixVector((2, 2)), np.array([0, 3], dtype=np.int64), _HALF)
    assert s.array.dtype == complex and s.index.tolist() == [0, 3]
    # the register dimension must stay below 2^63, whatever the support
    with pytest.raises(ValueError, match="int64"):
        MixedRadixState(RadixVector((2,) * 63), np.array([0], dtype=np.int64), [1.0])
    top = MixedRadixState(RadixVector((2,) * 61 + (3,)), np.array([3 * 2**61 - 1]), [1.0])
    assert top.radix.levels_of(int(top.index[0])) == (1,) * 61 + (2,)


# ---------------------------------------------------------------------------
# unitaries


def test_apply_identity():
    s = bell_pair()
    out = apply_unitary(s, GateSpec(np.eye(4), (2, 2)), [0, 1])
    np.testing.assert_allclose(dense(out), dense(s), atol=1e-12)


def test_u02_involution():
    g = GateSpec(U02, (3,))
    s = basis_state((3,), (2,))
    once = apply_unitary(s, g, [0])
    np.testing.assert_allclose(dense(once), [1, 0, 0], atol=1e-12)
    twice = apply_unitary(once, g, [0])
    np.testing.assert_allclose(dense(twice), dense(s), atol=1e-12)


def test_hadamard_on_zero():
    s = apply_unitary(basis_state((2,), (0,)), GateSpec(H, (2,)), [0])
    np.testing.assert_allclose(dense(s), [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_unitary(basis_state((3, 2), (0, 0)), GateSpec(H, (2,)), [0])


def test_apply_unitary_duplicate_sites():
    with pytest.raises(ValueError):
        apply_unitary(bell_pair(), GateSpec(np.eye(4), (2, 2)), [1, 1])


def test_apply_unitary_site_count_mismatch():
    swap = basis_map_gate((3, 3), lambda x: (x[1], x[0]))
    with pytest.raises(ValueError, match="gate acts on 2 sites, 1 given"):
        apply_unitary(basis_state((3, 3), (0, 1)), swap, [0])


def test_gate_site_permutation_consistency(rng):
    # a gate on sites [1, 2] is the gate with its two sites swapped on [2, 1]
    dims = (2, 3, 3)
    v = rng.normal(size=18) + 1j * rng.normal(size=18)
    s = pure_state(dims, v / np.linalg.norm(v))
    g = _random_gate(rng, (3, 3))
    swapped = np.transpose(g.matrix.reshape(3, 3, 3, 3), (1, 0, 3, 2)).reshape(9, 9)
    a = apply_unitary(s, g, [1, 2])
    b = apply_unitary(s, GateSpec(swapped, (3, 3)), [2, 1])
    np.testing.assert_allclose(dense(a), dense(b), atol=1e-10)


def test_operations_leave_their_input_unchanged(rng):
    dims = (2, 3, 2)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = pure_state(dims, v / np.linalg.norm(v))
    before = (s.index.copy(), s.array.copy())
    apply_unitary(s, _random_gate(rng, (3, 2)), [1, 2])
    measure_sites(s, [0, 2])
    partial_trace(s, [1])
    assert np.array_equal(s.index, before[0]) and np.array_equal(s.array, before[1])


def test_gate_spec_rejects_non_unitary():
    with pytest.raises(ValueError):
        GateSpec(np.array([[1, 1], [0, 1]], dtype=complex), (2,))


def test_gate_spec_rejects_perm_that_is_not_its_matrix():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for matrix, perm in ((np.eye(2), (1, 0)), (x, (0, 0)), (x, (1, 0, 2))):
        with pytest.raises(ValueError, match="perm"):
            GateSpec(matrix, (2,), perm)
    assert GateSpec(x, (2,), (1, 0)).perm == (1, 0)


def test_apply_permutations_takes_permutation_gates_only():
    s = bell_pair()
    assert np.array_equal(dense(apply_permutations(s, [])), dense(s))
    with pytest.raises(ValueError, match="permutation gates only"):
        apply_permutations(s, [(GateSpec(H, (2,)), (0,))])


# ---------------------------------------------------------------------------
# measurement


def test_measure_deterministic_qubit():
    res = measure_sites(basis_state((2,), (0,)), [0])
    assert len(res) == 1
    levels, p, post = res[0]
    assert levels == (0,) and abs(p - 1.0) < 1e-12


def test_measure_no_sites_is_the_one_empty_outcome():
    s = bell_pair()
    [(levels, p, post)] = measure_sites(s, [])
    assert levels == () and abs(p - 1.0) < 1e-12
    np.testing.assert_allclose(dense(post), dense(s), atol=1e-12)


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
        assert abs(np.linalg.norm(dense(post)) - 1.0) < 1e-9


def test_measure_commutes_with_unitary_on_other_sites(rng):
    dims = (3, 2, 3)
    v = rng.normal(size=18) + 1j * rng.normal(size=18)
    s = pure_state(dims, v / np.linalg.norm(v))
    g = _random_gate(rng, (2, 3))
    first = [(levels, p, apply_unitary(post, g, [1, 2]))
             for levels, p, post in measure_sites(s, [0])]
    second = measure_sites(apply_unitary(s, g, [1, 2]), [0])
    assert [levels for levels, _, _ in first] == [levels for levels, _, _ in second]
    for (_, p, post), (_, q, ref) in zip(first, second):
        assert abs(p - q) < 1e-12
        np.testing.assert_allclose(dense(post), dense(ref), atol=1e-10)


# ---------------------------------------------------------------------------
# partial trace and fidelity


def test_partial_trace_product_state():
    s = basis_state((2, 3), (1, 2))
    red = partial_trace(s, [1])
    ref = np.zeros((3, 3))
    ref[2, 2] = 1.0
    np.testing.assert_allclose(red, ref, atol=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    red = partial_trace(bell_pair(), [0])
    assert isinstance(red, np.ndarray)
    np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-12)


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
    np.testing.assert_allclose(red, ref, atol=1e-12)
    assert abs(np.real(beta.conj() @ red @ beta) - 2 / 3) < 1e-9


def test_partial_trace_requires_kept_site():
    with pytest.raises(ValueError):
        partial_trace(bell_pair(), [])


def test_partial_trace_rejects_out_of_range_site():
    with pytest.raises(ValueError):
        partial_trace(bell_pair(), [2])


def test_partial_trace_is_a_density_matrix(rng):
    dims = (2, 3, 2, 3)
    for keep in ([0], [1, 3], [0, 1, 2], [0, 1, 2, 3]):
        v = rng.normal(size=36) + 1j * rng.normal(size=36)
        red = partial_trace(pure_state(dims, v / np.linalg.norm(v)), keep)
        dim = math.prod(dims[k] for k in keep)
        assert red.shape == (dim, dim)
        np.testing.assert_allclose(red, red.conj().T, atol=1e-12)
        assert abs(np.trace(red) - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(red)) > -1e-12


def test_partial_trace_sorts_and_dedupes_kept_sites(rng):
    dims = (2, 3, 2)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = pure_state(dims, v / np.linalg.norm(v))
    ref = partial_trace(s, [0, 2])
    np.testing.assert_allclose(partial_trace(s, [2, 0]), ref, rtol=0, atol=0)
    np.testing.assert_allclose(partial_trace(s, [2, 0, 2]), ref, rtol=0, atol=0)


def test_partial_trace_diagonal_matches_measurement(rng):
    dims = (3, 2, 3)
    v = rng.normal(size=18) + 1j * rng.normal(size=18)
    s = pure_state(dims, v / np.linalg.norm(v))
    for keep in ([0], [2], [0, 1], [0, 2]):
        diag = np.diag(partial_trace(s, keep)).real
        kept = RadixVector(tuple(dims[k] for k in keep))
        probs = np.zeros(kept.total_dim)
        for levels, p, _ in measure_sites(s, keep):
            probs[kept.index_of(levels)] = p
        np.testing.assert_allclose(diag, probs, rtol=0, atol=1e-12)


def test_fidelity_self_and_orthogonal():
    s0 = basis_state((3,), (0,))
    s1 = basis_state((3,), (1,))
    assert abs(fidelity(s0, s0) - 1.0) < 1e-12
    assert fidelity(s0, s1) < 1e-12


def test_fidelity_radix_mismatch():
    with pytest.raises(ValueError):
        fidelity(basis_state((2,), (0,)), basis_state((3,), (0,)))


def test_fidelity_is_symmetric_overlap_squared(rng):
    dims = (3, 2)
    a, b = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(2))
    sa = pure_state(dims, a / np.linalg.norm(a))
    sb = pure_state(dims, b / np.linalg.norm(b))
    f = fidelity(sa, sb)
    assert abs(f - abs(np.vdot(dense(sa), dense(sb))) ** 2) < 1e-12
    assert abs(fidelity(sb, sa) - f) < 1e-12
    # blind to a global phase
    assert abs(fidelity(pure_state(dims, np.exp(0.7j) * dense(sa)), sb) - f) < 1e-12


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
        assert abs(np.linalg.norm(dense(s)) - 1.0) < 1e-9


def test_embed_unitary_fixes_upper_levels():
    e = embed_unitary(H, 3)
    np.testing.assert_allclose(e[2], [0, 0, 1], atol=1e-12)
    GateSpec(e, (3,))  # still unitary


def test_embed_unitary_rejects_larger_matrix():
    with pytest.raises(ValueError):
        embed_unitary(U02, 2)


# ---------------------------------------------------------------------------
# index-mask oracle: explicit sums over basis indices, digits from levels_of


def _digits(radix):
    return np.array([radix.levels_of(i) for i in range(radix.total_dim)])


def _oracle_measure(state, sites):
    digits = _digits(state.radix)
    weights = np.abs(dense(state)) ** 2
    out = []
    for levels in itertools.product(*(range(state.dims[s]) for s in sites)):
        mask = np.all(digits[:, list(sites)] == levels, axis=1)
        p = float(np.sum(weights[mask]))
        if p > AMP_EPS:
            out.append((levels, p, dense(state) * mask / math.sqrt(p)))
    return out


def _oracle_partial_trace(state, keep):
    keep = sorted(set(keep))
    traced = [s for s in range(state.n_sites) if s not in keep]
    digits = _digits(state.radix)
    kept = RadixVector(tuple(state.dims[s] for s in keep))
    k_idx = [kept.index_of(row) for row in digits[:, keep]]
    rho = np.outer(dense(state), dense(state).conj())
    out = np.zeros((kept.total_dim, kept.total_dim), dtype=complex)
    for i in range(state.radix.total_dim):
        for j in range(state.radix.total_dim):
            if np.array_equal(digits[i, traced], digits[j, traced]):
                out[k_idx[i], k_idx[j]] += rho[i, j]
    return out


@st.composite
def _registers(draw):
    """A random pure state and a random ordered subset of its sites."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = math.prod(dims)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    order = tuple(draw(st.permutations(range(len(dims)))))
    sites = order[:draw(st.integers(0, len(dims)))]
    return pure_state(dims, v / np.linalg.norm(v)), sites


@settings(max_examples=150, deadline=None)
@given(_registers())
def test_site_operations_match_index_mask_oracle(register):
    s, sites = register
    res, ref = measure_sites(s, sites), _oracle_measure(s, sites)
    assert [levels for levels, _, _ in res] == [levels for levels, _, _ in ref]
    for (_, p, post), (_, p_ref, post_ref) in zip(res, ref):
        assert abs(p - p_ref) < 1e-12
        np.testing.assert_allclose(dense(post), post_ref, rtol=0, atol=1e-12)
    if sites:
        np.testing.assert_allclose(partial_trace(s, sites), _oracle_partial_trace(s, sites),
                                   rtol=0, atol=1e-12)


def _oracle_full_matrix(radix, gate, sites):
    """The gate as a matrix on the whole register, entry by entry."""
    digits = _digits(radix)
    local = RadixVector(gate.site_dims)
    rest = [s for s in range(radix.n_sites) if s not in sites]
    out = np.zeros((radix.total_dim, radix.total_dim), dtype=complex)
    for i in range(radix.total_dim):
        for j in range(radix.total_dim):
            if np.array_equal(digits[i, rest], digits[j, rest]):
                out[i, j] = gate.matrix[local.index_of(digits[i, list(sites)]),
                                        local.index_of(digits[j, list(sites)])]
    return out


def _random_permutation_gate(rng, dims):
    local = RadixVector(dims)
    image = rng.permutation(local.total_dim)
    return basis_map_gate(dims, lambda x: local.levels_of(int(image[local.index_of(x)])))


@settings(max_examples=100, deadline=None)
@given(_registers(), st.integers(0, 2**32 - 1), st.booleans())
def test_apply_unitary_matches_full_matrix_oracle(register, seed, permutation):
    s, sites = register
    sites = sites[:3] or (s.n_sites - 1,)
    build = _random_permutation_gate if permutation else _random_gate
    g = build(np.random.default_rng(seed), tuple(s.dims[k] for k in sites))
    np.testing.assert_allclose(dense(apply_unitary(s, g, sites)),
                               _oracle_full_matrix(s.radix, g, sites) @ dense(s),
                               rtol=0, atol=1e-12)



@settings(max_examples=150, deadline=None)
@given(_registers(), st.integers(0, 2**32 - 1))
def test_fidelity_and_partial_trace_match_blas_oracles(register, seed):
    a, sites = register
    rng = np.random.default_rng(seed)
    v = rng.normal(size=a.radix.total_dim) + 1j * rng.normal(size=a.radix.total_dim)
    b = pure_state(a.dims, v / np.linalg.norm(v))
    np.testing.assert_allclose(fidelity(a, b), abs(np.vdot(dense(b), dense(a))) ** 2,
                               rtol=1e-12, atol=0)
    if sites:
        keep = sorted(sites)
        rest = [s for s in range(a.n_sites) if s not in keep]
        rows = np.transpose(dense(a).reshape(a.dims), keep + rest).reshape(
            math.prod(a.dims[s] for s in keep), -1)
        np.testing.assert_allclose(partial_trace(a, keep), rows @ rows.conj().T,
                                   rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the sparse simulator against the dense reference


@st.composite
def _sparse_registers(draw, max_sites=6):
    """A random state of a random mixed-radix register of up to `max_sites`
    sites, on a random support, and a random ordered subset of its sites."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3, 4)), min_size=1, max_size=max_sites)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = math.prod(dims)
    index = np.sort(rng.choice(total, size=draw(st.integers(1, min(total, 64))), replace=False))
    amps = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
    order = tuple(draw(st.permutations(range(len(dims)))))
    sites = order[:draw(st.integers(0, len(dims)))]
    state = MixedRadixState(RadixVector(dims), index.astype(np.int64), amps / np.linalg.norm(amps))
    return state, sites


def _assert_support(state):
    """Indices strictly increasing and no amplitude exactly zero."""
    assert np.all(np.diff(state.index) > 0) and np.all(state.array != 0)


@settings(max_examples=200, deadline=None)
@given(_sparse_registers(), st.integers(0, 2**32 - 1), st.booleans())
def test_apply_unitary_matches_dense_oracle(register, seed, permutation):
    s, sites = register
    sites = sites[:3] or (s.n_sites - 1,)
    build = _random_permutation_gate if permutation else _random_gate
    g = build(np.random.default_rng(seed), tuple(s.dims[k] for k in sites))
    out = apply_unitary(s, g, sites)
    _assert_support(out)
    ref = dense_apply_unitary(dense(s), s.dims, g, sites)
    if permutation:  # a permutation moves amplitudes without arithmetic
        assert np.array_equal(dense(out), ref)
    else:
        np.testing.assert_allclose(dense(out), ref, rtol=1e-12, atol=0)


@settings(max_examples=150, deadline=None)
@given(_sparse_registers(), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_apply_permutations_matches_dense_oracle(register, seed, n_steps):
    s, _ = register
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n_steps):
        sites = tuple(int(k) for k in rng.permutation(s.n_sites)[:rng.integers(1, 4)])
        steps.append((_random_permutation_gate(rng, tuple(s.dims[k] for k in sites)), sites))
    out = apply_permutations(s, steps)
    _assert_support(out)
    ref = dense(s)
    for gate, sites in steps:
        ref = dense_apply_unitary(ref, s.dims, gate, sites)
    assert np.array_equal(dense(out), ref)


@settings(max_examples=200, deadline=None)
@given(_sparse_registers())
def test_measure_sites_matches_dense_oracle(register):
    s, sites = register
    res, ref = measure_sites(s, sites), dense_measure_sites(dense(s), s.dims, sites)
    assert [levels for levels, _, _ in res] == [levels for levels, _, _ in ref]
    for (_, p, post), (_, p_ref, post_ref) in zip(res, ref):
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dense(post), post_ref, rtol=1e-12, atol=0)
        assert post.radix == s.radix


@settings(max_examples=200, deadline=None)
@given(_sparse_registers(), st.integers(0, 2**32 - 1), st.booleans())
def test_partial_trace_and_fidelity_match_dense_oracle(register, seed, same_support):
    a, sites = register
    if sites:
        np.testing.assert_allclose(partial_trace(a, sites),
                                   dense_partial_trace(dense(a), a.dims, sites),
                                   rtol=1e-12, atol=0)
    # a second state of the same register, on a's support or on its own
    rng = np.random.default_rng(seed)
    total = a.radix.total_dim
    index = a.index if same_support else np.sort(
        rng.choice(total, size=rng.integers(1, min(total, 64) + 1), replace=False))
    amps = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
    b = MixedRadixState(a.radix, index.astype(np.int64), amps / np.linalg.norm(amps))
    np.testing.assert_allclose(fidelity(a, b), dense_fidelity(dense(a), dense(b)),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(fidelity(b, a), fidelity(a, b), rtol=1e-12, atol=0)


def test_dense_gate_merges_candidates_and_drops_exact_zeros():
    # H on |+> meets |0> twice and |1> with opposite signs: one amplitude left
    plus = apply_unitary(basis_state((3, 2), (1, 0)), GateSpec(H, (2,)), [1])
    assert plus.index.tolist() == [2, 3]
    back = apply_unitary(plus, GateSpec(H, (2,)), [1])
    assert back.index.tolist() == [2] and abs(back.array[0] - 1.0) < 1e-15


def test_gate_tables_are_sized_by_the_gate():
    # the per-gate tables hold one entry per basis state of the gate's sites,
    # however large the register
    dims = (3,) * 39
    s = basis_state(dims, (2,) * 39)
    swap = basis_map_gate((3, 3), lambda x: (x[1], x[0]))
    out = apply_permutations(apply_unitary(s, _random_gate(np.random.default_rng(0), (3,)), [7]),
                             [(swap, (7, 38))])
    assert out.index.size == 3
    assert mrs._offsets(dims, (7, 38)).size == 9
    assert mrs._moves(dims, (7, 38), swap.perm).size == 9


def test_measure_sites_enumerates_only_occurring_outcomes():
    # sixteen measured qutrits have 3^16 outcomes; a two-entry state has two
    dims = (3,) * 30
    s = basis_sum_state(dims, [((0,) * 30, 0.6), ((1,) * 16 + (2,) * 14, 0.8)])
    res = measure_sites(s, range(16))
    assert [levels for levels, _, _ in res] == [(0,) * 16, (1,) * 16]
    assert [round(p, 12) for _, p, _ in res] == [0.36, 0.64]
    assert all(post.index.size == 1 for _, _, post in res)


def test_builders_check_the_norm_tighter_than_the_state():
    # a builder takes 1e-10, a state 1e-8, so that rounding in gates that pass
    # the 1e-10 unitarity check never refuses a state
    amps = np.array([math.sqrt(1 - 5e-10), 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        basis_sum_state((2,), [((0,), amps[0])])
    assert MixedRadixState(RadixVector((2,)), np.array([0], dtype=np.int64), amps[:1]).index.size == 1
    with pytest.raises(ValueError, match="not normalized"):
        MixedRadixState(RadixVector((2,)), np.array([0], dtype=np.int64), [math.sqrt(1 - 2e-8)])


def test_gate_at_the_unitarity_tolerance_applies_to_a_state():
    # U = I + cJ (J all ones, 9x9) has every entry of U^H U - I equal to
    # 2c + 9c^2 = 0.9e-10, inside the gate's check; on the uniform state of its
    # two sites it lifts |psi|^2 by nine times that, past ATOL_CONSTRUCT
    delta = 0.9e-10
    c = (math.sqrt(4 + 36 * delta) - 2) / 18
    gate = GateSpec(np.eye(9) + c * np.ones((9, 9)), (3, 3))
    state = basis_sum_state((3, 3, 2), [((i, j, 0), 1 / 3) for i in range(3) for j in range(3)])
    out = apply_unitary(state, gate, [0, 1])
    norm2 = float(np.sum(np.abs(out.array) ** 2))
    assert mrs.ATOL_CONSTRUCT < norm2 - 1.0 < mrs.ATOL_STATE


@pytest.mark.parametrize("site", [0, 1, 2])
def test_project_site_copies_once_and_keeps_the_old_bits(site):
    # first, middle and last site of a register: the input is left as it was,
    # and the kept amplitudes are the dense slice renormalised, bit for bit
    dims = (3, 2, 3)
    rest = tuple(d for i, d in enumerate(dims) if i != site)
    rng = np.random.default_rng(site)
    amps = rng.normal(size=rest) + 1j * rng.normal(size=rest)
    psi = np.zeros(dims, dtype=complex)
    at_level = (slice(None),) * site + (1,)
    psi[at_level] = amps / np.linalg.norm(amps) * math.sqrt(1 - 5e-10)  # renormalising moves bits
    flat = psi.reshape(-1)
    index = np.flatnonzero(flat)
    state = MixedRadixState(RadixVector(dims), index, flat[index])
    before = state.index.tobytes() + state.array.tobytes()
    out = project_sites(state, [site], [1])
    assert state.index.tobytes() + state.array.tobytes() == before
    kept = psi[at_level].reshape(-1)
    assert out.radix.dims == rest
    assert dense(out).tobytes() == (kept / math.sqrt(mrs._norm2(kept))).tobytes()
    with pytest.raises(ValueError, match="not disentangled"):
        project_sites(state, [site], [0])


@st.composite
def _states_with_a_fixed_site(draw):
    """A random state on up to 6 mixed-radix sites whose site `site` sits at
    `level` but for a weight of up to 1e-10 at another level."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3, 4)), min_size=2, max_size=6)))
    site = draw(st.integers(0, len(dims) - 1))
    level = draw(st.integers(0, dims[site] - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = RadixVector(dims[:site] + dims[site + 1:])
    kept = np.sort(rng.choice(rest.total_dim, size=rng.integers(1, min(rest.total_dim, 40) + 1),
                              replace=False))
    amps = rng.normal(size=kept.size) + 1j * rng.normal(size=kept.size)
    off = draw(st.floats(0.0, 1e-10))
    psi = np.zeros(dims, dtype=complex)
    np.moveaxis(psi, site, 0)[level].flat[kept] = amps * math.sqrt(1.0 - off) / np.linalg.norm(amps)
    np.moveaxis(psi, site, 0)[(level + 1) % dims[site]].flat[kept[0]] = math.sqrt(off)
    return pure_state(RadixVector(dims), psi.reshape(-1)), site, level


@settings(max_examples=200, deadline=None)
@given(_states_with_a_fixed_site())
def test_project_site_matches_dense_oracle(case):
    state, site, level = case
    out = project_sites(state, [site], [level])
    assert out.radix.dims == state.dims[:site] + state.dims[site + 1:]
    assert np.all(np.diff(out.index) > 0)
    ref = dense_project_site(dense(state), state.dims, site, level)
    np.testing.assert_allclose(dense(out), ref, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="not disentangled"):
        project_sites(state, [site], [(level + 1) % state.dims[site]])


@settings(max_examples=150, deadline=None)
@given(_sparse_registers(), st.integers(0, 2**32 - 1))
def test_project_sites_matches_dense_oracle(register, seed):
    # several sites in any order: fix them at random levels, then drop them
    state, sites = register
    if not sites:  # nothing to drop, as measure_sites and support_matrix accept
        assert project_sites(state, sites, []) is state
        return
    if len(sites) == state.n_sites:
        return
    rng = np.random.default_rng(seed)
    levels = [int(rng.integers(state.dims[s])) for s in sites]
    psi = dense(state).reshape(state.dims).copy()
    for s, level in zip(sites, levels):
        np.moveaxis(psi, s, 0)[np.arange(state.dims[s]) != level] = 0
    if not psi.any():
        return
    flat = psi.reshape(-1) / np.linalg.norm(psi)
    fixed = MixedRadixState(state.radix, np.flatnonzero(flat), flat[np.flatnonzero(flat)])
    out = project_sites(fixed, sites, levels)
    rest = [s for s in range(state.n_sites) if s not in sites]
    assert out.radix.dims == tuple(state.dims[s] for s in rest)
    _assert_support(out)
    ref = psi[tuple(levels[sites.index(s)] if s in sites else slice(None)
                    for s in range(state.n_sites))].reshape(-1)
    np.testing.assert_allclose(dense(out), ref / np.linalg.norm(ref), rtol=1e-12, atol=0)


@settings(max_examples=100, deadline=None)
@given(_sparse_registers(max_sites=3), _sparse_registers(max_sites=3))
def test_append_sites_is_the_kron_product(first, second):
    a, b = first[0], second[0]
    out = append_sites(a, b)
    assert out.radix.dims == a.dims + b.dims
    _assert_support(out)
    # one product per amplitude, rounded as kron's up to a SIMD complex multiply
    np.testing.assert_allclose(dense(out), np.kron(dense(a), dense(b)), rtol=1e-15, atol=0)


@settings(max_examples=150, deadline=None)
@given(_sparse_registers())
def test_support_matrix_is_the_dense_matricization(register):
    # columns over the sites' basis in the given order, rows over the other
    # sites' digit strings that occur: the nonzero rows of the dense reshape
    state, sites = register
    rest = [s for s in range(state.n_sites) if s not in sites]
    cols = math.prod(state.dims[s] for s in sites)
    ref = np.moveaxis(dense(state).reshape(state.dims), rest + list(sites),
                      range(state.n_sites)).reshape(-1, cols)
    rows, matrix = support_matrix(state, sites)
    assert rows.tolist() == np.flatnonzero(np.any(ref != 0, axis=1)).tolist()
    assert np.array_equal(matrix, ref[rows])


# ---------------------------------------------------------------------------
# shared digit tables


@st.composite
def _digit_reads(draw):
    """Indices of a register of 1-12 sites of dimension 2-5, and sites to read:
    any ordered subset, a run of consecutive sites, or a single site."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=12)))
    n = len(dims)
    kind = draw(st.sampled_from(("any", "run", "single")))
    if kind == "any":
        order = draw(st.permutations(range(n)))
        sites = tuple(order[:draw(st.integers(0, n))])
    elif kind == "run":
        first = draw(st.integers(0, n - 1))
        sites = tuple(range(first, draw(st.integers(first + 1, n))))
    else:
        sites = (draw(st.integers(0, n - 1)),)
    total = math.prod(dims)
    index = np.array(draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=20)),
                     dtype=np.int64)
    return dims, sites, index


@settings(max_examples=300, deadline=None)
@given(_digit_reads())
def test_local_digits_match_the_digit_by_digit_oracle(case):
    dims, sites, index = case
    local = mrs._local(index, mrs.radix_of(dims), sites)
    assert local.dtype == np.int64
    assert np.array_equal(local, digits_local(index, dims, sites))


def test_one_radix_per_dims():
    a, b = basis_state((3, 2), (1, 0)), basis_state((3, 2), (2, 1))
    first, second = append_sites(a, b), append_sites(b, a)
    assert first.radix is second.radix is mrs.radix_of((3, 2, 3, 2))
    assert first.radix == RadixVector((3, 2, 3, 2))
    assert project_sites(first, [1], [0]).radix is mrs.radix_of((3, 3, 2))

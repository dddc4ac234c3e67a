import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daqec import experiments
from daqec import mixed_radix_sim as mrs
from daqec import wstate_code as wsc
from daqec.mixed_radix_sim import (
    GateSpec,
    MixedRadixState,
    RadixVector,
    append_sites,
    apply_unitary,
    basis_map_gate,
    basis_state,
    basis_sum_state,
    dump_state,
    embed_unitary,
    fidelity,
    measure_sites,
    partial_trace,
    project_sites,
    pure_state,
)
from daqec.wstate_code import (
    BOT,
    apply_ops,
    codeword_vector,
    controlled_level_not,
    decode_elective,
    decode_measure,
    elective_decoder_ops,
    encode,
    encode_alt,
    ensemble_fidelity,
    erase,
    expected_swaps,
    gate_cswap,
    gate_presence_flag,
    gate_swap,
    gate_u02,
    gate_uenc,
    logical_unitary,
    measure_decoder_ops,
    prepare_w,
    prepare_w2,
    presence_pair,
    scale_w,
    w_state_vector,
)

from dense_oracle import dense, oracle_apply_ops, oracle_apply_unitary

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
H2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
PSI = np.array([0.6, 0.8j])


def psi_at_site(psi, n, site):
    """|2...psi...2> with the logical state at one site, built from its two terms."""
    return basis_sum_state((3,) * n, ((tuple(level if k == site else BOT for k in range(n)),
                                       psi[level]) for level in (0, 1)))


def decoded_site_fidelity(state, site, psi):
    """Overlap of the state's reduced state at `site` with the logical input."""
    v = np.array([psi[0], psi[1], 0.0], dtype=complex)
    return float(np.real(v.conj() @ partial_trace(state, [site]) @ v))


def density_of(branches):
    """Sum of w |v><v| over weighted pure branches."""
    return sum(w * np.outer(dense(v), dense(v).conj()) for w, v in branches)


def branchwise_erase(word, erased):
    """Erasure as measurement: the ensemble that measuring the erased sites
    gives, as (probability, pure state on the survivors) per outcome."""
    erased = sorted(erased)
    return [(prob, project_sites(post, erased, levels))
            for levels, prob, post in measure_sites(word, erased)]


def encode_pair_state(chi) -> MixedRadixState:
    """Directly constructed two-qubit-block codeword for a joint state chi.

    chi is a 4-amplitude vector on the two logical qubits; the codeword is
    (|chi,2,2> + |2,2,chi>)/sqrt(2) with chi occupying two adjacent sites.
    """
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    terms = []
    for k, pair in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        w = chi[k] / math.sqrt(2)
        terms += [(pair + (BOT, BOT), w), ((BOT, BOT) + pair, w)]
    return basis_sum_state((3,) * 4, terms)


def elective_joint(branch, target):
    """A branch as decode_elective holds it before the reset: its ancillas
    appended in |0...0> and elective_decoder_ops applied. Returns (joint, m)."""
    ops, m = elective_decoder_ops(branch.n_sites, target)
    if m:
        branch = append_sites(branch, basis_state((2,) * m, (0,) * m))
    return apply_ops(branch, ops), m


# ---------------------------------------------------------------------------
# circuits that only the tests use: a two-qubit block and a one-ancilla decoder


def gate_subspace(u2, d=3) -> GateSpec:
    """Single-qubit gate embedded in the {|0>,|1>} subspace of a d-level site."""
    return GateSpec(embed_unitary(u2, d), (d,))


@functools.cache
def controlled_pair_not(control_level: int) -> GateSpec:
    """Qutrit-qutrit gate: X on the target's {0,1} subspace iff control at level."""
    return basis_map_gate((3, 3), lambda x: (x[0], 1 - x[1])
                          if x[0] == control_level and x[1] < 2 else x)


def encode_two(psi, phi) -> MixedRadixState:
    """Encode two logical qubits into one four-site block.

    A GHZ-type splitter in the qubit subspace puts the pair pattern in
    superposition over the two halves, then U02 and the per-qubit encoders
    (gate_uenc of psi on the first site of each half, of phi on the second)
    act site by site.
    """
    uenc, venc = gate_uenc(psi), gate_uenc(phi)
    return apply_ops(basis_state((3,) * 4, (0, 0, 0, 0)),
                     [(gate_subspace(H2), (0,)), (controlled_pair_not(1), (0, 1)),
                      (controlled_pair_not(0), (0, 2)), (controlled_pair_not(1), (2, 3))]
                     + [(gate_u02(), (i,)) for i in range(4)]
                     + [(g, (i,)) for i, g in enumerate((uenc, venc, uenc, venc))])


def decode_measure_n2_single_ancilla(state, erased=()) -> wsc.DecodeOutcome:
    """Minimal two-site decoder with a single flag ancilla.

    Only the second survivor is flagged: readout 1 locates the logical
    state there (followed by the conditional swap), readout 0 mixes "it was
    already at the first survivor" with the all-flag erasure branch, so
    failure is not heralded. decode_measure uses two ancillas for n=2
    precisely to recover that herald.
    """
    survivors = erase(state, erased)
    if len(survivors) != 2:
        raise ValueError("this variant is defined for two unerased sites")
    branches = []
    success = 0.0
    for outcome, prob, post in wsc._measure_ancillas(state, survivors, presence_pair(1, 2), 1):
        if outcome == 1:
            success += prob
            post = apply_unitary(post, gate_swap(3), survivors)
            branches.append(wsc.DecodeBranch(1, prob, post, 1))
        else:
            branches.append(wsc.DecodeBranch(0, prob, post, None))
    return wsc.DecodeOutcome(branches, success, 0.0, 1)


# ---------------------------------------------------------------------------
# gates


def test_u02_action():
    out = apply_unitary(basis_state((3,), (2,)), gate_u02(), [0])
    np.testing.assert_allclose(dense(out), [1, 0, 0], atol=1e-12)


def test_uenc_on_basis_one():
    g = gate_uenc([1, 0])
    out = apply_unitary(basis_state((3,), (1,)), g, [0])
    np.testing.assert_allclose(dense(out), [1, 0, 0], atol=1e-12)


def test_uenc_identity_when_psi_is_one():
    g = gate_uenc([0, 1])
    out = apply_unitary(basis_state((3,), (1,)), g, [0])
    np.testing.assert_allclose(dense(out), [0, 1, 0], atol=1e-12)


def test_uenc_superposition_action():
    psi = np.array([1, 1]) / math.sqrt(2)
    out = apply_unitary(basis_state((3,), (1,)), gate_uenc(psi), [0])
    np.testing.assert_allclose(dense(out), [1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-12)


def test_encode_two_matches_the_product_pair_codeword(rng):
    # each half holds psi at its first site and phi at its second
    for _ in range(20):
        psi, phi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
        assert fidelity(encode_two(psi, phi), encode_pair_state(np.kron(psi, phi))) >= 1 - 1e-12


def test_uenc_rejects_unnormalized():
    with pytest.raises(ValueError):
        gate_uenc([1, 1])


def test_encode_rejects_invalid_logical_input():
    with pytest.raises(ValueError):
        encode([1.0, 1.0], 3)
    with pytest.raises(ValueError):
        encode([1.0, 0.0], 1)


def test_encode_refuses_a_nan_logical_input():
    with pytest.raises(ValueError, match="unit norm"):
        encode([np.nan, 0.0], 3)


def test_logical_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        logical_unitary(encode(PSI, 2), np.array([[1, 1], [0, 1]]))


def test_prepare_w2_rejects_bad_dimension():
    with pytest.raises(ValueError):
        prepare_w2(1)


# ---------------------------------------------------------------------------
# presence flags


def test_presence_pair_flag_level_leaves_ancilla():
    s = basis_state((3, 2), (2, 0))
    s = apply_ops(s, presence_pair(0, 1))
    np.testing.assert_allclose(dense(s), dense(basis_state((3, 2), (2, 0))), atol=1e-12)


def test_presence_pair_content_flips_ancilla():
    s = basis_state((3, 2), (0, 0))
    s = apply_ops(s, presence_pair(0, 1))
    np.testing.assert_allclose(dense(s), dense(basis_state((3, 2), (0, 1))), atol=1e-12)


def test_presence_pair_coherent_no_entanglement():
    amps = np.zeros(6, dtype=complex)
    amps[0] = amps[2] = 1 / math.sqrt(2)  # (|0>+|1>) x |0>
    s = pure_state((3, 2), amps)
    s = apply_ops(s, presence_pair(0, 1))
    ref = np.zeros(6, dtype=complex)
    ref[1] = ref[3] = 1 / math.sqrt(2)  # (|0>+|1>) x |1>
    np.testing.assert_allclose(dense(s), ref, atol=1e-12)


# ---------------------------------------------------------------------------
# W preparation


def test_prepare_w2_qubits_is_bell_psi_plus():
    s = prepare_w2(2)
    ref = np.zeros(4, dtype=complex)
    ref[1] = ref[2] = 1 / math.sqrt(2)
    assert abs(fidelity(s, pure_state((2, 2), ref)) - 1.0) < 1e-10


def test_prepare_w2_qutrits():
    s = prepare_w2(3)
    rx = RadixVector((3, 3))
    ref = np.zeros(9, dtype=complex)
    for levels in ((1, 0), (0, 1), (2, 0), (0, 2)):
        ref[rx.index_of(levels)] = 0.5
    assert abs(fidelity(s, pure_state((3, 3), ref)) - 1.0) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_prepare_w2_matches_direct_construction(d):
    assert abs(fidelity(prepare_w2(d), w_state_vector(2, d)) - 1.0) < 1e-10


def test_scale_w_doubles_qubit_w():
    s = scale_w(prepare_w2(2))
    ref = w_state_vector(4, 2)
    assert abs(fidelity(s, ref) - 1.0) < 1e-10
    np.testing.assert_allclose(np.sort(np.abs(dense(s)[np.abs(dense(s)) > 1e-12])),
                               [0.5] * 4, atol=1e-10)


def test_scale_w_qutrits():
    assert abs(fidelity(scale_w(prepare_w2(3)), w_state_vector(4, 3)) - 1.0) < 1e-10


def test_scale_w_ancilla_disentangled():
    # the doubling stage of scale_w, before its ancilla (site 4) is dropped
    joint = wsc._doubling_stage(prepare_w2(3), 0, controlled_level_not(0, 3))
    anc = partial_trace(joint, [4])
    np.testing.assert_allclose(anc, [[1, 0], [0, 0]], atol=1e-9)


def test_scale_w_rejects_non_w_input():
    with pytest.raises(ValueError):
        scale_w(basis_state((2, 2), (0, 0)))


def test_scale_w_refuses_a_nan_input():
    state = prepare_w2(2)
    state.array[:] = np.nan  # a state gone bad after its checks
    with pytest.raises(ValueError, match="not a W state"):
        scale_w(state)


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (8, 2), (2, 3), (4, 3), (8, 3)])
def test_prepare_w_matches_direct(n, d):
    assert abs(fidelity(prepare_w(n, d), w_state_vector(n, d)) - 1.0) < 1e-10


def test_prepare_w_uniform_amplitudes():
    s = prepare_w(8, 2)
    nz = dense(s)[np.abs(dense(s)) > 1e-12]
    np.testing.assert_allclose(np.abs(nz), [1 / math.sqrt(8)] * 8, atol=1e-10)


def test_prepare_w_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        prepare_w(3, 2)


# ---------------------------------------------------------------------------
# encoders


def test_encode_zero_n3():
    s = encode([1, 0], 3)
    rx = RadixVector((3, 3, 3))
    ref = np.zeros(27, dtype=complex)
    for levels in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
        ref[rx.index_of(levels)] = 1 / math.sqrt(3)
    assert abs(fidelity(s, pure_state((3, 3, 3), ref)) - 1.0) < 1e-10


def test_encode_one_n3():
    s = encode([0, 1], 3)
    rx = RadixVector((3, 3, 3))
    ref = np.zeros(27, dtype=complex)
    for levels in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
        ref[rx.index_of(levels)] = 1 / math.sqrt(3)
    assert abs(fidelity(s, pure_state((3, 3, 3), ref)) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_encode_matches_codeword_vector(n):
    psi = np.array([1, 1]) / math.sqrt(2)
    assert abs(fidelity(encode(psi, n), codeword_vector(psi, n)) - 1.0) < 1e-10


def test_encode_two_basis():
    s = encode_two([1, 0], [0, 1])
    rx = RadixVector((3,) * 4)
    ref = np.zeros(rx.total_dim, dtype=complex)
    ref[rx.index_of((0, 1, 2, 2))] = 1 / math.sqrt(2)
    ref[rx.index_of((2, 2, 0, 1))] = 1 / math.sqrt(2)
    assert abs(fidelity(s, pure_state((3,) * 4, ref)) - 1.0) < 1e-10


def test_encode_two_both_zero():
    s = encode_two([1, 0], [1, 0])
    rx = RadixVector((3,) * 4)
    ref = np.zeros(rx.total_dim, dtype=complex)
    ref[rx.index_of((0, 0, 2, 2))] = 1 / math.sqrt(2)
    ref[rx.index_of((2, 2, 0, 0))] = 1 / math.sqrt(2)
    assert abs(fidelity(s, pure_state((3,) * 4, ref)) - 1.0) < 1e-10


def test_encode_two_transversal_cnot_gives_bell_encoding():
    plus = np.array([1, 1]) / math.sqrt(2)
    s = encode_two(plus, [1, 0])
    cnot = controlled_pair_not(1)
    s = apply_unitary(s, cnot, [0, 1])
    s = apply_unitary(s, cnot, [2, 3])
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert abs(fidelity(s, encode_pair_state(bell)) - 1.0) < 1e-9


def test_encode_alt_minimal():
    s = encode_alt([1, 0], 2)
    rx = RadixVector((3, 3))
    ref = np.zeros(9, dtype=complex)
    ref[rx.index_of((0, 2))] = 1 / math.sqrt(2)
    ref[rx.index_of((2, 0))] = 1 / math.sqrt(2)
    assert abs(fidelity(s, pure_state((3, 3), ref)) - 1.0) < 1e-9


@pytest.mark.parametrize("n", [2, 4, 8])
def test_encode_alt_matches_encode(n, rng):
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        assert fidelity(encode_alt(v, n), encode(v, n)) >= 1 - 1e-9


def test_encode_alt_ancillas_end_in_zero():
    # encode_alt's three doubling stages, each ancilla checked before it is dropped
    state = basis_sum_state((3,), [((0,), PSI[0]), ((1,), PSI[1])])
    while state.n_sites < 8:
        state = wsc._doubling_stage(state, BOT, gate_presence_flag())
        anc = state.n_sites - 1
        np.testing.assert_allclose(partial_trace(state, [anc]), [[1, 0], [0, 0]], atol=1e-9)
        state = project_sites(state, [anc], [0])
    assert fidelity(state, encode_alt(PSI, 8)) >= 1 - 1e-12


def test_encode_alt_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        encode_alt(PSI, 3)


# the encoder's W resource state is built once per size and shared


def test_w_resource_is_shared_and_read_only():
    w = wsc._qubit_w_on_qutrits(5)
    assert wsc._qubit_w_on_qutrits(5) is w
    with pytest.raises(ValueError, match="read-only"):
        w.array[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        w.index[0] = 0


@pytest.mark.parametrize("n", range(2, 11))
def test_encode_on_the_shared_resource_matches_a_fresh_one(n, rng):
    psi = _random_unit(rng, 2)
    fresh = apply_ops(wsc._qubit_w_on_qutrits.__wrapped__(n),
                      [(gate_u02(), (i,)) for i in range(n)]
                      + [(gate_uenc(psi), (i,)) for i in range(n)])
    word = encode(psi, n)
    assert np.array_equal(word.index, fresh.index) and np.array_equal(word.array, fresh.array)


@pytest.mark.parametrize("shared, runs", [(True, 9), (False, 77)])
def test_shipped_wstate_verify_prepares_each_w_state_once(shared, runs, tmp_path, monkeypatch):
    # the encoders' three power-of-two resources (n = 2, 4, 8) and the six
    # w-preparation checks; without the memo every encode rebuilds its resource
    wsc._qubit_w_on_qutrits.cache_clear()
    if not shared:
        monkeypatch.setattr(wsc, "_qubit_w_on_qutrits", wsc._qubit_w_on_qutrits.__wrapped__)
    calls = []
    prepare_w = wsc.prepare_w
    monkeypatch.setattr(wsc, "prepare_w", lambda *a: calls.append(a) or prepare_w(*a))
    cfg = experiments.load_config(path=str(CONFIGS / "wstate-verify.yaml"),
                                  overrides={"out": str(tmp_path)})
    assert experiments.execute(cfg) == 0
    assert len(calls) == runs


# ---------------------------------------------------------------------------
# transversal logical gates


def test_logical_identity():
    w = encode(PSI, 3)
    out = logical_unitary(w, np.eye(2))
    np.testing.assert_allclose(dense(out), dense(w), atol=1e-12)


def test_logical_x():
    out = logical_unitary(encode([1, 0], 3), np.array([[0, 1], [1, 0]]))
    assert abs(fidelity(out, encode([0, 1], 3)) - 1.0) < 1e-10


def test_logical_hadamard():
    out = logical_unitary(encode([1, 0], 3), H2)
    plus = np.array([1, 1]) / math.sqrt(2)
    assert abs(fidelity(out, encode(plus, 3)) - 1.0) < 1e-10


def test_transversality_random_unitaries(rng):
    for n in (2, 3, 4):
        for _ in range(34):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(m)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            f = fidelity(logical_unitary(encode(v, n), u), codeword_vector(u @ v, n))
            assert f >= 1 - 1e-9


def test_permutation_invariance(rng):
    for n in (3, 4):
        w = encode(PSI, n)
        perm = tuple(rng.permutation(n))
        permuted = pure_state(w.radix, np.transpose(dense(w).reshape(w.dims), perm).ravel())
        assert abs(fidelity(permuted, codeword_vector(PSI, n)) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# erasure


def test_erase_empty_pattern_is_identity():
    w = encode(PSI, 3)
    assert erase(w, set()) == erase(w) == [0, 1, 2]


def test_erase_one_site_gives_rank_two_mixture():
    w = encode([1, 0], 3)
    pattern = {0}
    assert erase(w, pattern) == [1, 2]
    assert np.linalg.matrix_rank(partial_trace(w, [1, 2]), tol=1e-9) == 2
    beta = np.zeros(9, dtype=complex)
    rx = RadixVector((3, 3))
    beta[rx.index_of((0, 2))] = beta[rx.index_of((2, 0))] = 1 / math.sqrt(2)
    assert abs(ensemble_fidelity(w, pure_state((3, 3), beta), pattern) - 2 / 3) < 1e-9


def test_erase_two_of_three():
    w = encode([1, 0], 3)
    assert erase(w, {1, 2}) == [0]
    np.testing.assert_allclose(np.diag(partial_trace(w, [0])).real, [1 / 3, 0, 2 / 3],
                               atol=1e-10)


def test_erase_all_sites_rejected():
    with pytest.raises(ValueError):
        erase(encode(PSI, 3), {0, 1, 2})


@pytest.mark.parametrize("erased", [{0, 1, 2}, {3}, {-1}, range(3), [2, 1, 0, 0]])
def test_decoders_reject_a_pattern_that_leaves_no_site_or_leaves_the_block(erased):
    word = encode(PSI, 3)
    for use in (erase, decode_measure, lambda s, p: decode_elective(s, 0, p),
                lambda s, p: ensemble_fidelity(s, s, p)):
        with pytest.raises(ValueError, match="every site|outside the block"):
            use(word, erased)


# the erasure of sites 1 and 3 of a 5-site word in every form the calls take;
# each is built afresh per call, so a generator that is read twice comes up empty
ERASURE_FORMS = {
    "set": lambda: {1, 3},
    "repeats": lambda: [3, 1, 3, 1, 1],  # as many entries as sites
    "range": lambda: range(1, 4, 2),
    "generator": lambda: (i for i in (3, 1)),
    "numpy": lambda: np.array([3, 1]),
    "numpy-scalars": lambda: [np.int32(1), np.int64(3)],
}


@pytest.mark.parametrize("form", ERASURE_FORMS)
def test_every_form_of_an_erasure_gives_the_results_of_its_set(form):
    word, make = encode(PSI, 5), ERASURE_FORMS[form]
    reference = psi_at_site(PSI, 3, 0)
    assert erase(word, make()) == [0, 2, 4]
    got_measure, want_measure = decode_measure(word, make()), decode_measure(word, {1, 3})
    assert len(got_measure.branches) == len(want_measure.branches)
    for got, want in zip(got_measure.branches, want_measure.branches):
        assert (got.outcome, got.probability, got.psi_site) == (want.outcome, want.probability,
                                                                want.psi_site)
        assert np.array_equal(got.post_state.index, want.post_state.index)
        assert np.array_equal(got.post_state.array, want.post_state.array)
    (got, m), (want, m_set) = decode_elective(word, 0, make()), decode_elective(word, 0, {1, 3})
    assert m == m_set
    assert np.array_equal(got.index, want.index) and np.array_equal(got.array, want.array)
    assert ensemble_fidelity(want, reference, make()) == ensemble_fidelity(want, reference, {1, 3})
    assert abs(ensemble_fidelity(got, reference, make()) - 3 / 5) < 1e-9


@pytest.mark.parametrize("erased", [
    pytest.param([2.7], id="float"),  # int() would erase site 2
    pytest.param([np.float64(1.0)], id="numpy-float"),
    pytest.param(["1"], id="string"),  # int() would erase site 1
])
def test_an_erased_site_that_is_no_integer_raises(erased):
    word = encode(PSI, 5)
    for use in (erase, decode_measure, lambda s, e: decode_elective(s, 0, e),
                lambda s, e: ensemble_fidelity(s, s, e)):
        with pytest.raises(TypeError):
            use(word, erased)


# ---------------------------------------------------------------------------
# measurement decoder


def test_decode_measure_single_erasure_n3():
    pattern = {0}
    word = encode(PSI, 3)
    out = decode_measure(word, pattern)
    assert abs(out.success_probability - 2 / 3) < 1e-9
    assert abs(out.heralded_failure_probability - 1 / 3) < 1e-9
    assert abs(sum(b.probability for b in out.branches) - 1.0) < 1e-9
    for b in out.branches:
        if b.outcome > 0:  # site 1 is the first survivor
            assert abs(decoded_site_fidelity(b.post_state, 1, PSI) - 1.0) < 1e-9


def test_decode_measure_no_erasure_succeeds():
    out = decode_measure(encode(PSI, 3))
    assert abs(out.success_probability - 1.0) < 1e-9
    assert out.heralded_failure_probability < 1e-12


def test_decode_measure_n7_block_of_8():
    pattern = {7}
    word = encode(PSI, 8)
    out = decode_measure(word, pattern)
    assert out.ancilla_count == 3
    assert abs(out.success_probability - 7 / 8) < 1e-9


def test_decode_measure_single_site():
    pattern = {1}
    word = encode(PSI, 2)
    out = decode_measure(word, pattern)
    assert out.ancilla_count == 1
    assert abs(out.success_probability - 1 / 2) < 1e-9


def test_decode_measure_cnot_budget():
    for n in range(1, 9):
        ops, m = measure_decoder_ops(n)
        cnots = sum(op[0] in (controlled_level_not(0, 3), controlled_level_not(1, 3))
                    for op in ops)
        assert cnots == len(ops)
        assert m == math.ceil(math.log2(n + 1))
        assert cnots <= 2 * n * m


def test_decode_measure_n2_single_ancilla_variant():
    pattern = {0}
    word = encode(PSI, 3)
    out = decode_measure_n2_single_ancilla(word, pattern)
    # readout 1 finds the logical state at the second survivor with probability 1/3
    probs = {b.outcome: b.probability for b in out.branches}
    assert abs(probs[1] - 1 / 3) < 1e-9
    assert abs(probs[0] - 2 / 3) < 1e-9
    # failure is not heralded: the readout-0 branch mixes success and loss;
    # site 1 is the first survivor
    zero = next(b for b in out.branches if b.outcome == 0)
    assert abs(decoded_site_fidelity(zero.post_state, 1, PSI) - 0.5) < 1e-9
    one = next(b for b in out.branches if b.outcome == 1)
    assert abs(decoded_site_fidelity(one.post_state, 1, PSI) - 1.0) < 1e-9
    # overall recovered weight still 2/3
    total = sum(b.probability * decoded_site_fidelity(b.post_state, 1, PSI)
                for b in out.branches)
    assert abs(total - 2 / 3) < 1e-9
    with pytest.raises(ValueError, match="two unerased sites"):
        decode_measure_n2_single_ancilla(word)


def test_decode_measure_outcome_encodes_location():
    # outcome b locates the logical state at survivor b-1 before the swap
    pattern = {3}
    word = encode(PSI, 4)
    out = decode_measure(word, pattern)
    sites = {b.outcome: b.psi_site for b in out.branches if b.outcome > 0}
    assert sites == {1: 0, 2: 1, 3: 2}


# ---------------------------------------------------------------------------
# elective decoder


def test_decode_elective_minimal_case():
    pattern = {2}
    word = encode([1, 0], 3)
    post, ancillas = decode_elective(word, 0, pattern)
    assert ancillas == 1
    np.testing.assert_allclose(np.diag(partial_trace(post, [0])).real, [2 / 3, 0, 1 / 3],
                               atol=1e-9)


def test_decode_elective_n7_target6():
    post, ancillas = decode_elective(encode(PSI, 7), 6)
    assert ancillas == 3
    assert abs(ensemble_fidelity(post, psi_at_site(PSI, 7, 6)) - 1.0) < 1e-9


def test_decode_elective_cswap_budget():
    for n in range(2, 9):
        for target in (0, n - 1):
            ops, rounds = elective_decoder_ops(n, target)
            assert sum(op[0] is gate_cswap(3) for op in ops) == n - 1
            assert rounds == math.ceil(math.log2(n))


def test_decode_elective_matches_measure_decoder():
    for total in range(2, 8):
        for n_e in range(0, min(2, total - 1) + 1):
            n = total - n_e
            pattern = range(n, total)
            state = encode(PSI, total)
            measure_succ = decode_measure(state, pattern).success_probability
            post, _ = decode_elective(state, 0, pattern)
            elective_succ = ensemble_fidelity(post, psi_at_site(PSI, n, 0), pattern)
            assert abs(measure_succ - elective_succ) < 1e-9
            assert abs(measure_succ - n / total) < 1e-9


def test_decode_elective_ancilla_factorization_pure():
    # failure-free case: pre-reset joint is an exact product and the
    # Hadamards return every ancilla to |0>
    for n in (2, 4):
        joint, m = elective_joint(encode(PSI, n), n - 1)
        qudits = list(range(n))
        ancillas = list(range(n, n + m))
        rho_joint = np.outer(dense(joint), dense(joint).conj())
        rho_a = partial_trace(joint, ancillas)
        rho_q = partial_trace(joint, qudits)
        delta = rho_joint - np.kron(rho_q, rho_a)
        trace_norm = float(np.abs(np.linalg.eigvalsh(delta)).sum())
        assert trace_norm < 1e-9
        anc_ref = np.zeros(2**m)
        anc_ref[0] = 1.0
        np.testing.assert_allclose(rho_a, np.outer(anc_ref, anc_ref), atol=1e-9)


def test_decode_elective_factorization_odd_n():
    joint, m = elective_joint(encode(PSI, 3), 0)
    mat = dense(joint).reshape(27, 2**m)
    s = np.linalg.svd(mat, compute_uv=False)
    assert s[1] < 1e-9  # Schmidt rank one across the ancilla cut


def test_decode_elective_reset_after_erasure():
    # with a failure group the explicit reset still returns a clean
    # qutrit-only register of the right weights
    pattern = {3}
    state = encode(PSI, 4)
    post, _ = decode_elective(state, 1, pattern)
    assert isinstance(post, MixedRadixState) and post.radix.dims == (3,) * 4
    assert abs(ensemble_fidelity(post, psi_at_site(PSI, 3, 1), pattern) - 3 / 4) < 1e-9


def test_decode_elective_invalid_target():
    with pytest.raises(ValueError):
        decode_elective(encode(PSI, 3), 5)
    with pytest.raises(ValueError):  # the target counts among the survivors
        decode_elective(encode(PSI, 3), 2, {0})


def test_decode_elective_middle_target_after_erasure():
    pattern = {4}
    state = encode(PSI, 5)
    post, _ = decode_elective(state, 2, pattern)
    assert abs(ensemble_fidelity(post, psi_at_site(PSI, 4, 2), pattern) - 4 / 5) < 1e-9


def test_coherent_flag_superposition_not_mistaken_for_erasure():
    # a pure superposition with the all-flag state is not an erased
    # codeword; the measurement decoder still reads half its weight as
    # heralded failure and splits the rest over the two sites
    cw = dense(encode(PSI, 2))
    bot = np.zeros(9, dtype=complex)
    bot[RadixVector((3, 3)).index_of((2, 2))] = 1.0
    v = (cw + bot) / math.sqrt(2)
    pure = pure_state(RadixVector((3, 3)), v)
    out_pure = decode_measure(pure)
    pp = {b.outcome: b.probability for b in out_pure.branches}
    assert set(pp) == {0, 1, 2}
    for k, expected in ((0, 0.5), (1, 0.25), (2, 0.25)):
        assert abs(pp[k] - expected) < 1e-9
    # the measurement-free decoder cannot disentangle its ancillas from
    # such a state and must say so rather than dropping the coherence
    with pytest.raises(ValueError):
        decode_elective(pure, 0)


def test_decoders_accept_generic_rank_two_mixture():
    # an even mixture of two different codewords, purified: a fourth site
    # carries the mixture's label (level 0 for a, 1 for b) and is erased
    labelled = [dense(append_sites(encode(v, 3), basis_state((3,), (level,))))
                for level, v in enumerate(([1, 0], [0, 1]))]
    word = pure_state((3,) * 4, sum(labelled) / math.sqrt(2))
    pattern = {3}
    out = decode_measure(word, pattern)
    assert abs(out.success_probability - 1.0) < 1e-9
    assert out.heralded_failure_probability < 1e-12
    # each readout carries the right mixed logical content at site 0
    total = sum(b_.probability * decoded_site_fidelity(b_.post_state, 0, [1, 0])
                for b_ in out.branches)
    assert abs(total - 0.5) < 1e-9
    post, _ = decode_elective(word, 0, pattern)
    assert abs(ensemble_fidelity(post, psi_at_site([1, 0], 3, 0), pattern) - 0.5) < 1e-9


def test_decoders_return_one_state_on_the_whole_register():
    pattern = {1, 3}
    state = encode(PSI, 5)
    pair = {0}
    for out, dims in ((decode_measure(state, pattern), (3,) * 5),
                      (decode_measure_n2_single_ancilla(encode(PSI, 3), pair), (3,) * 3)):
        for b in out.branches:
            assert isinstance(b.post_state, MixedRadixState) and b.post_state.radix.dims == dims
    post, _ = decode_elective(state, 1, pattern)
    assert isinstance(post, MixedRadixState) and post.radix.dims == (3,) * 5


@st.composite
def _erased_words(draw):
    """A codeword of 2-6 sites or a random pure qutrit register of 1-5 sites,
    with an erasure set that leaves at least one site."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        word = encode(v / np.linalg.norm(v), n)
    else:
        n = draw(st.integers(1, 5))
        v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
        word = pure_state((3,) * n, v / np.linalg.norm(v))
    return word, draw(st.sets(st.integers(0, n - 1), max_size=n - 1))


@settings(max_examples=100, deadline=None)
@given(_erased_words())
def test_branchwise_erase_matches_partial_trace_oracle(case):
    word, pattern = case
    branches = branchwise_erase(word, pattern)
    survivors = [i for i in range(word.n_sites) if i not in pattern]
    assert erase(word, pattern) == survivors
    dims = (3,) * len(survivors)
    assert all(v.radix.dims == dims for _, v in branches)
    # measure_sites drops outcomes of probability <= 1e-12
    rho = density_of(branches)
    np.testing.assert_allclose(rho, partial_trace(word, survivors), rtol=0, atol=1e-10)
    with pytest.raises(ValueError):  # a state is an amplitude vector, never a density
        pure_state(RadixVector(dims), rho)


# ---------------------------------------------------------------------------
# swap accounting


def test_expected_swaps_values():
    assert abs(expected_swaps(2) - 0.5) < 1e-12
    assert expected_swaps(1) == 0.0
    assert abs(expected_swaps(7) - 6 / 7) < 1e-12
    assert all(expected_swaps(n) < 1.0 for n in range(1, 50))


# ---------------------------------------------------------------------------
# decoder exactness sweep (module-level invariant)


def test_success_probability_exact_sweep():
    for total in range(2, 9):
        word = encode(PSI, total)
        for n_e in range(0, min(3, total - 1) + 1):
            pattern = range(total - n_e, total)
            out = decode_measure(word, pattern)
            assert abs(out.success_probability - (total - n_e) / total) < 1e-9


def test_erasure_pattern_position_does_not_matter():
    word = encode(PSI, 5)
    for pattern in ({0}, {2}, {4}, {0, 3}):
        out = decode_measure(word, pattern)
        expected = (5 - len(pattern)) / 5
        assert abs(out.success_probability - expected) < 1e-9


# ---------------------------------------------------------------------------
# fused permutation runs against the gate-by-gate oracle


# what the cached permutation builders give
PERMUTATION_GATES = (gate_u02(), controlled_level_not(1, 3), controlled_level_not(1, 2),
                     gate_presence_flag(), controlled_level_not(0, 2), controlled_level_not(0, 3),
                     gate_cswap(2), gate_cswap(3), gate_swap(2), gate_swap(3),
                     controlled_pair_not(0), controlled_pair_not(1))


def test_gate_ops_compare_and_hash():
    ops, _ = measure_decoder_ops(3)
    op = ops[0]
    assert op == op and hash(op) == hash(op) and op[0] == op[0]
    assert len({op, op}) == 1
    # the gates are shared, so the ops of two calls are equal
    assert measure_decoder_ops(3)[0] == ops
    assert len(set(ops)) == len(ops)
    # one gate is one object however it is asked for, so budgets count by identity
    assert {op[0] for op in ops} == {controlled_level_not(0, 3), controlled_level_not(1, 3)}


@pytest.mark.parametrize("build, args", [
    (gate_u02, ()), (controlled_level_not, (1, 3)), (gate_presence_flag, ()),
    (controlled_level_not, (0, 3)), (gate_cswap, (3,)), (gate_swap, (3,)),
    (controlled_pair_not, (0,)), (wsc._gate_x, ())])
def test_cached_gates_are_shared_and_read_only(build, args):
    gate = build(*args)
    assert build(*args) is gate
    with pytest.raises(ValueError, match="read-only"):
        gate.matrix[0, 0] = 0.0
    with pytest.raises(TypeError):
        gate.perm[0] = 1


def _random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@st.composite
def _op_lists(draw):
    """A list of ops from the cached permutation gates, with dense single-site
    gates interleaved, and two registers of different dims that it fits."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            site = draw(st.integers(0, len(dims) - 1))
            q, _ = np.linalg.qr(rng.normal(size=(dims[site],) * 2)
                                + 1j * rng.normal(size=(dims[site],) * 2))
            ops.append((GateSpec(q, (dims[site],)), (site,)))
            continue
        gate = draw(st.sampled_from(PERMUTATION_GATES))
        order = draw(st.permutations(range(len(dims))))
        sites = []
        for d in gate.site_dims:
            free = [s for s in order if dims[s] == d and s not in sites]
            if not free:
                break
            sites.append(free[0])
        else:
            ops.append((gate, tuple(sites)))
    # the second register has one more site, which no op touches
    registers = [dims, dims + (draw(st.sampled_from((2, 3))),)]
    states = [pure_state(r, _random_unit(rng, math.prod(r))) for r in registers]
    return ops, states


@settings(max_examples=150, deadline=None)
@given(_op_lists())
def test_apply_ops_matches_gate_by_gate_oracle_bit_for_bit(case):
    ops, states = case
    for state in states + states:  # the second pass reads the cached gate tables
        out, ref = apply_ops(state, ops), oracle_apply_ops(state, ops)
        assert np.array_equal(out.index, ref.index) and np.array_equal(out.array, ref.array)


def _wstate_verify_csv(out):
    """CSV bytes of a passing wstate-verify run at six sites."""
    cfg = experiments.load_config("wstate-verify", overrides={"out": str(out)})
    cfg.params["max_total_sites"] = 6
    assert experiments.execute(cfg) == 0
    return (out / "wstate-verify.csv").read_bytes()


def test_wstate_verify_csv_is_byte_identical_to_the_gate_by_gate_oracle(tmp_path, monkeypatch):
    shipped = _wstate_verify_csv(tmp_path / "shipped")
    dense_permutations = []

    def dense_apply_unitary(state, gate, sites):
        dense_permutations.append(gate.perm is not None)
        return oracle_apply_unitary(state, gate, sites)

    monkeypatch.setattr(wsc, "apply_unitary", dense_apply_unitary)
    monkeypatch.setattr(wsc, "apply_ops",
                        lambda state, ops: oracle_apply_ops(state, ops, dense_apply_unitary))
    assert _wstate_verify_csv(tmp_path / "oracle") == shipped
    assert sum(dense_permutations) > 1000


def test_wstate_verify_makes_no_blas_contraction(tmp_path, monkeypatch):
    # the W-code path contracts only supports and small ancilla matrices, with
    # numpy's own kernels; a threaded BLAS would leave its workers spinning
    shipped = _wstate_verify_csv(tmp_path / "shipped")

    def refuse(*args, **kwargs):
        raise AssertionError("BLAS contraction on the W-code path")

    for name in ("tensordot", "vdot", "dot"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert _wstate_verify_csv(tmp_path / "guarded") == shipped


# ---------------------------------------------------------------------------
# the elective decoder's ancilla reset against an SVD oracle


def svd_reset_oracle(joint):
    """The reset as a singular value decomposition: the leading left singular
    vector, refused when the second singular value exceeds 1e-7."""
    u, s, _ = np.linalg.svd(joint, full_matrices=False)
    if s.size > 1 and s[1] > 1e-7:
        raise ValueError("ancillas left entangled with the data register")
    return u[:, 0]


def _orthonormal_pair(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
    return q[:, 0], q[:, 1]


@st.composite
def _near_product_joints(draw):
    """c1 |q1>|a1> + c2 |q2>|a2> on n qutrits and m qubit ancillas, with q1 ⟂ q2,
    a1 ⟂ a2: Schmidt coefficients c1 and c2. c2 is zero or log-uniform on
    either side of the 1e-7 threshold, never within a factor of 2 of it."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, min(3, math.floor(n * math.log2(3)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c2 = draw(st.one_of(st.just(0.0), st.floats(-13.0, math.log10(5e-8)).map(lambda e: 10**e),
                        st.floats(math.log10(2e-7), -2.0).map(lambda e: 10**e)))
    q1, q2 = _orthonormal_pair(rng, 3**n)
    a1, a2 = _orthonormal_pair(rng, 2**m)
    c1 = math.sqrt(1.0 - c2**2)
    return c1 * np.outer(q1, a1) + c2 * np.outer(q2, a2), c2


@settings(max_examples=300, deadline=None)
@given(_near_product_joints())
def test_ancilla_reset_matches_svd_oracle(case):
    joint, c2 = case
    try:
        ref = svd_reset_oracle(joint)
    except ValueError:
        assert c2 > 1e-7
        with pytest.raises(ValueError, match="entangled"):
            wsc._reset_ancillas(joint)
        return
    assert c2 < 1e-7
    data = wsc._reset_ancillas(joint)
    assert abs(np.vdot(data, data) - 1.0) < 1e-12
    assert abs(np.vdot(ref, data)) ** 2 >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# the deferred decoders against the branch-wise path: erasure as measurement,
# then each decoder run on every erasure branch on its own


def branchwise_decode_measure(branches):
    """The measurement decoder run per branch and merged by readout: {outcome:
    (probability, survivors' density after the readout, psi_site)}."""
    n = branches[0][1].n_sites
    ops, m = measure_decoder_ops(n)
    ancillas = range(n, n + m)
    readouts = {}
    for weight, branch in branches:
        joint = apply_ops(append_sites(branch, basis_state((2,) * m, (0,) * m)), ops)
        for levels, prob, post in measure_sites(joint, ancillas):
            outcome = RadixVector((2,) * m).index_of(levels)
            post = project_sites(post, ancillas, levels)
            if 1 < outcome <= n:
                post = apply_unitary(post, gate_swap(3), [0, outcome - 1])
            p, rho = readouts.get(outcome, (0.0, 0.0))
            v = dense(post)
            readouts[outcome] = (p + weight * prob, rho + weight * prob * np.outer(v, v.conj()))
    return {k: (p, rho / p, k - 1 if 0 < k <= n else None) for k, (p, rho) in readouts.items()}


def branchwise_decode_elective(branches, target):
    """The elective decoder run per branch, each reset by the SVD oracle:
    (weight, dense data vector on the survivors) per branch."""
    n = branches[0][1].n_sites
    m = elective_decoder_ops(n, target)[1]
    return [(w, svd_reset_oracle(dense(elective_joint(v, target)[0]).reshape(3**n, 2**m)))
            for w, v in branches]


@settings(max_examples=100, deadline=None)
@given(_erased_words(), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_deferred_decoders_match_the_branchwise_oracle(case, target, seed):
    word, pattern = case
    survivors = [i for i in range(word.n_sites) if i not in pattern]
    branches = branchwise_erase(word, pattern)
    n = len(survivors)
    target %= n
    reference = pure_state((3,) * n, _random_unit(np.random.default_rng(seed), 3**n))

    ref = branchwise_decode_measure(branches)
    out = decode_measure(word, pattern)
    assert [b.outcome for b in out.branches] == sorted(ref)
    for b in out.branches:
        prob, rho, site = ref[b.outcome]
        assert b.psi_site == site
        np.testing.assert_allclose(b.probability, prob, rtol=1e-12, atol=0)
        np.testing.assert_allclose(partial_trace(b.post_state, survivors), rho,
                                   rtol=1e-12, atol=1e-15)

    expected = sum(w * fidelity(v, reference) for w, v in branches)
    np.testing.assert_allclose(ensemble_fidelity(word, reference, pattern), expected,
                               rtol=1e-12, atol=0)

    try:
        data = branchwise_decode_elective(branches, target)
    except ValueError:
        with pytest.raises(ValueError, match="entangled"):
            decode_elective(word, target, pattern)
        return
    post, _ = decode_elective(word, target, pattern)
    rho = sum(w * np.outer(v, v.conj()) for w, v in data)
    np.testing.assert_allclose(partial_trace(post, survivors), rho, rtol=1e-12, atol=1e-15)
    expected = sum(w * abs(np.vdot(dense(reference), v)) ** 2 for w, v in data)
    np.testing.assert_allclose(ensemble_fidelity(post, reference, pattern), expected,
                               rtol=1e-12, atol=0)


@settings(max_examples=100, deadline=None)
@given(_erased_words(), st.integers(0, 5))
def test_elective_reset_matches_svd_reset_oracle(case, target):
    # decode_elective resets each digit string of the erased sites from its
    # support; the oracle takes the SVD of the dense (qutrits, ancillas) matrix
    # of each erasure branch. Projected onto the same digits, the decoded word
    # holds that branch's weight and, up to a phase, its reset data vector
    word, pattern = case
    erased = sorted(pattern)
    branches = branchwise_erase(word, pattern)
    target %= branches[0][1].n_sites
    try:
        refs = branchwise_decode_elective(branches, target)
    except ValueError:
        with pytest.raises(ValueError, match="entangled"):
            decode_elective(word, target, pattern)
        return
    post, _ = decode_elective(word, target, pattern)
    assert post.radix.dims == word.radix.dims
    groups = measure_sites(post, erased)
    assert len(groups) == len(refs)
    for (levels, prob, group), (weight, ref) in zip(groups, refs):
        assert abs(prob - weight) <= 1e-12
        data = dense(project_sites(group, erased, levels))
        assert abs(np.vdot(ref, data)) ** 2 >= 1.0 - 1e-12


def test_dump_state_of_a_codeword_is_pinned():
    # one line per amplitude: index, digits, real and imaginary part to 17 digits
    assert dump_state(codeword_vector(PSI, 3)) == "\n".join([
        "8\t022\t0.34641016151377552\t0",
        "17\t122\t0\t0.46188021535170071",
        "20\t202\t0.34641016151377552\t0",
        "23\t212\t0\t0.46188021535170071",
        "24\t220\t0.34641016151377552\t0",
        "25\t221\t0\t0.46188021535170071",
    ])


def test_no_state_densifies_through_erasure_and_decoding(monkeypatch):
    # a 10-site word has 2n = 20 nonzero amplitudes, and encoding, erasing up
    # to 9 sites and both decoders keep every state linear in that. The largest
    # is the elective decoder's joint state: the failure strings (2 per erased
    # site, every survivor flagged) keep the ancillas in |0...0> until the
    # Hadamards of a power-of-two survivor count spread each over all 2^m
    # ancilla states, while the decoded part sits at the target's 2 levels:
    # 4 survivors and 6 erasures give 2 + 12 * 4 = 50 amplitudes
    supports = []
    check = MixedRadixState.__post_init__

    def recording(state):
        check(state)
        supports.append(state.index.size)

    monkeypatch.setattr(MixedRadixState, "__post_init__", recording)
    word = encode(PSI, 10)
    for n_e in range(10):
        pattern = range(10 - n_e, 10)
        assert abs(decode_measure(word, pattern).success_probability - (10 - n_e) / 10) < 1e-9
        post, _ = decode_elective(word, 0, pattern)
        assert abs(ensemble_fidelity(post, psi_at_site(PSI, 10 - n_e, 0), pattern)
                   - (10 - n_e) / 10) < 1e-9
    assert len(supports) > 500  # each decoder builds its states once per word
    assert max(supports) == 50


def test_decoding_the_largest_word_allocates_no_dense_scratch():
    # an array over the erased sites' basis, such as the word's support_matrix
    # against them, would have 3^n_e columns (about 2 GB at 17 erasures); the
    # erasure counts ascend, so such an array fails the bound near 12 erasures
    # (3^12 complex entries are 8.5 MB), long before it grows that large
    word = encode(PSI, 18)
    tracemalloc.start()
    try:
        for n_e in range(18):
            pattern = range(18 - n_e, 18)
            tracemalloc.reset_peak()
            assert abs(decode_measure(word, pattern).success_probability
                       - (18 - n_e) / 18) < 1e-9
            post, _ = decode_elective(word, 0, pattern)
            assert abs(ensemble_fidelity(post, psi_at_site(PSI, 18 - n_e, 0), pattern)
                       - (18 - n_e) / 18) < 1e-9
            assert tracemalloc.get_traced_memory()[1] < 4 * 2**20, n_e
    finally:
        tracemalloc.stop()


def test_perfbench_tracer_observes_the_sparse_states(perfbench_tracer):
    # the benchmark's tracer reads `state.array.nbytes` of each state handed to
    # the simulator's traced functions; this fails in the tests if that breaks
    tr = perfbench_tracer
    word, pattern = encode(PSI, 4), {3}
    with tr.Tracer("t") as t:
        out = decode_measure(word, pattern)
    names = [s[1] for s in t.spans]
    assert "mixed_radix_sim.apply_unitary" in names and "mixed_radix_sim.measure_sites" in names
    # measure_sites sees the word with its ancillas, the largest state of the run
    ops, m = measure_decoder_ops(3)
    largest = wsc._run_decoder(word, [0, 1, 2], ops, m).index.size
    assert largest == 8
    assert t.counters["mixed_radix_sim.max_state_bytes"] == 16 * largest
    assert abs(out.success_probability - 3 / 4) < 1e-9
    assert wsc.measure_sites is mrs.measure_sites  # the tracer put it back

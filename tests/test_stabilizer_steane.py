import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daqec import allocation as alc
from daqec import stabilizer_steane as stn
from daqec.stabilizer_steane import (
    CliffordCircuit,
    MachineLayout,
    NoiseSpec,
    HAMMING_CHECK,
    N_DATA,
    PauliFrame,
    build_ghz_mirror,
    correctable,
    count_remote_gates,
    dqec_layout,
    lqec_layout,
    lookup_decode,
    run_circuit_trials,
    simulate_frames,
    steane_failure_probabilities,
    steane_failure_probabilities_batch,
    steane_failure_probabilities_uniform,
    syndrome,
    syndrome_extraction_circuit,
)


# ---------------------------------------------------------------------------
# sampling oracles: single trials and sampled code-capacity trials that the
# batch engine and the exact evaluators are checked against


def run_circuit_trial(circuit: CliffordCircuit, layout: MachineLayout, noise: NoiseSpec,
                      seed: int):
    """Single trial; returns [(logical_x_flip, logical_z_flip)] per block."""
    rng = np.random.default_rng(seed)
    x_flips, z_flips = run_circuit_trials(circuit, layout, noise, rng, 1)
    return [(bool(x_flips[b, 0]), bool(z_flips[b, 0])) for b in range(len(layout.blocks))]


def code_capacity_batch(layout: MachineLayout, per_processor_rates, rng: np.random.Generator,
                        n_trials: int):
    """Sampled code-capacity trials with perfect extraction.

    Every data qubit independently suffers X, Y, or Z (uniformly, total
    probability = its processor's rate); each block is lookup-decoded.
    Returns a boolean success array of shape (n_blocks, n_trials).
    """
    rates = np.asarray(per_processor_rates, dtype=float)
    if np.any((rates < 0) | (rates > 1)):
        raise ValueError("rates must lie in [0, 1]")
    nb = len(layout.blocks)
    success = np.zeros((nb, n_trials), dtype=bool)
    ht = HAMMING_CHECK.T.astype(np.int64)
    for b, block in enumerate(layout.blocks):
        eps = rates[[layout.qubit_processor[q] for q in block.data]]
        u = rng.random((n_trials, N_DATA))
        kind = rng.integers(0, 3, size=(n_trials, N_DATA))  # 0=X, 1=Y, 2=Z
        hit = u < eps[None, :]
        xbits = hit & (kind != 2)
        zbits = hit & (kind != 0)
        sx = (xbits.astype(np.int64) @ ht) % 2
        sz = (zbits.astype(np.int64) @ ht) % 2
        vx = sx @ np.array([1, 2, 4])
        vz = sz @ np.array([1, 2, 4])
        rows = np.nonzero(vx)[0]
        xbits[rows, vx[rows] - 1] ^= True
        rows = np.nonzero(vz)[0]
        zbits[rows, vz[rows] - 1] ^= True
        xflip = np.bitwise_xor.reduce(xbits, axis=1)
        zflip = np.bitwise_xor.reduce(zbits, axis=1)
        success[b] = ~(xflip | zflip)
    return success


def code_capacity_trial(layout: MachineLayout, per_processor_rates, seed: int):
    """Single sampled code-capacity trial; returns per-block success bools."""
    rng = np.random.default_rng(seed)
    success = code_capacity_batch(layout, per_processor_rates, rng, 1)
    return [bool(success[b, 0]) for b in range(len(layout.blocks))]


# Exact evaluator by pattern sums: enumerate the 2^7 single-type error
# patterns once, decode each, and record which leave a logical flip.
def _flip_table():
    patterns = np.array([[(i >> q) & 1 for q in range(N_DATA)] for i in range(2**N_DATA)],
                        dtype=np.uint8)
    flips = np.zeros(2**N_DATA, dtype=bool)
    for i, e in enumerate(patterns):
        s = int(((HAMMING_CHECK @ e) % 2) @ np.array([1, 2, 4]))
        r = e.copy()
        if s:
            r[s - 1] ^= 1
        flips[i] = bool(r.sum() % 2)
    return patterns, flips


_PATTERNS, _FLIPS = _flip_table()
_XF = _PATTERNS[_FLIPS]  # the 64 patterns whose decode flips the logical operator
# joint digit 2*x + z per qubit for every (x in XF, z in XF) pattern pair
_PAIR_DIGITS = (2 * _XF[:, None, :] + _XF[None, :, :]).reshape(-1, N_DATA)
# weight histograms for the uniform-rate fast path
_CX_W = np.bincount(_PATTERNS.sum(axis=1)[_FLIPS], minlength=N_DATA + 1).astype(float)
_CB_W = np.bincount((_PAIR_DIGITS > 0).sum(axis=1), minlength=N_DATA + 1).astype(float)


def pattern_failure_probabilities_batch(eps_matrix: np.ndarray, chunk: int = 1024) -> dict:
    """Vectorized exact failure probabilities for many rate vectors.

    eps_matrix has shape (m, 7); returns arrays of length m. The marginal
    X (or Z) flip probability sums the 128 bit patterns of that error
    type; the joint term sums the 4096 flip-flip pattern pairs with the
    exact per-qubit joint distribution (Y errors set both bits).
    """
    eps = np.asarray(eps_matrix, dtype=float)
    m = eps.shape[0]
    p_x = np.empty(m)
    p_both = np.empty(m)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        e = eps[lo:hi]
        pxq = 2.0 * e / 3.0  # per-qubit marginal bit-flip probability
        acc = np.ones((hi - lo, _PATTERNS.shape[0]))
        for q in range(N_DATA):
            acc *= np.where(_PATTERNS[None, :, q] == 1, pxq[:, q, None], 1.0 - pxq[:, q, None])
        p_x[lo:hi] = acc @ _FLIPS
        # per-qubit joint (x,z) distribution: digit 2x+z
        q_tbl = np.empty((hi - lo, N_DATA, 4))
        q_tbl[:, :, 0] = 1.0 - e
        q_tbl[:, :, 1] = e / 3.0
        q_tbl[:, :, 2] = e / 3.0
        q_tbl[:, :, 3] = e / 3.0
        accj = np.ones((hi - lo, _PAIR_DIGITS.shape[0]))
        for q in range(N_DATA):
            accj *= q_tbl[:, q, :][:, _PAIR_DIGITS[:, q]]
        p_both[lo:hi] = accj.sum(axis=1)
    p_any = 2.0 * p_x - p_both
    return {"p_x": p_x, "p_z": p_x.copy(), "p_both": p_both, "p_any": p_any}


NO_NOISE = NoiseSpec(0.0, 0.0)


# ---------------------------------------------------------------------------
# layouts


def test_layout_loads_are_thirteen():
    for layout in (lqec_layout(), dqec_layout()):
        loads = np.bincount(layout.qubit_processor)
        assert list(loads) == [13] * 7


def test_lqec_block_is_colocated():
    layout = lqec_layout()
    for i, b in enumerate(layout.blocks):
        assert all(layout.qubit_processor[q] == i for q in b.data + b.ancillas)


def test_dqec_data_follows_transversal_index():
    layout = dqec_layout()
    for b in layout.blocks:
        assert [layout.qubit_processor[q] for q in b.data] == list(range(7))


# ---------------------------------------------------------------------------
# syndromes and decoding


def test_trivial_syndrome():
    layout = lqec_layout()
    frame = PauliFrame.zeros(layout.n_qubits)
    assert syndrome(frame, layout.blocks[0]) == ((0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("q", range(7))
def test_single_x_error_flags_hamming_syndrome(q):
    layout = lqec_layout()
    frame = PauliFrame.zeros(layout.n_qubits)
    frame.x[layout.blocks[0].data[q]] = True
    sx, sz = syndrome(frame, layout.blocks[0])
    assert sx[0] + 2 * sx[1] + 4 * sx[2] == q + 1
    assert sz == (0, 0, 0)


def test_logical_operator_commutes_with_stabilizers():
    layout = lqec_layout()
    frame = PauliFrame.zeros(layout.n_qubits)
    for q in layout.blocks[0].data:
        frame.x[q] = True
    sx, _ = syndrome(frame, layout.blocks[0])
    assert sx == (0, 0, 0)
    _, flips = lookup_decode(frame, layout.blocks[0])
    assert flips == (True, False)  # weight-7 X is the logical operator


@pytest.mark.parametrize("q", range(7))
def test_single_errors_corrected(q):
    layout = lqec_layout()
    for kind in ("x", "z"):
        frame = PauliFrame.zeros(layout.n_qubits)
        getattr(frame, kind)[layout.blocks[0].data[q]] = True
        _, flips = lookup_decode(frame, layout.blocks[0])
        assert flips == (False, False)


def test_weight_two_error_completes_logical():
    layout = lqec_layout()
    frame = PauliFrame.zeros(layout.n_qubits)
    frame.x[layout.blocks[0].data[0]] = True
    frame.x[layout.blocks[0].data[1]] = True
    _, flips = lookup_decode(frame, layout.blocks[0])
    assert flips == (True, False)


def test_decoder_covers_all_syndromes():
    # every 3-bit syndrome value corresponds to a weight-<=1 correction
    layout = lqec_layout()
    block = layout.blocks[0]
    seen = set()
    for q in range(7):
        frame = PauliFrame.zeros(layout.n_qubits)
        frame.x[block.data[q]] = True
        sx, _ = syndrome(frame, block)
        seen.add(sx[0] + 2 * sx[1] + 4 * sx[2])
        corrected, flips = lookup_decode(frame, block)
        assert not corrected.x[list(block.data)].any()
        assert flips == (False, False)
    assert seen == set(range(1, 8))


def test_correctable_predicate():
    assert correctable(0, 1, 3)
    assert correctable(2, 0, 3)
    assert not correctable(1, 1, 3)
    assert correctable(3, 1, 6)
    with pytest.raises(ValueError):
        correctable(-1, 0, 3)


# ---------------------------------------------------------------------------
# frame propagation against dense simulation


def _pauli(x, z):
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    return (X if x else np.eye(2)) @ (Z if z else np.eye(2))


def _proportional(a, b):
    prod = a @ b.conj().T
    lam = prod[0, 0]
    return abs(abs(lam) - 1.0) < 1e-9 and np.allclose(prod, lam * np.eye(prod.shape[0]),
                                                      atol=1e-9)


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=4)))
def test_cnot_conjugation_matches_dense(bits):
    x0, z0, x1, z1 = bits
    layout = MachineLayout("tiny", (), (0, 0), 1)
    circ = CliffordCircuit(2, [("CNOT", 0, 1)])
    frame = PauliFrame(np.array([x0, x1], dtype=bool), np.array([z0, z1], dtype=bool))
    xs, zs, _ = simulate_frames(circ, layout, NO_NOISE, np.random.default_rng(0), 1,
                                initial=frame)
    before = np.kron(_pauli(x0, z0), _pauli(x1, z1))
    cnot = np.eye(4)[[0, 1, 3, 2]]
    after_dense = cnot @ before @ cnot
    after_frame = np.kron(_pauli(xs[0, 0], zs[0, 0]), _pauli(xs[0, 1], zs[0, 1]))
    assert _proportional(after_dense, after_frame)


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=2)))
def test_h_conjugation_matches_dense(bits):
    x0, z0 = bits
    layout = MachineLayout("tiny", (), (0,), 1)
    circ = CliffordCircuit(1, [("H", 0)])
    frame = PauliFrame(np.array([x0], dtype=bool), np.array([z0], dtype=bool))
    xs, zs, _ = simulate_frames(circ, layout, NO_NOISE, np.random.default_rng(0), 1,
                                initial=frame)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    after_dense = h @ _pauli(x0, z0) @ h
    after_frame = _pauli(xs[0, 0], zs[0, 0])
    assert _proportional(after_dense, after_frame)


# ---------------------------------------------------------------------------
# circuits


def test_mirror_layer_count_and_identity_tiling():
    layout = lqec_layout()
    circ = build_ghz_mirror(layout, 12)
    assert circ.two_qubit_layers == 12
    cnots = [op for op in circ.ops if op[0] == "CNOT"]
    assert len(cnots) == 12 * 7
    with pytest.raises(ValueError):  # one block has no CNOT chain to tile
        build_ghz_mirror(lqec_layout(1), 12)


def test_mirror_zero_noise_no_failures():
    layout = lqec_layout()
    circ = build_ghz_mirror(layout, 36)
    rng = np.random.default_rng(5)
    xf, zf = run_circuit_trials(circ, layout, NO_NOISE, rng, 10000)
    assert not xf.any() and not zf.any()


def test_extraction_locality_census():
    lq, dq = lqec_layout(), dqec_layout()
    assert count_remote_gates(syndrome_extraction_circuit(lq.blocks[0], lq), lq) == 0
    for block in dq.blocks:
        circ = syndrome_extraction_circuit(block, dq)
        assert count_remote_gates(circ, dq) >= 18  # at least 3 of 4 CNOTs per generator
        # per generator, at most one of the four CNOTs can touch the
        # ancilla's own processor
        for g in range(6):
            gen_ops = [op for op in circ.ops if op[0] == "CNOT"][4 * g: 4 * g + 4]
            remote = sum(1 for op in gen_ops
                         if dq.qubit_processor[op[1]] != dq.qubit_processor[op[2]])
            assert remote >= 3


@pytest.mark.parametrize("kind,q", [("x", 5), ("x", 0), ("z", 3), ("z", 6)])
def test_injected_error_shows_in_extracted_syndrome(kind, q):
    layout = lqec_layout()
    block = layout.blocks[2]
    frame = PauliFrame.zeros(layout.n_qubits)
    getattr(frame, kind)[block.data[q]] = True
    want_sx, want_sz = syndrome(frame, block)
    circ = CliffordCircuit(layout.n_qubits)
    circ.extend(syndrome_extraction_circuit(block, layout))
    _, _, measured = simulate_frames(circ, layout, NO_NOISE, np.random.default_rng(0),
                                     1, initial=frame)
    got = [int(m[0]) for m in measured]
    # first three readouts are the X-type generators (detect Z errors)
    assert got[:3] == list(want_sz)
    assert got[3:] == list(want_sx)


def test_mirror_census_matches_allocation_count():
    for layout in (lqec_layout(), dqec_layout()):
        depth = 26
        circ = build_ghz_mirror(layout, depth)
        engine_count = count_remote_gates(circ, layout)
        assign = {}
        for i, b in enumerate(layout.blocks):
            for j, q in enumerate(b.data):
                assign[(i, j)] = layout.qubit_processor[q]
        alloc = alc.Allocation(assign, {p: 13 for p in range(7)})
        # re-derive the logical layer sequence the builder tiles
        chain = [(a, a + 1) for a in range(6)]
        segment = chain + chain[::-1]
        layers = [segment[i % len(segment)] for i in range(depth)]
        independent = sum(alc.count_remote_pairs(alloc, a, b, 7) for a, b in layers)
        assert engine_count == independent


def test_run_circuit_trial_deterministic():
    layout = dqec_layout()
    circ = build_ghz_mirror(layout, 24)
    noise = NoiseSpec(2e-4, 2e-3)
    a = run_circuit_trial(circ, layout, noise, seed=123)
    b = run_circuit_trial(circ, layout, noise, seed=123)
    assert a == b
    assert len(a) == 7


def test_noiseless_trial_no_flips():
    layout = lqec_layout()
    circ = build_ghz_mirror(layout, 5)
    assert run_circuit_trial(circ, layout, NO_NOISE, seed=9) == [(False, False)] * 7


# ---------------------------------------------------------------------------
# code capacity


def test_code_capacity_zero_rates_always_succeed():
    layout = lqec_layout()
    assert code_capacity_trial(layout, [0.0] * 7, seed=4) == [True] * 7
    rng = np.random.default_rng(0)
    succ = code_capacity_batch(layout, [0.0] * 7, rng, 500)
    assert succ.all()


def test_code_capacity_uniform_rates_schemes_match(rng):
    rates = [0.02] * 7
    n = 40000
    s_l = code_capacity_batch(lqec_layout(), rates, np.random.default_rng(11), n)
    s_d = code_capacity_batch(dqec_layout(), rates, np.random.default_rng(12), n)
    p_l = 1 - s_l.all(axis=0).mean()
    p_d = 1 - s_d.all(axis=0).mean()
    sigma = math.sqrt(2 * p_l * (1 - p_l) / n)
    assert abs(p_l - p_d) < 5 * sigma


def test_code_capacity_heterogeneous_distributed_wins():
    rates = [0.001, 0.002, 0.005, 0.02, 0.04, 0.06, 0.08]
    exact = steane_failure_probabilities_batch(np.array([rates]))["p_any"][0]
    uni = steane_failure_probabilities_uniform(np.array(rates))["p_any"]
    ler_dist = 1 - (1 - exact) ** 7
    ler_local = 1 - np.prod(1 - uni)
    assert ler_dist < ler_local


def test_exact_evaluator_matches_sampling():
    rates = np.array([0.02, 0.01, 0.03, 0.02, 0.015, 0.025, 0.01])
    exact = steane_failure_probabilities(rates)
    n = 400_000
    succ = code_capacity_batch(dqec_layout(), rates, np.random.default_rng(21), n)
    p_emp = 1 - succ[0].mean()  # distributed block 0 sees exactly `rates`
    sigma = math.sqrt(exact["p_any"] * (1 - exact["p_any"]) / n)
    assert abs(p_emp - exact["p_any"]) < 4 * sigma


def test_uniform_evaluator_matches_general():
    for eps in (1e-6, 1e-4, 0.005, 0.02, 0.08, 0.5):
        u = steane_failure_probabilities_uniform(np.array([eps]))
        g = steane_failure_probabilities(np.full(7, eps))
        assert abs(u["p_any"][0] - g["p_any"]) <= 1e-12 * g["p_any"]
        assert abs(u["p_x"][0] - g["p_x"]) <= 1e-12 * g["p_x"]


def _assert_matches_oracle(eps):
    got = steane_failure_probabilities_batch(eps)
    want = pattern_failure_probabilities_batch(eps)
    for key in ("p_x", "p_both", "p_any"):
        # an exact zero (fewer than two qubits can err) must come out exactly zero
        np.testing.assert_array_less(np.abs(got[key] - want[key]),
                                     1e-12 * want[key] + np.finfo(float).tiny, err_msg=key)


# rates log-uniform over the Monte Carlo range, plus exact zeros and the
# large rates up to 1 that rate_clip_max admits
RATES = st.one_of(st.floats(math.log(1e-6), math.log(0.5)).map(math.exp),
                  st.just(0.0), st.floats(0.5, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(RATES, min_size=N_DATA, max_size=N_DATA), min_size=1, max_size=8))
def test_transfer_evaluator_matches_pattern_oracle(vectors):
    _assert_matches_oracle(np.array(vectors))


def test_transfer_evaluator_matches_pattern_oracle_across_blocks():
    # more vectors than one transfer block, with a ragged last block
    rng = np.random.default_rng(5)
    eps = np.exp(rng.uniform(math.log(1e-6), math.log(0.5), size=(2 * stn._BLOCK + 37, N_DATA)))
    _assert_matches_oracle(eps)
    assert steane_failure_probabilities_batch(np.empty((0, N_DATA)))["p_any"].shape == (0,)


def test_uniform_weight_tables_match_pattern_enumeration():
    assert np.array_equal(stn._CX_W, _CX_W) and stn._CX_W.dtype == _CX_W.dtype
    assert np.array_equal(stn._CB_W, _CB_W) and stn._CB_W.dtype == _CB_W.dtype


def test_exact_evaluator_weight_two_leading_order():
    # every weight-2 bit-flip pattern completes a logical flip, so
    # p_x = 21 p^2 (1-p)^5 + 7 p^3 + ... = 21 p^2 - 98 p^3 + O(p^4)
    eps = 1e-4
    p = 2 * eps / 3
    got = steane_failure_probabilities(np.full(7, eps))["p_x"]
    assert abs(got - (21 * p**2 - 98 * p**3)) < 1000 * p**4


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseSpec(0.0, 1.2)

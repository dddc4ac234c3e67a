import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from daqec import allocation as alc
from daqec import stabilizer_steane as stn
from daqec.stabilizer_steane import (
    CliffordCircuit,
    GENERATOR_SUPPORTS,
    MachineLayout,
    NoiseSpec,
    HAMMING_CHECK,
    N_DATA,
    PauliFrame,
    SteaneBlock,
    build_ghz_mirror,
    dqec_layout,
    lqec_layout,
    run_circuit_trials,
    simulate_frames,
    steane_failure_probabilities,
    steane_failure_probabilities_batch,
    steane_failure_probabilities_uniform,
    syndrome_extraction_circuit,
    unpack_trials,
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


# ---------------------------------------------------------------------------
# syndromes and lookup decoding of single frames; the package decodes by the
# flip rule of run_circuit_trials and has no other caller for these


def syndrome(frame: PauliFrame, block: SteaneBlock):
    """(X-error syndrome, Z-error syndrome), three bits each.

    The X-error syndrome is what the Z-type generators would flag, and
    vice versa.
    """
    data = np.array(block.data)
    sx = tuple(int(np.bitwise_xor.reduce(frame.x[data[list(sup)]])) for sup in GENERATOR_SUPPORTS)
    sz = tuple(int(np.bitwise_xor.reduce(frame.z[data[list(sup)]])) for sup in GENERATOR_SUPPORTS)
    return sx, sz


def lookup_decode(frame: PauliFrame, block: SteaneBlock):
    """Apply the weight-<=1 correction for each syndrome.

    Returns (corrected frame, (logical_x_flip, logical_z_flip)); the flips
    report whether the residual error anticommutes with logical Z and
    logical X respectively.
    """
    out = frame.copy()
    vx, vz = (bits[0] + 2 * bits[1] + 4 * bits[2] for bits in syndrome(frame, block))
    if vx:
        out.x[block.data[vx - 1]] ^= True
    if vz:
        out.z[block.data[vz - 1]] ^= True
    data = list(block.data)
    logical_x_flip = bool(np.bitwise_xor.reduce(out.x[data]))
    logical_z_flip = bool(np.bitwise_xor.reduce(out.z[data]))
    return out, (logical_x_flip, logical_z_flip)


def correctable(n_e: int, n_pauli: int, d: int) -> bool:
    """Erasure/Pauli mix within distance: n_e + 2*n_pauli <= d - 1."""
    if min(n_e, n_pauli, d) < 0:
        raise ValueError("arguments must be nonnegative")
    return n_e + 2 * n_pauli <= d - 1


def count_remote_gates(circuit: CliffordCircuit, layout: MachineLayout) -> int:
    proc = layout.qubit_processor
    return sum(1 for op in circuit.ops if op[0] == "CNOT" and proc[op[1]] != proc[op[2]])


# ---------------------------------------------------------------------------
# frame-engine oracles: the op-by-op engine on (trials, qubits) bool frames
# that the layered, packed engine replaced, and the exact distribution of
# frames and measurement records of a small register


def reference_simulate_frames(circuit: CliffordCircuit, layout: MachineLayout,
                              noise: NoiseSpec, rng: np.random.Generator, n_trials: int,
                              initial: PauliFrame | None = None):
    """Propagate `n_trials` Pauli frames op by op, drawing noise per gate.

    Returns (x, z, measured) with x/z of shape (n_trials, n_qubits) and
    measured a list of per-trial bool arrays in op order.
    """
    nq = circuit.n_qubits
    proc = layout.qubit_processor
    if initial is None:
        x = np.zeros((n_trials, nq), dtype=bool)
        z = np.zeros((n_trials, nq), dtype=bool)
    else:
        x = np.tile(initial.x, (n_trials, 1))
        z = np.tile(initial.z, (n_trials, 1))
    measured: list[np.ndarray] = []
    for op in circuit.ops:
        tag = op[0]
        if tag == "CNOT":
            c, t = op[1], op[2]
            x[:, t] ^= x[:, c]
            z[:, c] ^= z[:, t]
            p = noise.p_remote if proc[c] != proc[t] else noise.p_local
            if p > 0.0:
                hit = rng.random(n_trials) < p
                rows = np.nonzero(hit)[0]
                if rows.size:
                    pl = rng.integers(1, 16, size=rows.size)
                    x[rows, c] ^= (pl >> 3 & 1).astype(bool)
                    z[rows, c] ^= (pl >> 2 & 1).astype(bool)
                    x[rows, t] ^= (pl >> 1 & 1).astype(bool)
                    z[rows, t] ^= (pl & 1).astype(bool)
        elif tag == "H":
            q = op[1]
            tmp = x[:, q].copy()
            x[:, q] = z[:, q]
            z[:, q] = tmp
        elif tag in ("PREP_Z", "PREP_X"):
            q = op[1]
            x[:, q] = False
            z[:, q] = False
        elif tag == "MEAS_Z":
            measured.append(x[:, op[1]].copy())
        elif tag == "MEAS_X":
            measured.append(z[:, op[1]].copy())
        else:
            raise ValueError(f"unknown op {op}")
    return x, z, measured


def packed_engine(circuit, layout, noise, rng, n_trials, initial=None):
    """simulate_frames with its words unpacked to the reference's layout."""
    x, z, measured = simulate_frames(circuit, layout, noise, rng, n_trials, initial)
    return (unpack_trials(x, n_trials).T, unpack_trials(z, n_trials).T,
            list(unpack_trials(measured, n_trials)))


def exact_frame_distribution(circuit: CliffordCircuit, layout: MachineLayout,
                             noise: NoiseSpec, initial: PauliFrame) -> np.ndarray:
    """Exact distribution over (x frame, z frame, measurement record).

    State bit q is x of qubit q, bit n + q its z, and bit 2n + k the k-th
    measurement. H, a CNOT, PREP and MEAS map states to states; a noisy
    CNOT then keeps 1 - p of each state's mass and moves p/15 along each
    of the 15 two-qubit Paulis on its qubits.
    """
    n = circuit.n_qubits
    n_meas = sum(op[0].startswith("MEAS") for op in circuit.ops)
    s = np.arange(1 << (2 * n + n_meas))
    dist = np.zeros(s.size)
    dist[sum(int(b) << q for q, b in enumerate(np.concatenate((initial.x, initial.z))))] = 1.0
    proc = layout.qubit_processor
    k = 0

    def bit(i):
        return s >> i & 1

    for op in circuit.ops:
        tag, q = op[0], op[1]
        if tag == "CNOT":
            t = op[2]
            image = s ^ (bit(q) << t) ^ (bit(n + t) << (n + q))
        elif tag == "H":
            image = s ^ ((bit(q) ^ bit(n + q)) * ((1 << q) | (1 << (n + q))))
        elif tag in ("PREP_Z", "PREP_X"):
            image = s & ~((1 << q) | (1 << (n + q)))
        else:
            image = s | (bit(q if tag == "MEAS_Z" else n + q) << (2 * n + k))
            k += 1
        dist = np.bincount(image, weights=dist, minlength=s.size)
        if tag == "CNOT":
            p = noise.p_remote if proc[q] != proc[t] else noise.p_local
            masks = [(pl >> 3 & 1) << q | (pl >> 2 & 1) << (n + q) | (pl >> 1 & 1) << t
                     | (pl & 1) << (n + t) for pl in range(1, 16)]
            dist = (1.0 - p) * dist + p / 15.0 * sum(dist[s ^ m] for m in masks)
    return dist


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
    assert xs.shape == zs.shape == (2, 1)  # qubit-major, one word of trials
    xs, zs = unpack_trials(xs, 1), unpack_trials(zs, 1)
    before = np.kron(_pauli(x0, z0), _pauli(x1, z1))
    cnot = np.eye(4)[[0, 1, 3, 2]]
    after_dense = cnot @ before @ cnot
    after_frame = np.kron(_pauli(xs[0, 0], zs[0, 0]), _pauli(xs[1, 0], zs[1, 0]))
    assert _proportional(after_dense, after_frame)


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=2)))
def test_h_conjugation_matches_dense(bits):
    x0, z0 = bits
    layout = MachineLayout("tiny", (), (0,), 1)
    circ = CliffordCircuit(1, [("H", 0)])
    frame = PauliFrame(np.array([x0], dtype=bool), np.array([z0], dtype=bool))
    xs, zs, _ = simulate_frames(circ, layout, NO_NOISE, np.random.default_rng(0), 1,
                                initial=frame)
    xs, zs = unpack_trials(xs, 1), unpack_trials(zs, 1)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    after_dense = h @ _pauli(x0, z0) @ h
    after_frame = _pauli(xs[0, 0], zs[0, 0])
    assert _proportional(after_dense, after_frame)


# ---------------------------------------------------------------------------
# the layered, packed engine against its oracles


@st.composite
def small_circuits(draw, max_qubits: int, max_ops: int, max_meas: int):
    """A random circuit on 2..max_qubits qubits spread over two processors,
    with an initial frame to inject."""
    n = draw(st.integers(2, max_qubits))
    qubit = st.integers(0, n - 1)
    op = st.one_of(
        st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda ct: ("CNOT", *ct)),
        st.tuples(st.sampled_from(["H", "PREP_Z", "PREP_X", "MEAS_Z", "MEAS_X"]), qubit))
    ops = draw(st.lists(op, max_size=max_ops).filter(
        lambda ops: sum(o[0].startswith("MEAS") for o in ops) <= max_meas))
    procs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    bits = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    return (CliffordCircuit(n, ops), MachineLayout("small", (), tuple(procs), 2),
            PauliFrame(draw(bits), draw(bits)))


@settings(max_examples=150, deadline=None)
@given(small_circuits(max_qubits=6, max_ops=24, max_meas=24),
       st.sampled_from([1, 63, 64, 65, 130]))
def test_packed_engine_matches_reference_bit_for_bit_without_noise(case, n_trials):
    circuit, layout, initial = case
    rx, rz, rm = reference_simulate_frames(circuit, layout, NO_NOISE,
                                           np.random.default_rng(0), n_trials, initial)
    x, z, measured = simulate_frames(circuit, layout, NO_NOISE, np.random.default_rng(0),
                                     n_trials, initial)
    words = (n_trials + 63) // 64
    assert x.dtype == z.dtype == measured.dtype == np.uint64
    assert x.shape == z.shape == (circuit.n_qubits, words)
    assert measured.shape == (len(rm), words)
    for got, want in ((x, rx.T), (z, rz.T), (measured, np.reshape(rm, (-1, n_trials)))):
        bits = unpack_trials(got, 64 * words)
        assert np.array_equal(bits[:, :n_trials], want)
        assert not bits[:, n_trials:].any()  # the tail of the last word stays zero


def _outcomes(x, z, measured) -> np.ndarray:
    """Each trial's state index in the layout of exact_frame_distribution."""
    bits = np.concatenate([x, z, np.reshape(measured, (-1, len(x))).T], axis=1)
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[1]))


def _g_test(states: np.ndarray, probs: np.ndarray) -> float:
    """p-value of a G-test of sampled states against exact probabilities.

    States of expected count below 5 are pooled into one bin; a sample of
    a state of probability zero fails outright.
    """
    counts = np.bincount(states, minlength=probs.size)
    assert not counts[probs == 0.0].any(), "sampled an impossible frame or record"
    expected = states.size * probs
    small = expected < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    obs, exp = obs[exp > 0.0], exp[exp > 0.0]
    if obs.size < 2:
        return 1.0
    hit = obs > 0
    g = 2.0 * np.sum(obs[hit] * np.log(obs[hit] / exp[hit]))
    return float(chi2.sf(g, obs.size - 1))


ENGINES = {"packed": packed_engine, "reference": reference_simulate_frames}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=small_circuits(max_qubits=5, max_ops=12, max_meas=5),
       p_local=st.floats(0.0, 0.5), p_remote=st.floats(0.0, 0.5))
def test_sampled_frames_match_exact_distribution(engine, case, p_local, p_remote):
    circuit, layout, initial = case
    noise = NoiseSpec(p_local, p_remote)
    n_trials = 20000
    sampled = _outcomes(*ENGINES[engine](circuit, layout, noise, np.random.default_rng(7),
                                         n_trials, initial))
    probs = exact_frame_distribution(circuit, layout, noise, initial)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert _g_test(sampled, probs) > 1e-6


def test_depolarizer_keeps_drawing_until_each_step_is_covered():
    class EveryPosition:  # unit gaps whatever the rate, every hit kept, always X on the control
        def geometric(self, p, size):
            return np.ones(size, dtype=np.int64)

        def random(self, size):
            return np.zeros(size)

        def integers(self, lo, hi, size):
            return np.full(size, 8)
    a, b = np.array([0, 2, 1]), np.array([1, 3, 0])
    noisy = stn._Depolarizer(EveryPosition(), a, b, np.array([0.5, 0.5, 0.25]), 4, 1000)
    frames = np.zeros((8, 16), dtype=np.uint64)
    np.bitwise_xor.at(frames, *noisy.before(1))
    assert np.array_equal(unpack_trials(frames, 1000).sum(axis=1), [1000, 0, 0, 0, 0, 0, 0, 0])
    np.bitwise_xor.at(frames, *noisy.before(3))  # needs more than one more batch of gaps
    assert np.array_equal(unpack_trials(frames, 1000).sum(axis=1), [1000, 1000, 1000, 0, 0, 0,
                                                                    0, 0])
    assert noisy.before(3)[1].size == 0


def test_depolarizer_at_the_ends_of_the_rate_range():
    rng = np.random.default_rng(3)
    a, b = np.array([0]), np.array([1])
    # every position is hit, each by a nontrivial Pauli on the pair
    frames = np.zeros((4, 2), dtype=np.uint64)
    np.bitwise_xor.at(frames, *stn._Depolarizer(rng, a, b, np.ones(1), 2, 77).before(1))
    assert unpack_trials(frames, 77).any(axis=0).all()
    # a gap too long for int64 ends the hits instead of wrapping around
    (rows, words), bits = stn._Depolarizer(rng, a, b, np.full(1, 5e-324), 2, 10**6).before(1)
    assert rows.size == words.size == bits.size == 0

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
    got = [int(m[0]) for m in unpack_trials(measured, 1)]
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

import dataclasses
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from daqec import experiments
from daqec import stabilizer_steane as stn
from daqec.stabilizer_steane import (
    GENERATOR_SUPPORTS,
    MachineLayout,
    NoiseSpec,
    HAMMING_CHECK,
    N_DATA,
    SteaneBlock,
    build_ghz_mirror,
    compile_circuit,
    compile_mirror,
    dqec_layout,
    lqec_layout,
    run_circuit_trials,
    simulate_frames,
    steane_failure_probabilities_batch,
    steane_failure_probabilities_uniform,
    syndrome_extraction_circuit,
)


@dataclass
class PauliFrame:
    """Accumulated X/Z error bits, one of each per physical qubit."""

    x: np.ndarray
    z: np.ndarray

    @classmethod
    def zeros(cls, n_qubits: int) -> "PauliFrame":
        return cls(np.zeros(n_qubits, dtype=bool), np.zeros(n_qubits, dtype=bool))

    def copy(self) -> "PauliFrame":
        return PauliFrame(self.x.copy(), self.z.copy())


# ---------------------------------------------------------------------------
# sampling oracles: single trials and sampled code-capacity trials that the
# batch engine and the exact evaluators are checked against


def run_circuit_trial(ops: list[tuple], layout: MachineLayout, noise: NoiseSpec, seed: int):
    """Single trial; returns [(logical_x_flip, logical_z_flip)] per block."""
    rng = np.random.default_rng(seed)
    x_flips, z_flips = run_circuit_trials(compiled(ops, layout), layout, noise, rng, 1)
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
# every one of the 4^7 Pauli patterns, as its digit 2x + z per qubit, and the
# patterns that flip X, both and either, counted by support and by weight
_DIGITS = np.array(list(itertools.product(range(4), repeat=N_DATA)))
_BIT = 1 << np.arange(N_DATA)  # pattern index i has qubit q at bit q, as in _PATTERNS
_FX, _FZ = _FLIPS[(_DIGITS >> 1) @ _BIT], _FLIPS[(_DIGITS & 1) @ _BIT]
_ENUM_FLIPS = (_FX, _FX & _FZ, _FX | _FZ)
_SUPPORT_COUNTS = np.array([np.bincount(((_DIGITS > 0) @ _BIT)[f], minlength=2**N_DATA)
                            for f in _ENUM_FLIPS])
_WEIGHT_COUNTS = np.array([np.bincount((_DIGITS > 0).sum(axis=1)[f], minlength=N_DATA + 1)
                           for f in _ENUM_FLIPS])


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


def rational_failure_probabilities_uniform(eps) -> dict:
    """Exact failure probabilities at one shared rate, each rounded once to float.

    Sums the enumerated per-weight counts times (eps/3)^w (1 - eps)^(7 - w)
    in exact rationals; results have the shape of eps, at least 1-D.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    out = np.empty((3,) + eps.shape)
    for i, e in np.ndenumerate(eps):
        e = Fraction(e)
        terms = [(e / 3) ** w * (1 - e) ** (N_DATA - w) for w in range(N_DATA + 1)]
        for k, counts in enumerate(_WEIGHT_COUNTS):
            out[(k,) + i] = float(sum(int(c) * t for c, t in zip(counts, terms)))
    p_x, p_both, p_any = out
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


def count_remote_gates(ops: list[tuple], layout: MachineLayout) -> int:
    proc = layout.qubit_processor
    return sum(1 for op in ops if op[0] == "CNOT" and proc[op[1]] != proc[op[2]])


# ---------------------------------------------------------------------------
# frame-engine oracles: the op-by-op engine on (trials, qubits) bool frames,
# the layered engine on packed frames that propagates every trial's whole
# frame and draws the same noise stream as simulate_frames, and the exact
# distribution of frames and measurement records of a small register


def reference_simulate_frames(ops: list[tuple], layout: MachineLayout,
                              noise: NoiseSpec, rng: np.random.Generator, n_trials: int,
                              initial: PauliFrame | None = None):
    """Propagate `n_trials` Pauli frames through the ops on the layout's
    register op by op, drawing noise per gate.

    Returns (x, z, measured) with x/z of shape (n_trials, n_qubits) and
    measured a list of per-trial bool arrays in op order.
    """
    nq = layout.n_qubits
    proc = layout.qubit_processor
    if initial is None:
        x = np.zeros((n_trials, nq), dtype=bool)
        z = np.zeros((n_trials, nq), dtype=bool)
    else:
        x = np.tile(initial.x, (n_trials, 1))
        z = np.tile(initial.z, (n_trials, 1))
    measured: list[np.ndarray] = []
    for op in ops:
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


class Depolarizer:
    """Depolarizing hits after the CNOTs of a schedule, all drawn at the start.

    Each distinct nonzero rate, in ascending order, draws its own stream:
    position i * n_trials + k stands for the i-th op of that rate in trial
    k, and the positions hit come from cumulative geometric gaps at the
    rate, in batches of at most stn._NOISE_BATCH gaps. A hit takes one of
    the 15 nontrivial two-qubit Paulis uniformly, the bits
    (x_c, z_c, x_t, z_t) of a number in 1..15, and becomes one entry
    (op, frame row, word, bit) per set bit; x rows come first, z rows after.
    The steps take the entries in op order.
    """

    def __init__(self, rng: np.random.Generator, a, b, rate, n_qubits: int, n_trials: int):
        rows = np.stack((a, a + n_qubits, b, b + n_qubits), axis=1)
        op, trial, which = (np.zeros(0, dtype=np.int64),) * 3
        for p in np.unique(rate[rate > 0.0]):  # ascending
            ops = np.flatnonzero(rate == p)
            end, last = ops.size * n_trials, -1  # every hit up to `last` is drawn
            while last < end - 1:
                mean = (end - 1 - last) * p
                size = int(min(mean + 6.0 * math.sqrt(mean) + 16, stn._NOISE_BATCH))
                pos = last + np.cumsum(np.minimum(rng.geometric(p, size), end + 1))
                last = int(pos[-1])
                i, k = np.divmod(pos[:np.searchsorted(pos, end)], n_trials)
                pauli = rng.integers(1, 16, size=i.size)
                hit, bit = np.nonzero(pauli[:, None] >> np.arange(3, -1, -1) & 1)
                op, trial, which = (np.concatenate(pair)
                                    for pair in zip((op, trial, which), (ops[i[hit]], k[hit], bit)))
        order = np.argsort(op, kind="stable")
        op, trial, which = op[order], trial[order], which[order]
        bits = np.left_shift(np.uint64(1), (trial & 63).astype(np.uint64))
        self.pending = (op, rows[op, which], trial >> 6, bits)

    def before(self, stop: int):
        """((rows, words), bits) of the entries at ops before `stop` not yet returned."""
        k = np.searchsorted(self.pending[0], stop)
        _, rows, words, bits = (entry[:k] for entry in self.pending)
        self.pending = tuple(entry[k:] for entry in self.pending)
        return (rows, words), bits


def op_rates(a, b, cnot, layout: MachineLayout, noise: NoiseSpec) -> np.ndarray:
    """Each scheduled op's depolarizing rate: p_remote for a CNOT across
    processors, p_local for one within a processor, 0 for any other op."""
    proc = layout.qubit_processor
    return np.array([(noise.p_remote if proc[c] != proc[t] else noise.p_local) if is_cnot
                     else 0.0 for c, t, is_cnot in zip(a, b, cnot)])


def unpack_trials(words: np.ndarray, n_trials: int) -> np.ndarray:
    """Bools of packed trial words along the last axis; trial k is bit k % 64
    of word k // 64."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")[..., :n_trials].astype(bool)


def layered_simulate_frames(ops: list[tuple], layout: MachineLayout,
                            noise: NoiseSpec, rng: np.random.Generator, n_trials: int,
                            initial: PauliFrame | None = None):
    """Propagate `n_trials` Pauli frames through the ops on the layout's
    register, step by step.

    The ops run in the ASAP steps of stn._schedule on frames packed 64
    trials to a `uint64` word (trial k is bit k % 64 of word k // 64; bits
    past n_trials stay zero). Frames start trivial unless an initial frame
    (broadcast to all trials) is injected. Returns (x, z, measured): x and z
    of shape (n_qubits, words), measured of shape (measurements, words) in
    op order.
    """
    nq, words = layout.n_qubits, (n_trials + 63) // 64
    _, a, b, meas, cnot, starts, ends, kinds = stn._schedule(ops, nq)
    start = PauliFrame.zeros(nq) if initial is None else initial
    ones = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if n_trials % 64:
        ones[-1] = np.uint64((1 << n_trials % 64) - 1)
    # rows 0..nq-1 hold the x frames, rows nq.. the z frames
    frames = np.where(np.concatenate((start.x, start.z)).astype(bool)[:, None], ones,
                      np.uint64(0))
    # a CNOT (c, t) xors the rows (x_c, z_t) into (x_t, z_c); a one-qubit op
    # (b = a) acts on the rows (x_a, z_a)
    src, dst = np.stack((a, b + nq)), np.stack((b, a + nq))
    measured = np.zeros((int(meas.max(initial=-1)) + 1, words), dtype=np.uint64)
    noisy = Depolarizer(rng, a, b, op_rates(a, b, cnot, layout, noise), nq, n_trials)
    for lo, hi, kind in zip(starts, ends, kinds):
        rows = src[:, lo:hi]
        if kind == stn._CNOT:
            frames[dst[:, lo:hi]] ^= frames[rows]
            # unbuffered, because several hits can share a word
            np.bitwise_xor.at(frames, *noisy.before(hi))
        elif kind == stn._H:
            frames[rows] = frames[rows[::-1]]
        elif kind == stn._PREP:
            frames[rows] = 0
        else:
            measured[meas[lo:hi]] = frames[rows[0 if kind == stn._MEAS_Z else 1]]
    return frames[:nq], frames[nq:], measured


def with_extraction(ops: list[tuple], layout: MachineLayout) -> list[tuple]:
    """The ops followed by the extraction of every block, as compile_mirror builds them."""
    return ops + [op for block in layout.blocks for op in syndrome_extraction_circuit(block)]


def compiled(ops: list[tuple], layout: MachineLayout) -> stn.CompiledCircuit:
    """The ops and the extraction of every block, compiled without folding."""
    return compile_circuit(with_extraction(ops, layout), layout)


def layered_circuit_trials(ops: list[tuple], layout: MachineLayout,
                           noise: NoiseSpec, rng: np.random.Generator, n_trials: int):
    """run_circuit_trials on the layered engine, decoding each block by the flip rule.

    Returns (x_flips, z_flips), plus simulate_frames' (x, z, syndromes), all
    of shape (n_blocks, n_trials).
    """
    x, z, measured = layered_simulate_frames(with_extraction(ops, layout), layout, noise,
                                             rng, n_trials)
    nb = len(layout.blocks)
    # (block, generator, word); each block reads its X-type generators first
    syn = measured[len(measured) - 6 * nb:].reshape(nb, 6, -1)
    data = np.array([block.data for block in layout.blocks])
    x_parity = unpack_trials(np.bitwise_xor.reduce(x[data], axis=1), n_trials)
    z_parity = unpack_trials(np.bitwise_xor.reduce(z[data], axis=1), n_trials)
    readouts = unpack_trials(syn, n_trials)  # (block, generator, trial)
    # lookup decoding flips one data qubit iff the syndrome is nonzero;
    # X-type generators flag Z errors, Z-type generators flag X errors
    x_flips = x_parity ^ readouts[:, 3:].any(axis=1)
    z_flips = z_parity ^ readouts[:, :3].any(axis=1)
    syndromes = np.tensordot(readouts, 1 << np.arange(6), axes=(1, 0))
    return (x_flips, z_flips), (x_parity, z_parity, syndromes)


def packed_engine(ops, layout, noise, rng, n_trials, initial=None):
    """layered_simulate_frames with its words unpacked to the reference's layout."""
    x, z, measured = layered_simulate_frames(ops, layout, noise, rng, n_trials, initial)
    return (unpack_trials(x, n_trials).T, unpack_trials(z, n_trials).T,
            list(unpack_trials(measured, n_trials)))


def exact_frame_distribution(ops: list[tuple], layout: MachineLayout,
                             noise: NoiseSpec, initial: PauliFrame) -> np.ndarray:
    """Exact distribution over (x frame, z frame, measurement record) after
    the ops on the layout's register.

    State bit q is x of qubit q, bit n + q its z, and bit 2n + k the k-th
    measurement. H, a CNOT, PREP and MEAS map states to states; a noisy
    CNOT then keeps 1 - p of each state's mass and moves p/15 along each
    of the 15 two-qubit Paulis on its qubits.
    """
    n = layout.n_qubits
    n_meas = sum(op[0].startswith("MEAS") for op in ops)
    s = np.arange(1 << (2 * n + n_meas))
    dist = np.zeros(s.size)
    dist[sum(int(b) << q for q, b in enumerate(np.concatenate((initial.x, initial.z))))] = 1.0
    proc = layout.qubit_processor
    k = 0

    def bit(i):
        return s >> i & 1

    for op in ops:
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
    layout = MachineLayout("tiny", (), (0, 0))
    circ = [("CNOT", 0, 1)]
    frame = PauliFrame(np.array([x0, x1], dtype=bool), np.array([z0, z1], dtype=bool))
    xs, zs, _ = layered_simulate_frames(circ, layout, NO_NOISE, np.random.default_rng(0), 1,
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
    layout = MachineLayout("tiny", (), (0,))
    circ = [("H", 0)]
    frame = PauliFrame(np.array([x0], dtype=bool), np.array([z0], dtype=bool))
    xs, zs, _ = layered_simulate_frames(circ, layout, NO_NOISE, np.random.default_rng(0), 1,
                                        initial=frame)
    xs, zs = unpack_trials(xs, 1), unpack_trials(zs, 1)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    after_dense = h @ _pauli(x0, z0) @ h
    after_frame = _pauli(xs[0, 0], zs[0, 0])
    assert _proportional(after_dense, after_frame)


# ---------------------------------------------------------------------------
# the engines against their oracles


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
    return (ops, MachineLayout("small", (), tuple(procs)),
            PauliFrame(draw(bits), draw(bits)))


@settings(max_examples=150, deadline=None)
@given(small_circuits(max_qubits=6, max_ops=24, max_meas=24),
       st.sampled_from([1, 63, 64, 65, 130]))
def test_packed_engine_matches_reference_bit_for_bit_without_noise(case, n_trials):
    circuit, layout, initial = case
    rx, rz, rm = reference_simulate_frames(circuit, layout, NO_NOISE,
                                           np.random.default_rng(0), n_trials, initial)
    x, z, measured = layered_simulate_frames(circuit, layout, NO_NOISE,
                                             np.random.default_rng(0), n_trials, initial)
    words = (n_trials + 63) // 64
    assert x.dtype == z.dtype == measured.dtype == np.uint64
    assert x.shape == z.shape == (layout.n_qubits, words)
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


class EveryPosition:
    """A stand-in generator: unit gaps whatever the rate, always X on the
    control, and no other draw. It records the rate of every batch of gaps."""

    def __init__(self):
        self.rates = []

    def geometric(self, p, size):
        self.rates.append(p)
        return np.ones(size, dtype=np.int64)

    def integers(self, lo, hi, size):
        return np.full(size, 8)


def _apply_hits(batches, a, b, n_qubits, n_trials):
    """Packed (2 * n_qubits, words) frames of the hits of _depolarizing_hits."""
    rows = np.stack((a, a + n_qubits, b, b + n_qubits), axis=1)
    frames = np.zeros((2 * n_qubits, (n_trials + 63) // 64), dtype=np.uint64)
    for op, trial, pauli in batches:
        # one entry per set bit of the Pauli, x_c (bit 3) first
        hit, which = np.nonzero(pauli[:, None] >> np.arange(3, -1, -1) & 1)
        bits = np.left_shift(np.uint64(1), (trial[hit] & 63).astype(np.uint64))
        np.bitwise_xor.at(frames, (rows[op[hit], which], trial[hit] >> 6), bits)
    return unpack_trials(frames, n_trials)


@pytest.mark.parametrize("rate", [
    [0.25, 0.0, 0.5, 0.25, 0.5, 0.0],  # two classes, interleaved, and noiseless ops
    [0.5, 0.5, 0.5],                   # p_local == p_remote: one class
    [0.0, 0.5, 0.0, 0.0, 0.5],         # p_local == 0
], ids=["two-classes", "p_local-is-p_remote", "p_local-is-0"])
def test_depolarizing_hits_keep_drawing_until_every_op_is_covered(rate):
    rate, n_trials = np.array(rate), 1000
    rng = EveryPosition()
    batches = list(stn._depolarizing_hits(rng, rate, n_trials))
    op, trial, pauli = (np.concatenate(column) for column in zip(*batches))
    assert np.all(pauli == 8)  # X on the control only
    hits = np.zeros((rate.size, n_trials), dtype=np.int64)
    np.add.at(hits, (op, trial), 1)
    # every noisy op in every trial, once; a noiseless op never
    assert np.array_equal(hits, np.broadcast_to((rate > 0)[:, None], hits.shape))
    classes = sorted(set(rate[rate > 0].tolist()))
    # one stream per rate, in ascending order
    assert rng.rates == sorted(rng.rates) and sorted(set(rng.rates)) == classes
    assert np.all(np.diff(rate[op]) >= 0)  # so the classes come in ascending order
    for p in classes:
        assert np.all(np.diff(op[rate[op] == p]) >= 0)  # in op order within a class
    # a class of 2 or 3 ops needs more than one batch of gaps
    assert len(batches) > len(classes)


def test_depolarizing_hits_at_the_ends_of_the_rate_range():
    rng = np.random.default_rng(3)
    a, b = np.array([0]), np.array([1])
    # every position is hit, each by a nontrivial Pauli on the pair
    hits = stn._depolarizing_hits(rng, np.ones(1), 77)
    assert _apply_hits(hits, a, b, 2, 77).any(axis=0).all()
    # a gap too long for int64 ends the hits instead of wrapping around
    hits = list(stn._depolarizing_hits(rng, np.full(1, 5e-324), 10**6))
    assert sum(op.size + trial.size + pauli.size for op, trial, pauli in hits) == 0


LAYOUTS = {"lqec": lqec_layout, "dqec": dqec_layout}


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(sorted(LAYOUTS)), n_blocks=st.integers(2, 10),
       depth=st.integers(1, 30), p_local=st.floats(0.0, 0.5), p_remote=st.floats(0.0, 0.5),
       n_trials=st.sampled_from([1, 63, 64, 65, 130]), seed=st.integers(0, 2**32 - 1))
# nine and ten blocks need a second mask word
@example(scheme="dqec", n_blocks=9, depth=5, p_local=0.05, p_remote=0.3, n_trials=65, seed=1)
@example(scheme="lqec", n_blocks=10, depth=30, p_local=0.5, p_remote=0.0, n_trials=130, seed=2)
def test_compiled_engine_matches_the_layered_oracle_bit_for_bit(scheme, n_blocks, depth,
                                                                p_local, p_remote, n_trials,
                                                                seed):
    layout = LAYOUTS[scheme](n_blocks)
    circuit = build_ghz_mirror(layout, depth)
    noise = NoiseSpec(p_local, p_remote)
    (want_x, want_z), want_inputs = layered_circuit_trials(
        circuit, layout, noise, np.random.default_rng(seed), n_trials)
    # the folded compile decodes, the unfolded one gives the decoder's inputs
    got_x, got_z = run_circuit_trials(compile_mirror(layout, depth), layout, noise,
                                      np.random.default_rng(seed), n_trials)
    assert got_x.dtype == got_z.dtype == bool
    assert got_x.shape == got_z.shape == (n_blocks, n_trials)
    assert np.array_equal(got_x, want_x) and np.array_equal(got_z, want_z)
    got_inputs = simulate_frames(compiled(circuit, layout), layout, noise,
                                 np.random.default_rng(seed), n_trials)
    for got, want in zip(got_inputs, want_inputs, strict=True):
        assert got.shape == (n_blocks, n_trials)
        assert np.array_equal(got, want)


def mirror_layout(scheme: str, n_blocks: int, seed: int) -> MachineLayout:
    """The lqec or dqec layout, or the lqec blocks on a random processor map."""
    if scheme in LAYOUTS:
        return LAYOUTS[scheme](n_blocks)
    local = lqec_layout(n_blocks)
    procs = np.random.default_rng(seed).integers(0, n_blocks, local.n_qubits)
    return MachineLayout(scheme, local.blocks, tuple(procs.tolist()))


def compiled_rows(c: stn.CompiledCircuit):
    """The CNOTs of a compile in schedule order: their qubits and table rows."""
    a, b, row, table = c.arrays()
    return a, b, table[row]


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(["lqec", "dqec", "random"]), n_blocks=st.integers(2, 12),
       segments=st.integers(0, 6), offset=st.integers(0, 21), seed=st.integers(0, 2**32 - 1))
# whole segments only, so the tail ends before its last H layer
@example(scheme="dqec", n_blocks=3, segments=3, offset=0, seed=1)
@example(scheme="lqec", n_blocks=12, segments=6, offset=0, seed=2)
# one layer past two segments, so the far blocks' extraction interleaves
# with the tail's whole segment
@example(scheme="random", n_blocks=7, segments=2, offset=1, seed=3)
def test_the_folded_mirror_compile_matches_the_whole_circuit_bit_for_bit(scheme, n_blocks,
                                                                         segments, offset,
                                                                         seed):
    layers = 2 * (n_blocks - 1)  # CNOT layers of a whole segment
    depth = min(max(segments * layers + offset % layers, 1), 6 * layers)
    layout = mirror_layout(scheme, n_blocks, seed)
    folded = compile_mirror(layout, depth)
    full = with_extraction(build_ghz_mirror(layout, depth), layout)
    whole = compile_circuit(full, layout)
    assert folded.ops == whole.ops == tuple(full)
    assert folded.blocks == whole.blocks == layout.blocks
    for got, want in zip(compiled_rows(folded), compiled_rows(whole), strict=True):
        assert np.array_equal(got, want)
    # the fold keeps the rows of at most two segments and the extraction
    assert folded.arrays()[3].shape[0] <= (2 * layers - 1) * N_DATA + 24 * n_blocks
    noise = NoiseSpec(0.02, 0.1)
    for got, want in zip(simulate_frames(folded, layout, noise, np.random.default_rng(seed), 130),
                         simulate_frames(whole, layout, noise, np.random.default_rng(seed), 130),
                         strict=True):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(n_blocks=st.integers(2, 9), depth=st.integers(1, 40), p_local=st.floats(0.0, 0.5),
       p_remote=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_the_compiled_table_depends_only_on_the_circuit_and_its_blocks(n_blocks, depth,
                                                                      p_local, p_remote,
                                                                      seed):
    local = lqec_layout(n_blocks)
    layout = mirror_layout("random", n_blocks, seed)
    assert build_ghz_mirror(layout, depth) == build_ghz_mirror(local, depth)
    fresh = compile_mirror(layout, depth)
    shared = compile_mirror(local, depth)
    assert shared.ops == fresh.ops
    for got, want in zip(compiled_rows(shared), compiled_rows(fresh), strict=True):
        assert np.array_equal(got, want)
    # another layout's compile draws the same trials as the layout's own
    noise = NoiseSpec(p_local, p_remote)
    want = simulate_frames(fresh, layout, noise, np.random.default_rng(seed), 65)
    got = simulate_frames(shared, layout, noise, np.random.default_rng(seed), 65)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


def test_both_layouts_of_a_depth_share_one_compile(monkeypatch):
    sizes, seen = [], []

    def counting_compile(ops, n_qubits, blocks):
        sizes.append(sum(op[0] == "CNOT" for op in ops))
        return compile_(ops, n_qubits, blocks)

    def recording_trials(circuit, layout, noise, rng, n_trials):
        seen.append((circuit, layout.name))
        return run_trials(circuit, layout, noise, rng, n_trials)
    compile_, run_trials = stn._compile, stn.run_circuit_trials
    monkeypatch.setattr(stn, "_compile", counting_compile)
    monkeypatch.setattr(stn, "run_circuit_trials", recording_trials)
    cfg = experiments.load_config("pnl-sweep", overrides={"trials": 500, "threads": 4})
    cfg.chunk_size = 100  # five chunks per point
    cfg.params["depths"] = [3, 5, 30]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches, so a race would show
    try:
        rows, _, _, _ = experiments.run_pnl_sweep(cfg)
    finally:
        sys.setswitchinterval(interval)
    # one compile per depth: 7 CNOTs per transversal layer, 24 per block's
    # extraction; a segment of seven blocks has 12 layers, so depth 30 folds
    # one segment and compiles the last 18 layers
    assert sizes == [7 * 3 + 24 * 7, 7 * 5 + 24 * 7, 7 * 18 + 24 * 7]
    assert max(sizes) <= (2 * 12 - 1) * 7 + 24 * 7
    # every chunk of both layouts of a depth reads that depth's compile
    chunks = {}
    for circuit, scheme in seen:
        chunks.setdefault(id(circuit), []).append(scheme)
    assert sorted(map(sorted, chunks.values())) == [["dqec"] * 5 + ["lqec"] * 5] * 3
    # the rows keep their order, layout first
    assert [(r["scheme"], r["depth"]) for r in rows] == [
        ("lqec", 3), ("lqec", 5), ("lqec", 30), ("dqec", 3), ("dqec", 5), ("dqec", 30)]


def test_a_compile_runs_in_the_first_simulate_frames_call(monkeypatch):
    calls = []

    def counting_compile(ops, n_qubits, blocks):
        calls.append(len(ops))
        return compile_(ops, n_qubits, blocks)
    compile_ = stn._compile
    monkeypatch.setattr(stn, "_compile", counting_compile)
    layout = dqec_layout(3)
    mirror = compile_mirror(layout, 9)
    assert calls == []
    for layout in (layout, lqec_layout(3)):  # the layouts share the blocks
        simulate_frames(mirror, layout, NO_NOISE, np.random.default_rng(0), 1)
    assert len(calls) == 1


def test_circuits_differing_in_one_op_get_different_tables():
    layout = lqec_layout(3)
    circuit = with_extraction(build_ghz_mirror(layout, 2), layout)
    first = compile_circuit(circuit, layout)
    forward = ("CNOT", layout.blocks[0].data[0], layout.blocks[1].data[0])
    index = circuit.index(forward)
    circuit[index] = ("CNOT", layout.blocks[1].data[0], layout.blocks[0].data[0])
    assert first.ops[index] == forward  # a compile keeps the ops it was given
    other = compile_circuit(circuit, layout)
    assert other.ops == tuple(circuit)
    # first compiles only now, and from its own ops
    original = compiled(build_ghz_mirror(layout, 2), layout)
    for got, want in zip(compiled_rows(first), compiled_rows(original), strict=True):
        assert np.array_equal(got, want)
    assert not np.array_equal(first.arrays()[3], other.arrays()[3])
    # the same ops on other blocks read other decoder bytes, and a layout with
    # other blocks cannot run them
    swapped = compile_circuit(circuit, dataclasses.replace(layout, blocks=layout.blocks[::-1]))
    assert not np.array_equal(swapped.arrays()[3], other.arrays()[3])
    with pytest.raises(ValueError, match="other blocks"):
        simulate_frames(swapped, layout, NO_NOISE, np.random.default_rng(0), 1)


@pytest.mark.parametrize("n_blocks", [3, 9])  # nine blocks need a second mask word
def test_the_y_rows_are_the_xor_of_the_x_and_z_rows_and_the_identity_rows_are_zero(n_blocks):
    layout = dqec_layout(n_blocks)
    c = compiled(build_ghz_mirror(layout, 5), layout)
    _, _, row, table = c.arrays()
    assert table.shape[1] == 8
    # one row for each CNOT and none for any other op
    assert table.shape[0] == row.size == sum(op[0] == "CNOT" for op in c.ops)
    for side in (0, 4):  # rows I, Z, X, Y of the control, then of the target
        assert not table[:, side].any()
        assert np.array_equal(table[:, side + 3], table[:, side + 1] ^ table[:, side + 2])
        assert table[:, side + 3].any()


# Decoder byte of a block (see stn._compile): bits 0..5 its readouts, bit 6
# its data X parity, bit 7 its data Z parity. PARITY[v] is the parity of byte
# v and WALSH[s, v] = (-1)^(s . v) the characters of the xor group of bytes.
BYTES = np.arange(256)
PARITY = np.unpackbits(BYTES.astype(np.uint8)[:, None], axis=1).sum(axis=1, dtype=int) & 1
WALSH = 1 - 2 * PARITY[BYTES[:, None] & BYTES]
X_FLIP = (BYTES >> 6 & 1) ^ ((BYTES & 63) > 7)
Z_FLIP = (BYTES >> 7 & 1) ^ ((BYTES & 7) > 0)


def exact_block_bytes(ops: list[tuple], layout: MachineLayout,
                      noise: NoiseSpec) -> np.ndarray:
    """Exact distribution of each block's decoder byte after the ops and the
    extraction of every block, shape (n_blocks, 256).

    The compiled table is a detector error model: CNOT o is an independent
    fault location which, with probability p_o / 15 each, xors into a
    block's byte the byte f_P of each of the 15 Paulis P, f_P the xor of
    the table bytes g_j of P's set bits. So the byte's distribution is the
    xor-convolution of the locations', a product in the Walsh basis, where
    location o has the character 1 - p_o + p_o / 15 * sum_P (-1)^(s . f_P)
    = 1 - 16 p_o / 15 * [s . g_j odd for some j].
    """
    a, b, row, table = compiled(ops, layout).arrays()
    rate = op_rates(a, b, np.ones(a.size, dtype=bool), layout, noise)
    # (location, j, block) for the rows of x_c, z_c, x_t and z_t
    octets = table[row[rate > 0]][:, [2, 1, 6, 5]].view(np.uint8)
    log_factor = np.log1p(-16.0 / 15.0 * rate[rate > 0])
    dist = []
    for block in range(len(layout.blocks)):
        odd = PARITY[octets[:, :, block, None] & BYTES].any(axis=1)  # (location, s)
        dist.append(WALSH @ np.exp(log_factor @ odd) / 256.0)
    return np.array(dist)


def test_pnl_sweep_per_block_rates_match_the_exact_marginals(monkeypatch):
    # the shipped sweep's trials, noise and seed at three of its depths; every
    # block's X flips and Z-only flips against their exact probabilities
    counts = []

    def counting_trials(circuit, layout, noise, rng, n_trials):
        xf, zf = run_trials(circuit, layout, noise, rng, n_trials)
        # 7 CNOTs per layer, and 24 per block in the extraction
        depth = (sum(op[0] == "CNOT" for op in circuit.ops) - 24 * len(layout.blocks)) // 7
        counts.append((layout.name, depth,
                       np.stack((xf.sum(axis=1), (zf & ~xf).sum(axis=1)))))
        return xf, zf
    run_trials = stn.run_circuit_trials
    monkeypatch.setattr(stn, "run_circuit_trials", counting_trials)
    cfg = experiments.load_config("pnl-sweep")
    assert cfg.trials == 100000
    cfg.params["depths"] = [2, 78, 400]
    rows, _, _, _ = experiments.run_pnl_sweep(cfg)
    noise = NoiseSpec(cfg.params["p_local"], cfg.params["p_remote"])
    n, stat, df = cfg.trials, 0.0, 0
    for row in rows:
        layout = LAYOUTS[row["scheme"]](cfg.params["n_blocks"])
        dist = exact_block_bytes(build_ghz_mirror(layout, row["depth"]), layout, noise)
        assert np.allclose(dist.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert dist.min() > -1e-12
        p_x = dist[:, X_FLIP == 1].sum(axis=1)
        p_z = dist[:, (X_FLIP == 0) & (Z_FLIP == 1)].sum(axis=1)
        flips = sum(c for name, depth, c in counts
                    if (name, depth) == (row["scheme"], row["depth"]))
        # Pearson over (X flip, Z flip only, neither) for each block; the blocks
        # of a trial are not independent, so the pooled statistic is only close
        # to chi-squared, with the same mean
        observed = np.vstack((flips, n - flips.sum(axis=0)))
        expected = n * np.stack((p_x, p_z, 1.0 - p_x - p_z))
        stat += float(np.sum((observed - expected) ** 2 / expected))
        df += 2 * len(layout.blocks)
        # a trial fails if any block does: at least the likeliest block's
        # rate, at most the sum of the blocks', up to 5 standard errors
        for failures, p_block in ((row["failures"], p_x + p_z), (row["xflip_failures"], p_x)):
            lo, hi = p_block.max(), min(p_block.sum(), 1.0)
            assert failures / n >= lo - 5.0 * math.sqrt(lo * (1 - lo) / n), row
            assert failures / n <= hi + 5.0 * math.sqrt(hi * (1 - hi) / n), row
    assert chi2.sf(stat, df) > 1e-6, (stat, df)


# ---------------------------------------------------------------------------
# correlated-errors against its exact expectations
#
# Every rate is an iid clipped normal and every failure probability a
# polynomial in the rates, of degree at most 7 in each. So an n-node Gauss
# rule for the clipped normal, exact to degree 2n - 1, gives the expected
# rates exactly from n = 4 on: one rule per rate for the local blocks, and
# its 4^7-node tensor product for the distributed blocks.


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x):
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def clipped_normal_moments(mu, sigma, hi, count):
    """E[X^k] for k < count, X = clip(N(mu, sigma^2), 0, hi): the body by the
    truncated-normal recurrence, from (y - mu) p(y) = -sigma^2 p'(y), plus
    the two clip atoms."""
    alpha, beta = -mu / sigma, (hi - mu) / sigma
    body = [_normal_cdf(beta) - _normal_cdf(alpha)]
    for k in range(1, count):
        edge = hi ** (k - 1) * _normal_pdf(beta) - (_normal_pdf(alpha) if k == 1 else 0.0)
        body.append(mu * body[k - 1] + (k - 1) * sigma**2 * (body[k - 2] if k > 1 else 0.0)
                    - sigma * edge)
    return np.array([b + hi**k * _normal_cdf(-beta) + (_normal_cdf(alpha) if k == 0 else 0.0)
                     for k, b in enumerate(body)])


def gauss_rule(moments, n):
    """Nodes and weights of the n-node Gauss rule of a measure with moments
    m_0..m_2n (Golub and Welsch, Math. Comp. 23, 1969): the Cholesky factor R
    of the Hankel matrix gives the Jacobi matrix, whose eigenvalues are the
    nodes; the weights are m_0 times the squared first eigenvector entries."""
    r = np.linalg.cholesky([[moments[i + j] for j in range(n + 1)] for i in range(n + 1)]).T
    diag, sup = np.diag(r), np.diag(r, 1)
    a = sup / diag[:-1] - np.concatenate(([0.0], sup[:-1] / diag[:-2]))
    b = diag[1:-1] / diag[:-2]
    nodes, vecs = np.linalg.eigh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    return nodes, moments[0] * vecs[0] ** 2


def exact_correlated_errors(mean, std_factor, clip_max, n_nodes=4):
    """(E[ler_local], E[ler_dist], 1 - E[ler_dist] / E[ler_local]) of one
    correlated-errors point with seven processors, one per local block.

    The rule is built for rate / mean, whose moments are of order one."""
    z, w = gauss_rule(clipped_normal_moments(1.0, std_factor, clip_max / mean,
                                             2 * n_nodes + 1), n_nodes)
    x = mean * z
    local = 1.0 - (w @ (1.0 - stn.steane_failure_probabilities_uniform(x)["p_any"])) ** 7
    grid = np.stack(np.meshgrid(*[x] * N_DATA, indexing="ij"), axis=-1).reshape(-1, N_DATA)
    weights = functools.reduce(np.multiply.outer, [w] * N_DATA).ravel()
    f = stn.steane_failure_probabilities_batch(grid)["p_any"]
    dist = weights @ (1.0 - (1.0 - f) ** 7)
    return local, dist, 1.0 - dist / local


@pytest.mark.parametrize("std_factor, hi", [(0.5, 0.5 / 2e-3), (0.5, 1.5), (2.0, 3.0)])
def test_the_clipped_normal_gauss_rule_is_exact_to_degree_seven(std_factor, hi):
    # the recurrence against quadrature of the body, and the rule against the moments
    m = clipped_normal_moments(1.0, std_factor, hi, 11)
    for k in range(11):
        body, _ = quad(lambda y: y**k * _normal_pdf((y - 1.0) / std_factor) / std_factor,
                       0.0, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        atoms = hi**k * _normal_cdf(-(hi - 1.0) / std_factor) + (
            _normal_cdf(-1.0 / std_factor) if k == 0 else 0.0)
        assert math.isclose(m[k], body + atoms, rel_tol=1e-11), k
    for n in (4, 5):
        z, w = gauss_rule(m, n)
        assert np.all(w > 0) and np.all((z >= 0) & (z <= hi))
        np.testing.assert_allclose([w @ z**k for k in range(2 * n)], m[:2 * n], rtol=1e-12)
    # the 4- and 5-node rules give one expectation where the polynomials are degree 7
    four = exact_correlated_errors(0.01, std_factor, 0.01 * hi, 4)
    five = exact_correlated_errors(0.01, std_factor, 0.01 * hi, 5)
    np.testing.assert_allclose(four, five, rtol=1e-11)


def test_correlated_errors_matches_its_exact_expectations():
    # the shipped run against the exact expected rates: over the 8 points, the
    # squared z-scores of each column (from the CSV's own 95% half widths) sum
    # to at most the 0.999 quantile of chi-squared with 8 degrees of freedom
    cfg = experiments.load_config("correlated-errors")
    p = cfg.params
    assert p["n_processors"] == 7 and p["rate_points"] == 8
    rows, _, _, _ = experiments.run_correlated_errors(cfg)
    columns = ("ler_local", "ler_dist", "relative_advantage")
    stat = dict.fromkeys(columns, 0.0)
    for row in rows:
        exact = exact_correlated_errors(row["mean_rate"], p["std_factor"], p["rate_clip_max"])
        for column, value in zip(columns, exact):
            stat[column] += ((row[column] - value) / (row[column + "_ci95"] / 1.96)) ** 2
        assert 0.08 <= exact[2] <= 0.25, (row["mean_rate"], exact)  # criterion 5, exactly
    assert all(v <= chi2.ppf(0.999, len(rows)) for v in stat.values()), stat  # 26.1


def test_perfbench_tracer_observes_a_real_simulate_frames_call(perfbench_tracer):
    # the benchmark's tracer unpacks simulate_frames' result and reads its
    # arguments; this fails in the tests if that contract breaks
    tr = perfbench_tracer
    layout = dqec_layout()
    circuit = build_ghz_mirror(layout, 4)
    with tr.Tracer("t") as t:
        stn.run_circuit_trials(compile_mirror(layout, 4), layout, NoiseSpec(1e-3, 1e-2),
                               np.random.default_rng(0), 100)
    assert [s[1] for s in t.spans].count("stabilizer_steane.simulate_frames") == 1
    gate_trials = t.counters["stabilizer_steane.simulate_frames.gate_trials"]
    assert gate_trials == len(with_extraction(circuit, layout)) * 100
    # one byte per block and trial for each of the X and Z parities
    assert t.counters["stabilizer_steane.simulate_frames.frame_bytes"] == 2 * 7 * 100
    assert stn.simulate_frames is simulate_frames  # the tracer put it back


# ---------------------------------------------------------------------------
# circuits


def test_mirror_layer_count_and_identity_tiling():
    layout = lqec_layout()
    circ = build_ghz_mirror(layout, 12)
    cnots = [op for op in circ if op[0] == "CNOT"]
    assert len(cnots) == 12 * 7
    with pytest.raises(ValueError):  # one block has no CNOT chain to tile
        build_ghz_mirror(lqec_layout(1), 12)


def test_mirror_zero_noise_no_failures():
    layout = lqec_layout()
    circ = build_ghz_mirror(layout, 36)
    rng = np.random.default_rng(5)
    xf, zf = run_circuit_trials(compile_mirror(layout, 36), layout, NO_NOISE, rng, 10000)
    assert not xf.any() and not zf.any()


def test_extraction_locality_census():
    lq, dq = lqec_layout(), dqec_layout()
    assert count_remote_gates(syndrome_extraction_circuit(lq.blocks[0]), lq) == 0
    for block in dq.blocks:
        circ = syndrome_extraction_circuit(block)
        assert count_remote_gates(circ, dq) >= 18  # at least 3 of 4 CNOTs per generator
        # per generator, at most one of the four CNOTs can touch the
        # ancilla's own processor
        for g in range(6):
            gen_ops = [op for op in circ if op[0] == "CNOT"][4 * g: 4 * g + 4]
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
    circ = syndrome_extraction_circuit(block)
    _, _, measured = layered_simulate_frames(circ, layout, NO_NOISE,
                                             np.random.default_rng(0), 1, initial=frame)
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
        # re-derive the logical layer sequence the builder tiles
        chain = [(a, a + 1) for a in range(6)]
        segment = chain + chain[::-1]
        layers = [segment[i % len(segment)] for i in range(depth)]
        independent = sum(assign[(a, j)] != assign[(b, j)]
                          for a, b in layers for j in range(7))
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


def steane_failure_probabilities(eps_per_qubit) -> dict:
    """Exact failure probabilities of one block: one row of the batch evaluator."""
    out = steane_failure_probabilities_batch(np.asarray(eps_per_qubit, float)[None, :])
    return {k: float(v[0]) for k, v in out.items()}


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


# rates log-uniform from far below the Monte Carlo range (sample_profiles
# clips its normal draws at 0, so any tiny positive rate occurs) up to 0.5,
# plus exact zeros and the large rates up to 1 that rate_clip_max admits
RATES = st.one_of(st.floats(math.log(1e-100), math.log(0.5)).map(math.exp),
                  st.just(0.0), st.floats(0.5, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(RATES, min_size=N_DATA, max_size=N_DATA), min_size=1, max_size=8))
@example([[1e-100] * N_DATA, [1e-100, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-100]])
def test_exact_evaluator_keeps_relative_precision_against_pattern_oracle(vectors):
    _assert_matches_oracle(np.array(vectors))


def test_exact_evaluator_matches_pattern_oracle_across_blocks():
    # more vectors than one evaluation block, with a ragged last block
    rng = np.random.default_rng(5)
    eps = np.exp(rng.uniform(math.log(1e-6), math.log(0.5), size=(2 * stn._BLOCK + 37, N_DATA)))
    _assert_matches_oracle(eps)
    assert steane_failure_probabilities_batch(np.empty((0, N_DATA)))["p_any"].shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(RATES, st.just(1.0)), min_size=1, max_size=16))
@example([0.0, 1e-100, 0.5, 1.0])
def test_uniform_evaluator_keeps_relative_precision_against_rational_oracle(rates):
    eps = np.array(rates)
    got = steane_failure_probabilities_uniform(eps)
    want = rational_failure_probabilities_uniform(eps)
    for key in ("p_x", "p_z", "p_both", "p_any"):
        np.testing.assert_array_less(np.abs(got[key] - want[key]),
                                     1e-12 * want[key] + np.finfo(float).tiny, err_msg=key)
        assert np.all(got[key][eps == 0.0] == 0.0), key


def test_uniform_evaluator_keeps_the_input_shape():
    for eps, shape in ((0.01, (1,)), (np.linspace(0.0, 1.0, 12).reshape(3, 4), (3, 4)),
                       (np.empty(0), (0,)), (np.empty((2, 0)), (2, 0))):
        got = steane_failure_probabilities_uniform(eps)
        want = rational_failure_probabilities_uniform(eps)
        for key in ("p_x", "p_z", "p_both", "p_any"):
            assert got[key].shape == shape, key
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
        assert not np.shares_memory(got["p_x"], got["p_z"])


def test_correlated_errors_runs_the_exact_evaluator(monkeypatch):
    # the experiment's numbers are the oracles', so each evaluator is wired
    # into the run and not only right on its own; the rows are compared
    # before the CSV rounds them to 12 digits, where a last-digit flip would
    # exceed the tolerance
    cfg = experiments.load_config("correlated-errors", overrides={"trials": 256})
    cfg.params["rate_points"] = 2
    shipped, columns, _, _ = experiments.run_experiment(cfg)
    oracles = {"steane_failure_probabilities_batch": pattern_failure_probabilities_batch,
               "steane_failure_probabilities_uniform": rational_failure_probabilities_uniform}
    for name, oracle in oracles.items():
        with monkeypatch.context() as patch:
            patch.setattr(stn, name, oracle)
            rows = experiments.run_experiment(cfg)[0]
        assert len(shipped) == len(rows) == 2
        for got, want in zip(shipped, rows):
            for key in set(columns) - {"experiment"}:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0), (name, key)


def test_uniform_weight_tables_match_pattern_enumeration():
    assert np.array_equal(stn._SUPPORT_COUNTS, _SUPPORT_COUNTS)
    assert np.array_equal(stn._WEIGHT_COUNTS, _WEIGHT_COUNTS)


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

"""Pauli-frame Monte Carlo for [[7,1,3]] Steane code blocks on a multi-processor machine.

Errors are tracked as X/Z bits per physical qubit and conjugated through
H and CNOT; two-qubit gates are followed by depolarizing noise whose
strength depends on whether the gate crosses a processor boundary. The
engine runs a circuit in layers of disjoint gates on frames packed 64
trials to a word and draws only the noise hits. The module provides the
standard seven-processor layouts (one block per processor vs. fully
distributed), a mirrored GHZ-type transversal circuit of configurable
depth, terminal syndrome extraction with lookup decoding, and an exact
per-block failure-probability evaluator for code-capacity noise with
processor-dependent single-qubit rates, a 256-state transfer that adds
only nonnegative terms and so keeps relative precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Parity-check pattern of the [7,4] Hamming code; column j (0-indexed
# qubit) is the binary representation of j+1, row r the r-th bit.
HAMMING_CHECK = np.array(
    [[1, 0, 1, 0, 1, 0, 1],
     [0, 1, 1, 0, 0, 1, 1],
     [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)

GENERATOR_SUPPORTS = tuple(tuple(np.nonzero(row)[0]) for row in HAMMING_CHECK)

N_DATA = 7
N_ANCILLA = 6
QUBITS_PER_PROCESSOR = N_DATA + N_ANCILLA


@dataclass(frozen=True)
class SteaneBlock:
    """Global qubit ids of one block: 7 data qubits and 6 syndrome ancillas.

    Ancillas 0..2 serve the X-type generators (detecting Z errors),
    ancillas 3..5 the Z-type generators (detecting X errors).
    """

    data: tuple[int, ...]
    ancillas: tuple[int, ...]

    def __post_init__(self):
        if len(self.data) != N_DATA or len(self.ancillas) != N_ANCILLA:
            raise ValueError("a block needs 7 data qubits and 6 ancillas")


@dataclass(frozen=True)
class NoiseSpec:
    """Two-qubit depolarizing parameters within and across processors."""

    p_local: float = 0.0
    p_remote: float = 0.0

    def __post_init__(self):
        for p in (self.p_local, self.p_remote):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"noise parameter {p} outside [0, 1]")


@dataclass(frozen=True)
class MachineLayout:
    """Blocks plus the qubit -> processor map of one machine configuration."""

    name: str
    blocks: tuple[SteaneBlock, ...]
    qubit_processor: tuple[int, ...]
    n_processors: int

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_processor)


def _numbered_blocks(n_blocks: int) -> tuple[SteaneBlock, ...]:
    blocks = []
    for i in range(n_blocks):
        data = tuple(N_DATA * i + j for j in range(N_DATA))
        anc = tuple(N_DATA * n_blocks + N_ANCILLA * i + s for s in range(N_ANCILLA))
        blocks.append(SteaneBlock(data, anc))
    return tuple(blocks)


def lqec_layout(n_blocks: int = 7) -> MachineLayout:
    """One block per processor: data and ancillas of block i all live on i."""
    blocks = _numbered_blocks(n_blocks)
    proc = [0] * (n_blocks * QUBITS_PER_PROCESSOR)
    for i, b in enumerate(blocks):
        for q in b.data + b.ancillas:
            proc[q] = i
    return MachineLayout("lqec", blocks, tuple(proc), n_blocks)


def dqec_layout(n_blocks: int = 7) -> MachineLayout:
    """Fully distributed blocks on n_blocks processors of 13 qubits each.

    Data qubit j of every block sits on processor j; ancilla s of block i
    sits on processor (i+s+1) mod n_blocks, which balances to 6 ancillas
    per processor.
    """
    blocks = _numbered_blocks(n_blocks)
    proc = [0] * (n_blocks * QUBITS_PER_PROCESSOR)
    for i, b in enumerate(blocks):
        for j, q in enumerate(b.data):
            proc[q] = j
        for s, q in enumerate(b.ancillas):
            proc[q] = (i + s + 1) % n_blocks
    return MachineLayout("dqec", blocks, tuple(proc), n_blocks)


@dataclass
class CliffordCircuit:
    """Gate list over the global register.

    Ops are tuples: ("H", q), ("CNOT", c, t), ("PREP_Z"|"PREP_X", q),
    ("MEAS_Z"|"MEAS_X", q). Measurement outcomes are reported in op order.
    """

    n_qubits: int
    ops: list[tuple] = field(default_factory=list)
    two_qubit_layers: int = 0

    def extend(self, other: "CliffordCircuit"):
        if other.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        self.ops.extend(other.ops)


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
# circuits


def build_ghz_mirror(layout: MachineLayout, depth: int) -> CliffordCircuit:
    """Transversal mirrored GHZ-type circuit with `depth` two-qubit logical layers.

    Segments of [H on block 0; CNOT chain down the blocks; inverted chain;
    H on block 0] are tiled until exactly `depth` transversal CNOT layers
    have been emitted (each layer is 7 physical CNOTs between matching
    data qubits). Whole segments compose to the identity.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    nb = len(layout.blocks)
    if nb < 2:
        # a single block has no CNOT chain, so no segment adds a layer
        raise ValueError("the mirrored GHZ circuit needs at least two blocks")
    circ = CliffordCircuit(layout.n_qubits)
    chain = [(a, a + 1) for a in range(nb - 1)]
    segment: list[tuple] = [("H", 0)]
    segment += [("CNOT", a, b) for a, b in chain]
    segment += [("CNOT", a, b) for a, b in reversed(chain)]
    segment += [("H", 0)]
    layers = 0
    for item in itertools.cycle(segment):
        if layers == depth:
            break
        if item[0] == "H":
            circ.ops.extend(("H", q) for q in layout.blocks[item[1]].data)
        else:
            _, a, b = item
            ba, bb = layout.blocks[a], layout.blocks[b]
            circ.ops.extend(("CNOT", ba.data[j], bb.data[j]) for j in range(N_DATA))
            layers += 1
    circ.two_qubit_layers = layers
    return circ


def syndrome_extraction_circuit(block: SteaneBlock, layout: MachineLayout) -> CliffordCircuit:
    """Standard extraction: one ancilla and four CNOTs per generator.

    X-type generators use an X-basis ancilla with CNOTs fanning out of it;
    Z-type generators use a Z-basis ancilla with CNOTs fanning into it.
    Gate locality follows the layout's processor map.
    """
    circ = CliffordCircuit(layout.n_qubits)
    for g, sup in enumerate(GENERATOR_SUPPORTS):
        anc = block.ancillas[g]
        circ.ops.append(("PREP_X", anc))
        circ.ops.extend(("CNOT", anc, block.data[q]) for q in sup)
        circ.ops.append(("MEAS_X", anc))
    for g, sup in enumerate(GENERATOR_SUPPORTS):
        anc = block.ancillas[3 + g]
        circ.ops.append(("PREP_Z", anc))
        circ.ops.extend(("CNOT", block.data[q], anc) for q in sup)
        circ.ops.append(("MEAS_Z", anc))
    return circ


# ---------------------------------------------------------------------------
# circuit-level engine


# Op kinds, in the order a layer applies them. The ops of one layer touch
# disjoint qubits, so that order changes nothing.
_CNOT, _H, _PREP, _MEAS_Z, _MEAS_X = range(5)
_KINDS = {"CNOT": _CNOT, "H": _H, "PREP_Z": _PREP, "PREP_X": _PREP,
          "MEAS_Z": _MEAS_Z, "MEAS_X": _MEAS_X}
_NOISE_BATCH = 1 << 12  # most gaps drawn at once, which bounds the memory of the noise


def _schedule(circuit: CliffordCircuit, layout: MachineLayout, noise: NoiseSpec):
    """Sort the ops into steps of one (ASAP layer, kind) each.

    An op's layer is one more than the last layer of any of its qubits.
    Returns, in sorted order, each op's first qubit, second qubit (the
    first again for a one-qubit op), measurement index in op order and
    noise rate (zero for any op but a CNOT); then the step bounds and kinds.
    """
    last = [0] * circuit.n_qubits
    rows = []
    for op in circuit.ops:
        kind = _KINDS.get(op[0])
        if kind is None:
            raise ValueError(f"unknown op {op}")
        a = b = op[1]
        if kind == _CNOT:
            b = op[2]
        layer = last[a] = last[b] = max(last[a], last[b]) + 1
        rows.append((layer, kind, a, b))
    layer, kind, a, b = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    proc = np.asarray(layout.qubit_processor)
    rate = np.where(proc[a] != proc[b], noise.p_remote, noise.p_local) * (kind == _CNOT)
    meas = np.cumsum(kind >= _MEAS_Z) - 1
    order = np.lexsort((kind, layer))
    keys = np.stack((layer, kind))[:, order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1).any(axis=0))
    ends = np.append(starts[1:], order.size)
    return (a[order], b[order], meas[order], rate[order], starts.tolist(), ends.tolist(),
            kind[order][starts].tolist())


class _Depolarizer:
    """Depolarizing hits after the CNOTs of a schedule, drawn as its steps reach them.

    Position o * n_trials + k stands for op o of the schedule in trial k,
    and is hit with the op's rate. The positions hit at the largest rate
    come from cumulative geometric gaps, so the draws scale with the hits,
    and each is kept with probability rate / largest rate. A kept hit takes
    one of the 15 nontrivial two-qubit Paulis uniformly, the bits
    (x_c, z_c, x_t, z_t) of a number in 1..15, and becomes one entry
    (op, frame row, word, bit) per set bit; x rows come first, z rows after.
    """

    def __init__(self, rng: np.random.Generator, a, b, rate, n_qubits: int, n_trials: int):
        self.rng, self.n = rng, n_trials
        self.rows = np.stack((a, a + n_qubits, b, b + n_qubits), axis=1)
        self.p = float(rate.max(initial=0.0))
        self.keep = rate / self.p if self.p > 0.0 else rate
        self.end = rate.size * n_trials   # one past the last position
        self.last = -1 if self.p > 0.0 else self.end  # every hit up to here is drawn
        empty = np.zeros(0, dtype=np.int64)
        self.pending = (empty, empty, empty, empty.astype(np.uint64))

    def _draw(self):
        mean = (self.end - 1 - self.last) * self.p
        size = int(min(mean + 6.0 * math.sqrt(mean) + 16, _NOISE_BATCH))
        # a gap capped at end + 1 still lands past the end, and the sums stay
        # far from overflow at any rate
        pos = self.last + np.cumsum(np.minimum(self.rng.geometric(self.p, size), self.end + 1))
        self.last = int(pos[-1])
        op, trial = np.divmod(pos[:np.searchsorted(pos, self.end)], self.n)
        kept = self.rng.random(op.size) < self.keep[op]
        op, trial = op[kept], trial[kept]
        pauli = self.rng.integers(1, 16, size=op.size)
        hit, which = np.nonzero(pauli[:, None] >> np.arange(3, -1, -1) & 1)  # in op order
        op, trial = op[hit], trial[hit]
        bits = np.left_shift(np.uint64(1), (trial & 63).astype(np.uint64))
        drawn = (op, self.rows[op, which], trial >> 6, bits)
        self.pending = tuple(np.concatenate(pair) for pair in zip(self.pending, drawn))

    def before(self, stop: int):
        """((rows, words), bits) of the entries at ops before `stop` not yet returned."""
        while self.last < stop * self.n - 1:
            self._draw()
        k = np.searchsorted(self.pending[0], stop)
        _, rows, words, bits = (entry[:k] for entry in self.pending)
        self.pending = tuple(entry[k:] for entry in self.pending)
        return (rows, words), bits


def unpack_trials(words: np.ndarray, n_trials: int) -> np.ndarray:
    """Bools of packed trial words along the last axis; trial k is bit k % 64
    of word k // 64."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")[..., :n_trials].astype(bool)


def simulate_frames(circuit: CliffordCircuit, layout: MachineLayout, noise: NoiseSpec,
                    rng: np.random.Generator, n_trials: int,
                    initial: PauliFrame | None = None):
    """Propagate `n_trials` independent Pauli frames through the circuit.

    Each CNOT is followed, with the locality-dependent probability, by one
    of the 15 nontrivial two-qubit Paulis applied uniformly at random.
    Preparations reset a qubit's frame; measurements record the bit that
    would flip the ideal outcome. Frames start trivial unless an initial
    frame (broadcast to all trials) is injected.

    The ops run in ASAP layers of disjoint gates, one step per (layer,
    kind), on frames packed 64 trials to a `uint64` word
    (trial k is bit k % 64 of word k // 64; bits past n_trials stay
    zero). Returns (x, z, measured): x and z of shape (n_qubits, words),
    measured of shape (measurements, words) in op order.
    """
    a, b, meas, rate, starts, ends, kinds = _schedule(circuit, layout, noise)
    nq, words = circuit.n_qubits, (n_trials + 63) // 64
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
    noisy = _Depolarizer(rng, a, b, rate, nq, n_trials)
    for lo, hi, kind in zip(starts, ends, kinds):
        rows = src[:, lo:hi]
        if kind == _CNOT:
            frames[dst[:, lo:hi]] ^= frames[rows]
            # unbuffered, because several hits can share a word
            np.bitwise_xor.at(frames, *noisy.before(hi))
        elif kind == _H:
            frames[rows] = frames[rows[::-1]]
        elif kind == _PREP:
            frames[rows] = 0
        else:
            measured[meas[lo:hi]] = frames[rows[0 if kind == _MEAS_Z else 1]]
    return frames[:nq], frames[nq:], measured


def run_circuit_trials(circuit: CliffordCircuit, layout: MachineLayout, noise: NoiseSpec,
                       rng: np.random.Generator, n_trials: int):
    """Run the circuit plus terminal extraction and decoding for every block.

    Returns (x_flips, z_flips) boolean arrays of shape (n_blocks, n_trials).
    """
    full = CliffordCircuit(circuit.n_qubits, list(circuit.ops))
    for block in layout.blocks:
        full.extend(syndrome_extraction_circuit(block, layout))
    x, z, measured = simulate_frames(full, layout, noise, rng, n_trials)
    nb = len(layout.blocks)
    if len(measured) < 6 * nb:
        raise ValueError("missing extraction measurements")
    # (block, generator, word); each block reads its X-type generators first
    syn = measured[len(measured) - 6 * nb:].reshape(nb, 6, -1)
    data = np.array([block.data for block in layout.blocks])
    # lookup decoding flips one data qubit iff the syndrome is nonzero, so the
    # logical flip is the data parity XOR [syndrome != 0]; X-type generators
    # flag Z errors, Z-type generators flag X errors
    z_flips = np.bitwise_xor.reduce(z[data], axis=1) ^ np.bitwise_or.reduce(syn[:, :3], axis=1)
    x_flips = np.bitwise_xor.reduce(x[data], axis=1) ^ np.bitwise_or.reduce(syn[:, 3:], axis=1)
    return unpack_trials(x_flips, n_trials), unpack_trials(z_flips, n_trials)


# ---------------------------------------------------------------------------
# code-capacity mode


# Exact evaluator. L stacks the three Hamming checks and an all-ones parity
# row, so qubit q's column of L is the code (q+1) | 8. Lookup decoding flips
# one qubit iff the syndrome is nonzero, so the logical flip is parity XOR
# [syndrome != 0]: it depends on L·e alone. A joint state packs L·x in its
# low four bits and L·z in its high four.
_COLUMNS = [(q + 1) | 8 for q in range(N_DATA)]
_STATES = np.arange(256)
_PAULI_MASKS = (1, 16, 17)  # X, Z and Y flip the x half, the z half or both
_FLIP_X, _FLIP_Z = (((h & 8) > 0) ^ ((h & 7) > 0) for h in (_STATES & 15, _STATES >> 4))
_FLIP_BOTH = _FLIP_X & _FLIP_Z
_MOVES = [[_STATES ^ (c * m) for m in _PAULI_MASKS] for c in _COLUMNS]
_BLOCK = 256  # rate vectors per transfer, so that a (256, _BLOCK) array stays in cache


def _weight_counts(kinds: int) -> np.ndarray:
    """Patterns per (joint state, weight); each qubit is clean or takes one of moves[:kinds]."""
    counts = np.zeros((256, N_DATA + 1), dtype=np.int64)
    counts[0, 0] = 1
    for moves in _MOVES:
        counts[:, 1:] += sum(counts[to, :-1] for to in moves[:kinds])
    return counts


# weight histograms for the uniform-rate fast path: logical-X-flipping bit-flip
# patterns by weight, and flip-flip (x, z) pattern pairs by qubits touched
_CX_W = _weight_counts(1)[_FLIP_X].sum(axis=0).astype(float)
_CB_W = _weight_counts(3)[_FLIP_BOTH].sum(axis=0).astype(float)


def steane_failure_probabilities(eps_per_qubit) -> dict:
    """Exact logical failure probabilities of one block at code capacity.

    eps_per_qubit are the seven depolarizing rates. Returns p_x and p_z
    (marginal logical X / Z flip probabilities, equal under this noise),
    p_both, and p_any = p_x + p_z - p_both.
    """
    out = steane_failure_probabilities_batch(np.asarray(eps_per_qubit, float)[None, :])
    return {k: float(v[0]) for k, v in out.items()}


def steane_failure_probabilities_batch(eps_matrix: np.ndarray) -> dict:
    """Vectorized exact failure probabilities for many rate vectors.

    eps_matrix has shape (m, 7); returns arrays of length m. The 256-state
    distribution of (L·x, L·z) is built qubit by qubit: a qubit at rate eps
    keeps 1 - eps of each state's mass and moves eps/3 along each of X, Z
    and Y. p_x and p_both are the masses of the states that decode to a
    logical X flip and to both flips. Only nonnegative terms are added, so
    the results keep relative precision however small they are.
    """
    eps = np.asarray(eps_matrix, dtype=float)
    m = eps.shape[0]
    p_x = np.empty(m)
    p_both = np.empty(m)
    for lo in range(0, m, _BLOCK):
        e = eps[lo:lo + _BLOCK].T
        dist = np.zeros((256, e.shape[1]))
        dist[0] = 1.0
        for q, (to_x, to_z, to_y) in enumerate(_MOVES):
            moved = dist[to_x]
            moved += dist[to_z]
            moved += dist[to_y]
            moved *= e[q] / 3.0
            dist *= 1.0 - e[q]
            dist += moved
        p_x[lo:lo + _BLOCK] = _FLIP_X @ dist
        p_both[lo:lo + _BLOCK] = _FLIP_BOTH @ dist
    p_any = 2.0 * p_x - p_both
    return {"p_x": p_x, "p_z": p_x.copy(), "p_both": p_both, "p_any": p_any}


def steane_failure_probabilities_uniform(eps) -> dict:
    """Exact failure probabilities when all seven qubits share one rate.

    Sums weight polynomials over the pattern counts _CX_W and _CB_W, which
    makes sweeping many uniform rates cheap. Accumulates one weight at a
    time, so every temporary has the length of eps.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    p, py = 2.0 * eps / 3.0, eps / 3.0
    p_x, p_both = np.zeros_like(eps), np.zeros_like(eps)
    for w in range(N_DATA + 1):
        p_x += _CX_W[w] * p**w * (1.0 - p) ** (N_DATA - w)
        p_both += _CB_W[w] * py**w * (1.0 - eps) ** (N_DATA - w)
    p_any = 2.0 * p_x - p_both
    return {"p_x": p_x, "p_z": p_x.copy(), "p_both": p_both, "p_any": p_any}

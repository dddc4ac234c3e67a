"""Pauli-frame Monte Carlo for [[7,1,3]] Steane code blocks on a multi-processor machine.

Errors are tracked as X/Z bits per physical qubit and conjugated through
H and CNOT; two-qubit gates are followed by depolarizing noise whose
strength depends on whether the gate crosses a processor boundary. The
engine compiles each circuit once, by one backward pass over its layers
of disjoint gates, into the decoder bits that an error after each CNOT
flips, which layouts with the same blocks share; a mirrored circuit
compiles only its last two segments, whose rows the identity segments
before them repeat. A trial then draws only its noise hits, one stream
per distinct rate, and xors their table rows.
The module provides the standard seven-processor layouts (one block per
processor vs. fully distributed), a mirrored GHZ-type transversal circuit
of configurable depth, terminal syndrome extraction with lookup decoding,
and an exact per-block failure-probability evaluator for code-capacity
noise with processor-dependent single-qubit rates: a sum over the 128
error supports of integer pattern counts times nonnegative monomials, which
keeps relative precision.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

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
    return MachineLayout("lqec", blocks, tuple(proc))


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
    return MachineLayout("dqec", blocks, tuple(proc))


# ---------------------------------------------------------------------------
# circuits
#
# A circuit is a plain list of op tuples on a layout's register: ("H", q),
# ("CNOT", c, t), ("PREP_Z"|"PREP_X", q) and ("MEAS_Z"|"MEAS_X", q), with
# the measurement outcomes reported in op order.


def build_ghz_mirror(layout: MachineLayout, depth: int) -> list[tuple]:
    """Ops of the transversal mirrored GHZ-type circuit with `depth` two-qubit logical layers.

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
    ops: list[tuple] = []
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
            ops.extend(("H", q) for q in layout.blocks[item[1]].data)
        else:
            _, a, b = item
            ba, bb = layout.blocks[a], layout.blocks[b]
            ops.extend(("CNOT", ba.data[j], bb.data[j]) for j in range(N_DATA))
            layers += 1
    return ops


def syndrome_extraction_circuit(block: SteaneBlock) -> list[tuple]:
    """Ops of the standard extraction: one ancilla and four CNOTs per generator.

    X-type generators use an X-basis ancilla with CNOTs fanning out of it;
    Z-type generators use a Z-basis ancilla with CNOTs fanning into it.
    """
    ops: list[tuple] = []
    for g, sup in enumerate(GENERATOR_SUPPORTS):
        anc = block.ancillas[g]
        ops.append(("PREP_X", anc))
        ops.extend(("CNOT", anc, block.data[q]) for q in sup)
        ops.append(("MEAS_X", anc))
    for g, sup in enumerate(GENERATOR_SUPPORTS):
        anc = block.ancillas[3 + g]
        ops.append(("PREP_Z", anc))
        ops.extend(("CNOT", block.data[q], anc) for q in sup)
        ops.append(("MEAS_Z", anc))
    return ops


# ---------------------------------------------------------------------------
# circuit-level engine


# Op kinds, in the order the schedule lists the ops of one layer. The ops of
# one layer touch disjoint qubits, so they commute.
_CNOT, _H, _PREP, _MEAS_Z, _MEAS_X = range(5)
_KINDS = {"CNOT": _CNOT, "H": _H, "PREP_Z": _PREP, "PREP_X": _PREP,
          "MEAS_Z": _MEAS_Z, "MEAS_X": _MEAS_X}
_NOISE_BATCH = 1 << 12  # most gaps drawn at once, which bounds the memory of the noise


def _schedule(ops, n_qubits: int):
    """Sort the ops on a register of n_qubits into steps of one (ASAP layer, kind) each.

    An op's layer is one more than the last layer of any of its qubits.
    Returns the sort permutation (each sorted op's index in `ops`);
    then, in sorted order, each op's first qubit, second qubit (the first
    again for a one-qubit op), measurement index in op order and whether it
    is a CNOT; then the step bounds and kinds.
    """
    last = [0] * n_qubits
    rows = []
    for op in ops:
        kind = _KINDS.get(op[0])
        if kind is None:
            raise ValueError(f"unknown op {op}")
        a = b = op[1]
        if kind == _CNOT:
            b = op[2]
        layer = last[a] = last[b] = max(last[a], last[b]) + 1
        rows.append((layer, kind, a, b))
    layer, kind, a, b = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    meas = np.cumsum(kind >= _MEAS_Z) - 1
    order = np.lexsort((kind, layer))
    keys = np.stack((layer, kind))[:, order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1).any(axis=0))
    ends = np.append(starts[1:], order.size)
    return (order, a[order], b[order], meas[order], kind[order] == _CNOT, starts.tolist(),
            ends.tolist(), kind[order][starts].tolist())


def _depolarizing_hits(rng: np.random.Generator, rate: np.ndarray, n_trials: int):
    """Depolarizing hits after the CNOTs of a schedule, in batches of (op, trial, pauli).

    Each distinct nonzero rate, in ascending order, draws its own stream:
    position i * n_trials + k stands for the i-th op of that rate in trial
    k, and the positions hit come from cumulative geometric gaps at the
    rate, so the draws scale with the hits. A hit takes one of the 15
    nontrivial two-qubit Paulis uniformly, `pauli` being the number in
    1..15 with bits (x_c, z_c, x_t, z_t) from the highest down. Within a
    rate the hits come in op order.
    """
    # a set, not np.unique, which would import numpy.ma
    for p in sorted(set(rate[rate > 0.0].tolist())):
        ops = np.flatnonzero(rate == p)
        end = ops.size * n_trials  # one past the last position
        last = -1                  # every hit up to here is drawn
        while last < end - 1:
            mean = (end - 1 - last) * p
            size = int(min(mean + 6.0 * math.sqrt(mean) + 16, _NOISE_BATCH))
            # a gap capped at end + 1 still lands past the end, and the sums
            # stay far from overflow at any rate
            pos = last + np.cumsum(np.minimum(rng.geometric(p, size), end + 1))
            last = int(pos[-1])
            i, trial = np.divmod(pos[:np.searchsorted(pos, end)], n_trials)
            yield ops[i], trial, rng.integers(1, 16, size=i.size)


class CompiledCircuit:
    """A circuit for simulate_frames: every op, and what a Pauli after each CNOT flips.

    `ops` lists every op of the circuit, which ends with the extraction of
    every block of `blocks`. arrays() returns (a, b, row, table): CNOT i of
    the schedule has control a[i] and target b[i], and table[row[i]] holds
    the decoder bits that a Pauli right after it flips (see _compile). A
    folded mirror (see compile_mirror) stores the rows of one segment for
    all its leading segments, so their CNOTs share rows. The first call of
    arrays(), from whichever chunk reaches it first, compiles them, so the
    compile is timed with the frame engine; every later call, on any
    thread and for any layout with these blocks, shares them.
    """

    def __init__(self, ops: tuple, blocks: tuple[SteaneBlock, ...], build):
        self.ops, self.blocks = ops, blocks
        self._build, self._arrays = build, None
        self._lock = threading.Lock()

    def arrays(self):
        with self._lock:
            if self._arrays is None:
                self._arrays = self._build()
                self._build = None
            return self._arrays


def _compile(ops, n_qubits: int, blocks: tuple[SteaneBlock, ...]):
    """The CNOTs of the ops on a register of n_qubits in schedule order, and
    what an error after each one flips.

    The ops must end with the extraction of every block. The decoder
    reads one byte per block: bits 0..5 the readouts of its six extraction
    generators (the last 6 * n_blocks measurements, block by block, X-type
    generators first), bit 6 its data X parity and bit 7 its data Z parity.
    Block i is byte i % 8 of the little-endian `uint64` word i // 8. Frames
    are linear over GF(2), so one backward pass over the schedule finds,
    for every frame bit, the decoder bits that an error on it would flip: a
    CNOT (c, t) xors the x_t and z_c rows into x_c and z_t, H swaps x and
    z, a preparation clears both, and a measurement adds its readout bit to
    the frame bit it reads. table[i, r] holds the flips of a Pauli right
    after CNOT i: rows 0..3 I, Z, X, Y on the control and rows 4..7 the
    same on the target, so the two-qubit Pauli with bits (x_c, z_c, x_t,
    z_t) from the highest down, number p, flips table[i, p >> 2] ^
    table[i, 4 + (p & 3)]. Other ops carry no noise and get no row. Returns
    each CNOT's index in `ops`, its control and target, and the table;
    nothing depends on where the qubits live or on the noise.
    """
    order, a, b, meas, cnot, starts, ends, kinds = _schedule(ops, n_qubits)
    nq, nb = n_qubits, len(blocks)
    n_meas = int(meas.max(initial=-1)) + 1
    if n_meas < 6 * nb:
        raise ValueError("missing extraction measurements")
    octets = 8 * ((nb + 7) // 8)
    data = np.array([block.data for block in blocks]).reshape(nb, N_DATA)
    # rows 0..nq-1 hold what an x error flips, rows nq.. what a z error does
    flips = np.zeros((2 * nq, octets), dtype=np.uint8)
    flips[data, np.arange(nb)[:, None]] = 1 << 6
    flips[data + nq, np.arange(nb)[:, None]] = 1 << 7
    k = np.arange(6 * nb)  # extraction readout k is generator k % 6 of block k // 6
    readout = np.zeros((n_meas, octets), dtype=np.uint8)
    readout[n_meas - 6 * nb + k, k // 6] = 1 << k % 6
    flips, readout = flips.view("<u8"), readout.view("<u8")
    src, dst = np.stack((a, b + nq)), np.stack((b, a + nq))
    paulis = np.stack((a, a + nq, b, b + nq), axis=1)
    first = np.cumsum(cnot) - cnot  # the number of each CNOT, in schedule order
    table = np.zeros((int(cnot.sum()), 8, octets // 8), dtype="<u8")
    for lo, hi, kind in zip(starts[::-1], ends[::-1], kinds[::-1]):
        rows = src[:, lo:hi]
        if kind == _CNOT:
            table[first[lo]:first[lo] + hi - lo, [2, 1, 6, 5]] = flips[paulis[lo:hi]]
            flips[rows] ^= flips[dst[:, lo:hi]]
        elif kind == _H:
            flips[rows] = flips[rows[::-1]]
        elif kind == _PREP:
            flips[rows] = 0
        else:
            flips[rows[0 if kind == _MEAS_Z else 1]] ^= readout[meas[lo:hi]]
    for y in (3, 7):  # Y = X Z, and the flips of a product are the xor
        np.bitwise_xor(table[:, y - 1], table[:, y - 2], out=table[:, y])
    return order[cnot], a[cnot], b[cnot], table


def compile_circuit(ops, layout: MachineLayout) -> CompiledCircuit:
    """The ops on the layout's register, which must end with the extraction
    of every block of the layout, to be compiled whole."""
    ops = tuple(ops)

    def build():
        _, a, b, table = _compile(ops, layout.n_qubits, layout.blocks)
        return a, b, np.arange(a.size), table
    return CompiledCircuit(ops, layout.blocks, build)


def compile_mirror(layout: MachineLayout, depth: int) -> CompiledCircuit:
    """build_ghz_mirror(layout, depth) and the extraction of every block, to be compiled folded.

    Its arrays equal those of compile_circuit on the whole circuit, bit for
    bit, but only the ops from the last segment with all its CNOT layers on
    compile: fewer than two segments' CNOTs and the extraction's, at any
    depth. Each whole segment is the identity, and the CNOTs of the
    segments before run one segment after another, ahead of every other
    CNOT in the schedule. So an error after one of them flips what an error
    after the same CNOT of the first compiled segment flips, and they reuse
    its rows by index, as Stim folds a REPEAT block into a detector error
    model (Gidney 2021, Quantum 5, 497).
    """
    ops = build_ghz_mirror(layout, depth)
    for block in layout.blocks:
        ops += syndrome_extraction_circuit(block)
    ops = tuple(ops)
    layers = 2 * (len(layout.blocks) - 1)  # CNOT layers of a whole segment
    period = N_DATA * layers               # its CNOTs
    span = period + 2 * N_DATA             # its ops, the two H layers included
    repeats = max(depth // layers - 1, 0)  # whole segments before the tail

    def build():
        order, a, b, table = _compile(ops[repeats * span:], layout.n_qubits, layout.blocks)
        # the tail's CNOTs are in schedule order, and its first ones in
        # circuit order are those of its first segment
        segment = np.argsort(order)[:period]
        return (np.concatenate((np.tile(a[segment], repeats), a)),
                np.concatenate((np.tile(b[segment], repeats), b)),
                np.concatenate((np.tile(segment, repeats), np.arange(a.size))), table)
    return CompiledCircuit(ops, layout.blocks, build)


def simulate_frames(circuit: CompiledCircuit, layout: MachineLayout, noise: NoiseSpec,
                    rng: np.random.Generator, n_trials: int):
    """Sample the decoder's inputs after `n_trials` noisy runs of the compiled circuit.

    Each CNOT is followed, with the locality-dependent probability, by one
    of the 15 nontrivial two-qubit Paulis applied uniformly at random. The
    circuit must have been made for the layout's blocks; where their qubits
    live may differ. Each trial's decoder bits are the xor of the table
    rows of its hits (see _compile), which gives the same bits as
    propagating the frames.

    Returns (x, z, syndromes), each of shape (n_blocks, n_trials) and dtype
    uint8: the data X and Z parities (0 or 1) of each block, and its six
    extraction readouts, generator g at bit g.
    """
    if circuit.blocks != layout.blocks:
        raise ValueError("the circuit was compiled for other blocks")
    a, b, row, table = circuit.arrays()
    proc = np.asarray(layout.qubit_processor)
    rate = np.where(proc[a] != proc[b], noise.p_remote, noise.p_local)
    mask = np.zeros((n_trials, table.shape[2]), dtype="<u8")
    for op, trial, pauli in _depolarizing_hits(rng, rate, n_trials):
        r = row[op]
        # unbuffered, because several hits can share a trial
        np.bitwise_xor.at(mask, trial, table[r, pauli >> 2] ^ table[r, 4 + (pauli & 3)])
    octets = mask.view(np.uint8)[:, :len(layout.blocks)].T.copy()
    return octets >> 6 & 1, octets >> 7, octets & 63


def run_circuit_trials(circuit: CompiledCircuit, layout: MachineLayout, noise: NoiseSpec,
                       rng: np.random.Generator, n_trials: int):
    """Run the compiled circuit, which ends with the extraction of every
    block, and decode every block.

    Returns (x_flips, z_flips) boolean arrays of shape (n_blocks, n_trials).
    """
    x, z, syndromes = simulate_frames(circuit, layout, noise, rng, n_trials)
    # lookup decoding flips one data qubit iff the syndrome is nonzero, so the
    # logical flip is the data parity XOR [syndrome != 0]; X-type generators
    # (bits 0..2) flag Z errors, Z-type generators (bits 3..5) flag X errors
    x_flips = x ^ (syndromes > 7)
    z_flips = z ^ (syndromes & 7 > 0)
    return x_flips.astype(bool), z_flips.astype(bool)


# ---------------------------------------------------------------------------
# code-capacity mode


# Exact evaluator. A Pauli pattern on a block is a pair of 7-bit masks
# (x, z). L stacks the three Hamming checks and an all-ones parity row, so
# qubit q's column of L is the code (q+1) | 8. Lookup decoding flips one
# qubit iff the syndrome is nonzero, so the logical flip of a mask is parity
# XOR [syndrome != 0]: _FLIP[x] for an X flip, _FLIP[z] for a Z flip. A
# pattern's probability depends only on its support s = x | z, as
# prod_{q in s} eps_q/3 * prod_{q not in s} (1 - eps_q), so each failure
# probability is a sum over the 128 supports of an integer count times that
# monomial. _SUPPORT_COUNTS[k, s] counts the patterns of support s that flip
# X (k = 0), both (k = 1) and either (k = 2).
_COLUMNS = [(q + 1) | 8 for q in range(N_DATA)]
_MASKS = np.arange(1 << N_DATA)
_BITS = _MASKS[:, None] >> np.arange(N_DATA) & 1
_CODES = np.bitwise_xor.reduce(_BITS * _COLUMNS, axis=1)
_FLIP = ((_CODES & 8) > 0) ^ ((_CODES & 7) > 0)
_FX, _FZ = np.broadcast_arrays(_FLIP[:, None], _FLIP)  # flips of every (x, z) pair
_SUPPORT_COUNTS = np.stack([
    np.bincount((_MASKS[:, None] | _MASKS).ravel(), flips.ravel(), 1 << N_DATA)
    for flips in (_FX, _FX & _FZ, _FX | _FZ)])
_BLOCK = 256  # rate vectors per step, so that the (128, _BLOCK) monomials stay in cache

# Uniform rate eps: a support of weight w has monomial (eps/3)^w (1 - eps)^(7 - w),
# so 3^7 p_k = sum_w N[k, w] eps^w (3 - 3 eps)^(7 - w) with _WEIGHT_COUNTS = N the
# support counts summed by weight. _UNIFORM_POLY[k, d] is p_k's coefficient of
# eps^d, an exact integer divided once by 3^7; those of eps^0 and eps^1 are 0.
_WEIGHT_COUNTS = np.stack([np.bincount(_BITS.sum(axis=1), c, N_DATA + 1) for c in _SUPPORT_COUNTS])
_UNIFORM_POLY = np.array([[sum(int(n[w]) * 3 ** (N_DATA - w) * (-1) ** (d - w)
                               * math.comb(N_DATA - w, d - w) for w in range(d + 1))
                           for d in range(N_DATA + 1)] for n in _WEIGHT_COUNTS]) / 3**N_DATA


def steane_failure_probabilities_batch(eps_matrix: np.ndarray) -> dict:
    """Vectorized exact failure probabilities for many rate vectors.

    eps_matrix has shape (m, 7); returns arrays of length m. The 128
    support monomials of a rate vector are built by doubling, qubit q
    splitting each into its clean (1 - eps_q) and hit (eps_q / 3) halves,
    and one product with _SUPPORT_COUNTS gives p_x, p_both and p_any. Only
    nonnegative terms are added, so the results keep relative precision
    however small they are.
    """
    eps = np.asarray(eps_matrix, dtype=float)
    m = eps.shape[0]
    out = np.empty((3, m))
    mono = np.empty((1 << N_DATA, _BLOCK))
    for lo in range(0, m, _BLOCK):
        e = eps[lo:lo + _BLOCK].T
        block = mono[:, :e.shape[1]]
        block[0] = 1.0
        hit, clean = e / 3.0, 1.0 - e
        for q in range(N_DATA):
            w = 1 << q
            np.multiply(block[:w], hit[q], out=block[w:2 * w])
            block[:w] *= clean[q]
        out[:, lo:lo + _BLOCK] = _SUPPORT_COUNTS @ block
    p_x, p_both, p_any = out
    return {"p_x": p_x, "p_z": p_x.copy(), "p_both": p_both, "p_any": p_any}


def steane_failure_probabilities_uniform(eps) -> dict:
    """Exact failure probabilities when all seven qubits share one rate.

    Evaluates p = eps^2 H(eps), H the Horner form of _UNIFORM_POLY from
    eps^2 up, in place on the (3, n) output, so no temporary is larger than
    eps; the results keep relative precision at tiny rates and are exactly 0
    at eps = 0. Results have the shape of eps, at least one dimension.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    flat = eps.ravel()
    out = np.empty((3, flat.size))
    out[:] = _UNIFORM_POLY[:, N_DATA, None]
    for d in range(N_DATA - 1, 1, -1):
        out *= flat
        out += _UNIFORM_POLY[:, d, None]
    out *= flat
    out *= flat
    p_x, p_both, p_any = (a.reshape(eps.shape) for a in out)
    return {"p_x": p_x, "p_z": p_x.copy(), "p_both": p_both, "p_any": p_any}

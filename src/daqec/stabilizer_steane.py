"""Pauli-frame Monte Carlo for [[7,1,3]] Steane code blocks on a multi-processor machine.

Errors are tracked as X/Z bits per physical qubit and conjugated through
H and CNOT; two-qubit gates are followed by depolarizing noise whose
strength depends on whether the gate crosses a processor boundary. The
engine compiles each circuit once, by one backward pass over its ops,
into the decoder bits that an error after each CNOT flips, which layouts
with the same blocks share; a mirrored circuit compiles only its last two
segments, whose rows the identity segments before them repeat. A trial
then draws only its noise hits, one stream per distinct rate, and xors
the table row of each hit's CNOT and Pauli.
The module provides the standard seven-processor layouts (one block per
processor vs. fully distributed), a mirrored GHZ-type transversal circuit
of configurable depth, terminal syndrome extraction with lookup decoding,
and an exact per-block failure-probability evaluator for code-capacity
noise with processor-dependent single-qubit rates: a sum over the 128
error supports of integer pattern counts times nonnegative monomials, which
keeps relative precision.
"""

from __future__ import annotations

import math
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
    """Fully distributed blocks on max(7, n_blocks) processors.

    Data qubit j of every block sits on processor j; ancilla s of block i
    sits on processor (i+s+1) mod n_blocks, which balances to 6 ancillas on
    each of the first n_blocks processors. So processor j holds n_blocks
    data qubits if j < 7 and 6 ancillas if j < n_blocks: 13 qubits each
    only at 7 blocks.
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
    data = [block.data for block in layout.blocks]
    hadamards = [("H", q) for q in data[0]]
    chain = [(a, a + 1) for a in range(nb - 1)]
    segment = hadamards + [("CNOT", data[a][j], data[b][j])
                           for a, b in chain + chain[::-1] for j in range(N_DATA)] + hadamards
    # whole segments share their op tuples; the partial one stops after
    # its last CNOT layer, and a whole last one before its closing H layer
    whole, part = divmod(depth, 2 * (nb - 1))
    ops = segment * whole
    if part:
        ops += segment[:N_DATA * (1 + part)]
    else:
        del ops[-N_DATA:]
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


_NOISE_BATCH = 1 << 12  # most gaps drawn at once, which bounds the memory of the noise


def _depolarizing_hits(rng: np.random.Generator, rate: np.ndarray, n_trials: int):
    """Depolarizing hits after each CNOT of a circuit, in batches of (op, trial, pauli).

    Each distinct nonzero rate, in ascending order, draws its own stream:
    position i * n_trials + k stands for the i-th op of that rate in trial
    k, and the positions hit come from cumulative geometric gaps at the
    rate, so the draws scale with the hits. A hit takes one of the 15
    nontrivial two-qubit Paulis uniformly, `pauli` being the number in
    1..15 with bits (x_c, z_c, x_t, z_t) from the highest down. `rate`
    lists the CNOTs in op order, and within a rate the hits come in that
    order.
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


@dataclass(frozen=True, eq=False)
class CompiledCircuit:
    """A circuit for simulate_frames: every op, and what a Pauli after each CNOT flips.

    `ops` lists every op of the circuit, which ends with the extraction of
    every block of `blocks`. CNOT i of the circuit, in op order, has
    control a[i] and target b[i], and table[row[i], p] holds the decoder
    bits that the two-qubit Pauli number p, in 0..15, flips right after it
    (see _compile). A folded mirror (see compile_mirror) stores the rows of
    one segment for all its leading segments, so their CNOTs share rows.
    The four arrays are read-only, so any number of threads, and every
    layout with these blocks, can share one compile.
    """

    ops: tuple
    blocks: tuple[SteaneBlock, ...]
    a: np.ndarray
    b: np.ndarray
    row: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        for array in (self.a, self.b, self.row, self.table):
            array.flags.writeable = False


def _compile(ops, n_qubits: int, blocks: tuple[SteaneBlock, ...]):
    """The CNOTs of the ops on a register of n_qubits, in op order, and what
    an error after each one flips.

    The ops must end with the extraction of every block. The decoder reads
    byte i of little-endian `uint64` words for block i: bits 0..5 the
    readouts of its six extraction generators (the last 6 * n_blocks
    measurements, block by block, X-type generators first), bit 6 its data
    X parity and bit 7 its data Z parity. Frames are linear over GF(2), so
    one backward pass over the ops finds what an error on each frame bit
    would flip, as one int with bit 8 * block + j: a CNOT (c, t) xors x_t
    into x_c and z_c into z_t, H swaps x and z, a preparation clears both,
    and a measurement adds its readout bit to the frame bit it reads.
    table[i, p] holds the flips of the two-qubit Pauli number p right after
    CNOT i, p in 0..15 having bits (x_c, z_c, x_t, z_t) from the highest
    down, so a hit is one row lookup. The rows of the four single bits come
    from the pass, reversed into op order; every other row is the xor of
    those of its set bits, as the flips of a product are, and row 0 (the
    identity) stays zero. Other ops carry no noise and get no row. Returns
    each CNOT's control and target, and the table; nothing depends on where
    the qubits live or on the noise.
    """
    nq, nb = n_qubits, len(blocks)
    flips = [0] * (2 * nq)  # what an x error on qubit q flips at q, a z error at nq + q
    for i, block in enumerate(blocks):
        for q in block.data:
            flips[q] |= 1 << 8 * i + 6
            flips[nq + q] |= 1 << 8 * i + 7
    readout = 6 * nb  # extraction readout k is generator k % 6 of block k // 6
    rows = []         # each CNOT's flips of (x_c, z_c, x_t, z_t), the last CNOT first
    for op in reversed(ops):
        kind, c, t = op[0], op[1], op[-1]  # t is c for a one-qubit op
        if kind == "CNOT":
            rows += flips[c], flips[nq + c], flips[t], flips[nq + t]
            flips[c] ^= flips[t]
            flips[nq + t] ^= flips[nq + c]
        elif kind == "H":
            flips[c], flips[nq + c] = flips[nq + c], flips[c]
        elif kind in ("PREP_Z", "PREP_X"):
            flips[c] = flips[nq + c] = 0
        elif kind not in ("MEAS_Z", "MEAS_X"):
            raise ValueError(f"unknown op {op}")
        elif readout:  # a measurement of the extraction, counting back
            readout -= 1
            flips[c if kind == "MEAS_Z" else nq + c] ^= 1 << 8 * (readout // 6) + readout % 6
    if readout:
        raise ValueError("missing extraction measurements")
    a, b = np.array([op[1:] for op in ops if op[0] == "CNOT"], dtype=np.int64).reshape(-1, 2).T
    words = (nb + 7) // 8
    single = np.frombuffer(b"".join(f.to_bytes(8 * words, "little") for f in rows), "<u8")
    table = np.zeros((a.size, 16, words), dtype="<u8")
    table[:, [8, 4, 2, 1]] = single.reshape(a.size, 4, words)[::-1]
    for bit in (2, 4, 8):  # rows bit + 1 .. 2 bit - 1 from rows bit and 1 .. bit - 1
        np.bitwise_xor(table[:, bit, None], table[:, 1:bit], out=table[:, bit + 1:2 * bit])
    return a, b, table


def compile_mirror(layout: MachineLayout, depth: int) -> CompiledCircuit:
    """build_ghz_mirror(layout, depth) and the extraction of every block, compiled folded.

    Its arrays equal those of the whole circuit's compile, bit for bit, but
    only the ops from the last segment with all its CNOT layers on
    compile: fewer than two segments' CNOTs and the extraction's, at any
    depth. Each whole segment is the identity, so an error after a CNOT of
    a segment before the tail flips what an error after the same CNOT of
    the tail's first segment flips, and they reuse its rows by index, as
    Stim folds a REPEAT block into a detector error model (Gidney 2021,
    Quantum 5, 497). The compile runs here, once; the result is read-only,
    so every chunk of every layout with these blocks shares it.
    """
    ops = build_ghz_mirror(layout, depth)
    for block in layout.blocks:
        ops += syndrome_extraction_circuit(block)
    ops = tuple(ops)
    layers = 2 * (len(layout.blocks) - 1)  # CNOT layers of a whole segment
    period = N_DATA * layers               # its CNOTs
    span = period + 2 * N_DATA             # its ops, the two H layers included
    repeats = max(depth // layers - 1, 0)  # whole segments before the tail
    a, b, table = _compile(ops[repeats * span:], layout.n_qubits, layout.blocks)
    # the tail's first `period` CNOTs are those of its first segment
    return CompiledCircuit(ops, layout.blocks,
                           np.concatenate((np.tile(a[:period], repeats), a)),
                           np.concatenate((np.tile(b[:period], repeats), b)),
                           np.concatenate((np.tile(np.arange(period), repeats),
                                           np.arange(a.size))), table)


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
    row, table = circuit.row, circuit.table
    proc = np.asarray(layout.qubit_processor)
    rate = np.where(proc[circuit.a] != proc[circuit.b], noise.p_remote, noise.p_local)
    flat = table.reshape(-1, table.shape[2])  # a view: CNOT row r, Pauli p at r * 16 + p
    mask = np.zeros((n_trials, table.shape[2]), dtype="<u8")
    for op, trial, pauli in _depolarizing_hits(rng, rate, n_trials):
        # unbuffered, because several hits can share a trial
        np.bitwise_xor.at(mask, trial, flat[row[op] * 16 + pauli])
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
# (x, z). Lookup decoding flips one qubit iff the HAMMING_CHECK syndrome is
# nonzero, so a mask leaves a logical flip iff its parity differs from
# [syndrome != 0]: _FLIP[x] for an X flip, _FLIP[z] for a Z flip. A
# pattern's probability depends only on its support s = x | z, as
# prod_{q in s} eps_q/3 * prod_{q not in s} (1 - eps_q), so the block's
# failure probability is a sum over the 128 supports of an integer count
# times that monomial. _SUPPORT_COUNTS[s] counts the patterns of support s
# that flip X or Z.
_MASKS = np.arange(1 << N_DATA)
_BITS = _MASKS[:, None] >> np.arange(N_DATA) & 1
_FLIP = _BITS.sum(axis=1) % 2 != (_BITS @ HAMMING_CHECK.T % 2).any(axis=1)
_SUPPORT_COUNTS = np.bincount((_MASKS[:, None] | _MASKS).ravel(),
                              (_FLIP[:, None] | _FLIP).ravel(), 1 << N_DATA)
_BLOCK = 256  # rate vectors per step, so that the (128, _BLOCK) monomials stay in cache

# Uniform rate eps: a support of weight w has monomial (eps/3)^w (1 - eps)^(7 - w),
# so 3^7 p = sum_w N[w] eps^w (3 - 3 eps)^(7 - w) with _WEIGHT_COUNTS = N the
# support counts summed by weight. _UNIFORM_POLY[d] is p's coefficient of
# eps^d, an exact integer divided once by 3^7; those of eps^0 and eps^1 are 0.
_WEIGHT_COUNTS = np.bincount(_BITS.sum(axis=1), _SUPPORT_COUNTS, N_DATA + 1)
_UNIFORM_POLY = np.array([sum(int(_WEIGHT_COUNTS[w]) * 3 ** (N_DATA - w) * (-1) ** (d - w)
                              * math.comb(N_DATA - w, d - w) for w in range(d + 1))
                          for d in range(N_DATA + 1)]) / 3**N_DATA


def steane_failure_probabilities_batch(eps_matrix: np.ndarray) -> np.ndarray:
    """Vectorized exact block-failure probabilities for many rate vectors.

    eps_matrix has shape (m, 7); returns the probability, of shape (m,),
    that decoding leaves a logical X or Z flip. The 128 support monomials
    of a rate vector are built by doubling, qubit q splitting each into its
    clean (1 - eps_q) and hit (eps_q / 3) halves, and one product with
    _SUPPORT_COUNTS sums them. Only nonnegative terms are added, so the
    results keep relative precision however small they are.
    """
    eps = np.asarray(eps_matrix, dtype=float)
    m = eps.shape[0]
    out = np.empty(m)
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
        out[lo:lo + _BLOCK] = _SUPPORT_COUNTS @ block
    return out


def steane_failure_probabilities_uniform(eps) -> np.ndarray:
    """Exact block-failure probabilities when all seven qubits share one rate.

    Evaluates p = eps^2 H(eps), H the Horner form of _UNIFORM_POLY from
    eps^2 up, in place on the output, so no temporary is larger than eps;
    the results keep relative precision at tiny rates and are exactly 0 at
    eps = 0. The result has the shape of eps, at least one dimension.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    out = np.full(eps.shape, _UNIFORM_POLY[N_DATA])
    for d in range(N_DATA - 1, 1, -1):
        out *= eps
        out += _UNIFORM_POLY[d]
    out *= eps
    out *= eps
    return out

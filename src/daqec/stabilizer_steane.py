"""Pauli-frame Monte Carlo for [[7,1,3]] Steane code blocks on a multi-processor machine.

Errors are tracked as X/Z bits per physical qubit and conjugated through
H and CNOT; two-qubit gates are followed by depolarizing noise whose
strength depends on whether the gate crosses a processor boundary. The
module provides the standard seven-processor layouts (one block per
processor vs. fully distributed), a mirrored GHZ-type transversal circuit
of configurable depth, terminal syndrome extraction with lookup decoding,
and an exact per-block failure-probability evaluator for code-capacity
noise with processor-dependent single-qubit rates, a 256-state transfer
that adds only nonnegative terms and so keeps relative precision.
"""

from __future__ import annotations

import itertools
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
# syndromes and lookup decoding


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


def count_remote_gates(circuit: CliffordCircuit, layout: MachineLayout) -> int:
    proc = layout.qubit_processor
    return sum(1 for op in circuit.ops if op[0] == "CNOT" and proc[op[1]] != proc[op[2]])


# ---------------------------------------------------------------------------
# circuit-level engine


def simulate_frames(circuit: CliffordCircuit, layout: MachineLayout, noise: NoiseSpec,
                    rng: np.random.Generator, n_trials: int,
                    initial: PauliFrame | None = None):
    """Propagate `n_trials` independent Pauli frames through the circuit.

    Each CNOT is followed, with the locality-dependent probability, by one
    of the 15 nontrivial two-qubit Paulis applied uniformly at random.
    Preparations reset a qubit's frame; measurements record the bit that
    would flip the ideal outcome. Frames start trivial unless an initial
    frame (broadcast to all trials) is injected. Returns (x, z, measured)
    with x/z of shape (n_trials, n_qubits) and measured a list in op order.
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
    meas = measured[len(measured) - 6 * nb:]
    x_flips = np.zeros((nb, n_trials), dtype=bool)
    z_flips = np.zeros((nb, n_trials), dtype=bool)
    for b, block in enumerate(layout.blocks):
        mb = meas[6 * b: 6 * b + 6]
        # lookup decoding flips one data qubit iff the syndrome is nonzero, so the
        # logical flip is the data parity XOR [syndrome != 0]; X-type generators
        # flag Z errors, Z-type generators flag X errors
        data = list(block.data)
        z_flips[b] = np.bitwise_xor.reduce(z[:, data], axis=1) ^ (mb[0] | mb[1] | mb[2])
        x_flips[b] = np.bitwise_xor.reduce(x[:, data], axis=1) ^ (mb[3] | mb[4] | mb[5])
    return x_flips, z_flips


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
    makes sweeping many uniform rates cheap.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    w = np.arange(N_DATA + 1)
    p = (2.0 * eps / 3.0)[:, None]
    p_x = (_CX_W * p**w * (1.0 - p) ** (N_DATA - w)).sum(axis=1)
    py = (eps / 3.0)[:, None]
    p_both = (_CB_W * py**w * (1.0 - eps[:, None]) ** (N_DATA - w)).sum(axis=1)
    p_any = 2.0 * p_x - p_both
    return {"p_x": p_x, "p_z": p_x.copy(), "p_both": p_both, "p_any": p_any}

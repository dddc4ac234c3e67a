"""Circuits for the qutrit W-type erasure code.

The code stores one logical qubit in n qutrits as a uniform superposition
of "the qubit is at site i, every other site is flagged empty":

    (1/sqrt(n)) * (|psi,2,...,2> + |2,psi,2,...,2> + ... + |2,...,2,psi>)

where level |2> marks "no logical content here". The module provides the
analog encoders, an alternative encoder built only from conditional swaps
and flag gates, erasure, a measurement-based decoder, a measurement-free
elective decoder, and transversal logical gates. Every circuit is a list
of (gate, sites) ops executed on the mixed-radix simulator, so gate
budgets can be audited directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixed_radix_sim import (
    GateSpec,
    MixedRadixState,
    RadixVector,
    apply_unitary,
    basis_map_gate,
    basis_state,
    basis_sum_state,
    embed_unitary,
    fidelity,
    measure_sites,
    partial_trace,
    pure_state,
)

BOT = 2           # flag level of the physical qutrits
AMP_BRANCH = 1e-12  # branch weights below this are dropped


@dataclass(frozen=True)
class WCodeParams:
    """Block configuration: n physical (d_L+1)-level systems per logical qudit."""

    n: int
    d_L: int = 2
    k: int = 1  # number of encoded logical qubits (d_L = 2**k)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("block size must be at least 2")
        if self.d_L != 2**self.k:
            raise ValueError("logical dimension must be 2**k")

    @property
    def d(self) -> int:
        return self.d_L + 1

    @property
    def bot_level(self) -> int:
        return self.d_L


@dataclass(frozen=True)
class LogicalInput:
    """Unit-norm logical amplitude vector."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        norm2 = sum(abs(a) ** 2 for a in amps)
        if abs(norm2 - 1.0) > 1e-10:
            raise ValueError(f"logical input not unit norm: {norm2}")

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


def _as_logical(psi) -> np.ndarray:
    if isinstance(psi, LogicalInput):
        return psi.vector
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    norm2 = float(np.sum(np.abs(vec) ** 2))
    if abs(norm2 - 1.0) > 1e-10:
        raise ValueError(f"logical input not unit norm: {norm2}")
    return vec


@dataclass(frozen=True)
class ErasurePattern:
    """Set of erased site indices within one block."""

    erased: frozenset[int]

    def __init__(self, erased):
        object.__setattr__(self, "erased", frozenset(int(i) for i in erased))

    @property
    def n_e(self) -> int:
        return len(self.erased)


@dataclass(frozen=True)
class GateOp:
    gate: GateSpec
    sites: tuple[int, ...]
    kind: str  # "cnot" | "cswap" | "swap" | "1q"


def apply_ops(state: MixedRadixState, ops) -> MixedRadixState:
    for op in ops:
        state = apply_unitary(state, op.gate, op.sites)
    return state


@dataclass
class DecodeBranch:
    outcome: int                 # ancilla readout as an integer, 0 = heralded failure
    probability: float
    post_state: MixedRadixState  # qutrit register only, logical content at site 0
    psi_site: int | None         # site that held the logical state (None on failure)


@dataclass
class DecodeOutcome:
    branches: list[DecodeBranch]
    success_probability: float
    heralded_failure_probability: float
    ancilla_count: int
    cnot_count: int


# ---------------------------------------------------------------------------
# elementary gates


def gate_u02() -> GateSpec:
    """Qutrit involution swapping |0> and |2>, fixing |1>."""
    return basis_map_gate((3,), lambda x: (2 - x[0],))


def gate_uenc(psi) -> GateSpec:
    """Qutrit unitary |psi><1| + |psi_perp><0| + |2><2|.

    psi_perp is the canonical completion (c1*, -c0*), which makes the
    encoder deterministic; codewords do not depend on this choice.
    """
    c = _as_logical(psi)
    if c.shape != (2,):
        raise ValueError("encoder input must be a single-qubit state")
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1], m[1, 1] = c[0], c[1]                       # |psi><1|
    m[0, 0], m[1, 0] = np.conj(c[1]), -np.conj(c[0])    # |psi_perp><0|
    m[2, 2] = 1.0
    return GateSpec(m, (3,))


def gate_venc(phi) -> GateSpec:
    """Second-qubit encoder, same structure as gate_uenc."""
    return gate_uenc(phi)


def controlled_level_not(level: int, control_dim: int = 3) -> GateSpec:
    """Flip a qubit target iff the qudit control sits at the given level."""
    if not 0 <= level < control_dim:
        raise ValueError("control level out of range")
    return basis_map_gate((control_dim, 2), lambda x: (x[0], x[1] ^ (x[0] == level)))


def gate_presence_flag() -> GateSpec:
    """Flip a qubit target iff the qutrit control is not the flag level |2>."""
    return basis_map_gate((3, 2), lambda x: (x[0], x[1] ^ (x[0] != BOT)))


def gate_absence_flag(d: int) -> GateSpec:
    """Flip a qubit target iff the d-level control is in |0>."""
    return controlled_level_not(0, d)


def gate_cswap(d: int) -> GateSpec:
    """Swap two d-level sites conditioned on a qubit control being |1>."""
    return basis_map_gate((2, d, d), lambda x: (1, x[2], x[1]) if x[0] else x)


def gate_swap(d: int) -> GateSpec:
    return basis_map_gate((d, d), lambda x: (x[1], x[0]))


def gate_subspace(u2: np.ndarray, d: int = 3) -> GateSpec:
    """Single-qubit gate embedded in the {|0>,|1>} subspace of a d-level site."""
    return GateSpec(embed_unitary(u2, d), (d,))


_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


def presence_pair(qudit_site: int, ancilla_site: int) -> list[GateOp]:
    """Controlled-on-|0> and controlled-on-|1> NOTs from a qutrit to a qubit.

    Together they flip the ancilla exactly when the qutrit carries logical
    content (level 0 or 1), without entangling the ancilla with which of
    the two levels it is.
    """
    sites = (qudit_site, ancilla_site)
    return [GateOp(controlled_level_not(0), sites, "cnot"),
            GateOp(controlled_level_not(1), sites, "cnot")]


# ---------------------------------------------------------------------------
# register plumbing


def _append_sites(state: MixedRadixState, new_dims: tuple[int, ...],
                  new_amps: np.ndarray) -> MixedRadixState:
    """Tensor fresh sites in a given pure state onto the right of the register."""
    if state.is_density:
        raise ValueError("can only extend pure states")
    radix = RadixVector(state.radix.dims + new_dims)
    return MixedRadixState(radix, np.kron(state.array, new_amps))


def _project_site(state: MixedRadixState, site: int, level: int,
                  atol: float = 1e-9) -> MixedRadixState:
    """Remove a site that is (up to atol) guaranteed to sit at `level`."""
    if state.is_density:
        raise ValueError("can only project pure states")
    dims = state.radix.dims
    psi = state.array.reshape(dims)
    sl = [slice(None)] * len(dims)
    sl[site] = level
    kept = psi[tuple(sl)].reshape(-1)
    norm2 = float(np.sum(np.abs(kept) ** 2))
    if abs(norm2 - 1.0) > atol:
        raise ValueError(f"site {site} not disentangled in level {level} (weight {norm2})")
    new_dims = tuple(d for i, d in enumerate(dims) if i != site)
    return MixedRadixState(RadixVector(new_dims), kept / math.sqrt(norm2))


def _site_reduced(state: MixedRadixState, site: int) -> np.ndarray:
    return partial_trace(state, [site]).array


# ---------------------------------------------------------------------------
# W state preparation


def w_state_vector(n: int, d: int = 2) -> MixedRadixState:
    """Directly constructed size-n W state: uniform single excitation.

    For d > 2 the excitation is uniform over levels 1..d-1 as well as
    over positions, amplitude 1/sqrt(n*(d-1)).
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 sites of dimension >= 2")
    a = 1.0 / math.sqrt(n * (d - 1))
    return basis_sum_state((d,) * n, ((tuple(j if k == i else 0 for k in range(n)), a)
                                      for i in range(n) for j in range(1, d)))


def _uniform_excited_prep(d: int) -> GateSpec:
    """Unitary sending |0> to the uniform superposition t of levels 1..d-1.

    It is the reflection I - v v^dagger with v = |0> - t; v has norm^2 2, so
    column 0 is exactly t.
    """
    v = np.full(d, -1.0 / math.sqrt(d - 1), dtype=complex)
    v[0] = 1.0
    return GateSpec(np.eye(d, dtype=complex) - np.outer(v, v.conj()), (d,))


def prepare_w2(d: int = 2, keep_ancilla: bool = False) -> MixedRadixState:
    """Size-2 W state on two d-level sites.

    For qubits this is the Bell state (|01>+|10>)/sqrt(2), prepared with
    Clifford gates only. For d > 2 a qubit ancilla in |+> conditions a
    swap of the excited site into place and is then disentangled back to
    |0> by a controlled-on-|0> NOT.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if d == 2:
        state = basis_state((2, 2), (0, 1))
        state = apply_unitary(state, GateSpec(_H2, (2,)), [0])
        state = apply_unitary(state, controlled_level_not(1, 2), [0, 1])
        if keep_ancilla:
            raise ValueError("the d=2 Bell preparation uses no ancilla")
        return state
    state = basis_state((d, d), (0, 0))
    state = apply_unitary(state, _uniform_excited_prep(d), [0])
    state = _append_sites(state, (2,), _PLUS)
    state = apply_unitary(state, gate_cswap(d), [2, 0, 1])
    state = apply_unitary(state, gate_absence_flag(d), [0, 2])
    if keep_ancilla:
        return state
    return _project_site(state, 2, 0)


def _doubling_stage(state: MixedRadixState, empty: int, flag: GateSpec) -> MixedRadixState:
    """One doubling step of a block of m equal sites.

    Appends m sites at level `empty` and a qubit ancilla in |+> (site 2m),
    swaps the block onto the new half conditioned on the ancilla, then
    applies `flag` from each new site to the ancilla.
    """
    m = state.n_sites
    d = state.dims[0]
    state = _append_sites(state, (d,) * m, basis_state((d,) * m, (empty,) * m).array)
    state = _append_sites(state, (2,), _PLUS)
    cswap = gate_cswap(d)
    for i in range(m):
        state = apply_unitary(state, cswap, [2 * m, i, m + i])
    for i in range(m, 2 * m):
        state = apply_unitary(state, flag, [i, 2 * m])
    return state


def scale_w(state: MixedRadixState, keep_ancilla: bool = False) -> MixedRadixState:
    """Double a size-n W state to size 2n.

    Uses a single qubit ancilla prepared in |+> that conditions site-wise
    swaps onto n fresh ground-state sites; controlled-on-|0> NOTs from the
    new half (plus a final X when n is odd) return the ancilla to |0>.
    The input must be a W state: fidelity against the direct construction
    is gated at 1 - 1e-8.
    """
    if state.is_density:
        raise ValueError("scaling expects a pure W state")
    dims = state.radix.dims
    d = dims[0]
    n = len(dims)
    if any(dd != d for dd in dims):
        raise ValueError("all sites must share one dimension")
    if fidelity(state, w_state_vector(n, d)) < 1.0 - 1e-8:
        raise ValueError("input is not a W state of this size")
    state = _doubling_stage(state, 0, gate_absence_flag(d))
    if n % 2 == 1:
        state = apply_unitary(state, basis_map_gate((2,), lambda x: (1 - x[0],)), [2 * n])
    if keep_ancilla:
        return state
    return _project_site(state, 2 * n, 0)


def prepare_w(n: int, d: int = 2) -> MixedRadixState:
    """Size-n W state by repeated doubling; n must be a power of two."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"preparation by doubling needs a power-of-two size, got {n}")
    state = prepare_w2(d)
    while state.n_sites < n:
        state = scale_w(state)
    return state


# ---------------------------------------------------------------------------
# encoders


def _cry(theta: float) -> np.ndarray:
    """Controlled Y-rotation on qubits (control |1>)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = np.array([[c, -s], [s, c]])
    return m


def _w3_qubit_state() -> MixedRadixState:
    """Size-3 W state via an excitation-passing cascade.

    The first splitter is a Y-rotation about 2*arccos(1/sqrt(3)); the
    second passes half of the remaining weight along.
    """
    theta = 2.0 * math.acos(1.0 / math.sqrt(3.0))
    state = basis_state((2, 2, 2), (1, 0, 0))
    cnot = controlled_level_not(1, 2)
    state = apply_unitary(state, GateSpec(_cry(theta), (2, 2)), [0, 1])
    state = apply_unitary(state, cnot, [1, 0])
    state = apply_unitary(state, GateSpec(_cry(math.pi / 2), (2, 2)), [1, 2])
    state = apply_unitary(state, cnot, [2, 1])
    return state


def _qubit_w_on_qutrits(n: int) -> MixedRadixState:
    """Qubit W state living in the {0,1} subspace of n qutrit sites.

    Power-of-two sizes run the doubling circuits and n=3 the rotation
    cascade; other sizes fall back to the direct amplitude construction,
    which keeps the full decoder test matrix available.
    """
    if n >= 2 and n & (n - 1) == 0:
        src = prepare_w(n, 2)
    elif n == 3:
        src = _w3_qubit_state()
    else:
        src = w_state_vector(n, 2)
    return basis_sum_state((3,) * n, ((src.radix.levels_of(int(i)), src.array[i])
                                      for i in np.nonzero(np.abs(src.array) > 1e-15)[0]))


def codeword_vector(psi, n: int) -> MixedRadixState:
    """Directly constructed codeword (the test oracle for every encoder)."""
    c = _as_logical(psi)
    return basis_sum_state((3,) * n, ((tuple(level if k == i else BOT for k in range(n)),
                                       c[level] / math.sqrt(n))
                                      for i in range(n) for level in (0, 1)))


def encode(psi, n: int) -> MixedRadixState:
    """Encode one logical qubit: W state, then U02 and U_enc on every site."""
    if n < 2:
        raise ValueError("block size must be at least 2")
    c = _as_logical(psi)
    state = _qubit_w_on_qutrits(n)
    u02 = gate_u02()
    for i in range(n):
        state = apply_unitary(state, u02, [i])
    uenc = gate_uenc(c)
    for i in range(n):
        state = apply_unitary(state, uenc, [i])
    return state


def encode_pair_state(chi, n: int = 4) -> MixedRadixState:
    """Directly constructed two-qubit-block codeword for a joint state chi.

    chi is a 4-amplitude vector on the two logical qubits; the codeword is
    (|chi,2,2> + |2,2,chi>)/sqrt(2) with chi occupying two adjacent sites.
    """
    if n != 4:
        raise ValueError("the two-qubit construction uses four physical sites")
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if abs(float(np.sum(np.abs(chi) ** 2)) - 1.0) > 1e-10:
        raise ValueError("joint logical state must be unit norm")
    terms = []
    for k, pair in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        w = chi[k] / math.sqrt(2)
        terms += [(pair + (BOT, BOT), w), ((BOT, BOT) + pair, w)]
    return basis_sum_state((3,) * 4, terms)


def encode_two(psi, phi, n: int = 4) -> MixedRadixState:
    """Encode two logical qubits into one four-site block.

    A GHZ-type splitter in the qubit subspace puts the pair pattern in
    superposition over the two halves, then U02 and the per-qubit encoders
    U_enc/V_enc act site by site.
    """
    if n != 4:
        raise ValueError("the two-qubit encoder is defined for n=4")
    cpsi = _as_logical(psi)
    cphi = _as_logical(phi)
    state = basis_state((3,) * 4, (0, 0, 0, 0))
    state = apply_unitary(state, gate_subspace(_H2), [0])
    state = apply_unitary(state, controlled_pair_not(1), [0, 1])
    state = apply_unitary(state, controlled_pair_not(0), [0, 2])
    state = apply_unitary(state, controlled_pair_not(1), [2, 3])
    u02 = gate_u02()
    for i in range(4):
        state = apply_unitary(state, u02, [i])
    uenc, venc = gate_uenc(cpsi), gate_venc(cphi)
    for i, g in enumerate((uenc, venc, uenc, venc)):
        state = apply_unitary(state, g, [i])
    return state


def controlled_pair_not(control_level: int) -> GateSpec:
    """Qutrit-qutrit gate: X on the target's {0,1} subspace iff control at level."""
    return basis_map_gate((3, 3), lambda x: (x[0], 1 - x[1])
                          if x[0] == control_level and x[1] < 2 else x)


def encode_alt(psi, n: int, return_ancilla_checks: bool = False):
    """Alternative encoder: repeated doubling of the codeword itself.

    Each stage tensors in as many flagged |2> sites as the current block
    holds plus one fresh qubit ancilla in |+>, swaps the block onto the
    new half conditioned on the ancilla, and flips the ancilla back with
    presence flags from the new half. Only conditional swaps and flag
    gates are used, so the non-Clifford budget is fixed; ancillas end in
    |0> exactly.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"the doubling encoder needs a power-of-two size, got {n}")
    c = _as_logical(psi)
    state = pure_state((3,), np.array([c[0], c[1], 0.0], dtype=complex))
    flag = gate_presence_flag()
    ancilla_checks = []
    while state.n_sites < n:
        state = _doubling_stage(state, BOT, flag)
        anc = state.n_sites - 1
        if return_ancilla_checks:
            ancilla_checks.append(_site_reduced(state, anc))
        state = _project_site(state, anc, 0)
    if return_ancilla_checks:
        return state, ancilla_checks
    return state


def logical_unitary(state: MixedRadixState, u: np.ndarray) -> MixedRadixState:
    """Transversal logical gate: (U + |2><2|) applied to every site."""
    u = np.asarray(u, dtype=complex)
    gate = GateSpec(embed_unitary(u, 3), (3,))
    for i in range(state.n_sites):
        state = apply_unitary(state, gate, [i])
    return state


# ---------------------------------------------------------------------------
# erasure and decoding


def erase(state: MixedRadixState, pattern: ErasurePattern):
    """Trace out the erased sites; their locations stay classical metadata.

    Returns (reduced state on the surviving sites, pattern). Site indices
    of the reduced register are the surviving sites in ascending order.
    """
    n = state.n_sites
    if any(not 0 <= i < n for i in pattern.erased):
        raise ValueError("erasure pattern outside the block")
    if len(pattern.erased) == n:
        raise ValueError("cannot erase every site")
    if not pattern.erased:
        return state, pattern
    keep = [i for i in range(n) if i not in pattern.erased]
    return partial_trace(state, keep), pattern


def _pure_branches(state: MixedRadixState, atol: float = 1e-8):
    """Decompose a state into weighted pure branches.

    Pure states pass through. For densities in the erased-codeword family
    (a codeword branch plus an all-flag branch) the split is read off
    directly; anything else falls back to an eigendecomposition.
    """
    if not state.is_density:
        return [(1.0, state.array)]
    dim = state.radix.total_dim
    rho = state.array
    if all(d == 3 for d in state.radix.dims):
        bot_idx = state.radix.index_of((BOT,) * state.n_sites)
        w_fail = float(rho[bot_idx, bot_idx].real)
        # erasure leaves no coherence between the all-flag branch and the
        # rest; anything else must take the eigendecomposition below
        cross = rho[bot_idx, :].copy()
        cross[bot_idx] = 0.0
        if float(np.max(np.abs(cross))) > atol:
            vals, vecs = np.linalg.eigh(rho)
            return [(float(v), vecs[:, i]) for i, v in enumerate(vals) if v > AMP_BRANCH]
        rest = rho.copy()
        if w_fail > AMP_BRANCH:
            rest[bot_idx, :] = 0.0
            rest[:, bot_idx] = 0.0
        w_rest = float(np.trace(rest).real)
        branches = []
        if w_rest > AMP_BRANCH:
            col = int(np.argmax(np.sum(np.abs(rest) ** 2, axis=0)))
            v = rest[:, col]
            v = v / np.linalg.norm(v)
            if float(np.max(np.abs(rest - w_rest * np.outer(v, v.conj())))) <= atol:
                branches.append((w_rest, v))
                if w_fail > AMP_BRANCH:
                    e = np.zeros(dim, dtype=complex)
                    e[bot_idx] = 1.0
                    branches.append((w_fail, e))
                return branches
    vals, vecs = np.linalg.eigh(rho)
    return [(float(v), vecs[:, i]) for i, v in enumerate(vals) if v > AMP_BRANCH]


def measure_decoder_ops(n: int) -> tuple[list[GateOp], int]:
    """Gate list flagging the logical position into ceil(log2(n+1)) ancillas.

    Site i writes the binary representation of i+1 into the ancillas (most
    significant bit first), so a readout of zero heralds that no site held
    the logical state.
    """
    if n < 1:
        raise ValueError("need at least one unerased site")
    m = math.ceil(math.log2(n + 1))
    bits = RadixVector((2,) * m)
    ops = []
    for i in range(n):
        code = bits.levels_of(i + 1)
        for j in reversed(range(m)):  # least significant bit first
            if code[j]:
                ops.extend(presence_pair(i, n + j))
    return ops, m


def _mix(radix: RadixVector, parts) -> MixedRadixState:
    """The one pure state of a single branch, else the density sum of w |v><v|."""
    if len(parts) == 1:
        return MixedRadixState(radix, parts[0][1])
    dim = radix.total_dim
    rho = np.zeros((dim, dim), dtype=complex)
    for w, v in parts:
        rho += w * np.outer(v, v.conj())
    return MixedRadixState(radix, rho)


def _decoder_branches(state: MixedRadixState, n_anc: int, ops) -> list:
    """(weight, state) per pure branch of `state`, with `n_anc` qubit ancillas
    appended in |0...0> and the decoder gates applied."""
    anc0 = np.zeros(2**n_anc, dtype=complex)
    anc0[0] = 1.0
    radix = RadixVector((3,) * state.n_sites)
    out = []
    for weight, amps in _pure_branches(state):
        branch = _append_sites(MixedRadixState(radix, amps), (2,) * n_anc, anc0)
        out.append((weight, apply_ops(branch, ops)))
    return out


def _measure_ancillas(state: MixedRadixState, n_anc: int, ops) -> list:
    """Run a measuring decoder and read its ancillas out.

    Returns (outcome, probability, qutrit post state) per ancilla readout,
    in ascending order, with the readout bits taken most significant
    first. Input branches that give the same readout are mixed into one
    post state.
    """
    n = state.n_sites
    readout = RadixVector((2,) * n_anc)
    combined: dict[int, list[tuple[float, np.ndarray]]] = {}
    for weight, branch in _decoder_branches(state, n_anc, ops):
        for levels, prob, post in measure_sites(branch, range(n, n + n_anc)):
            outcome = readout.index_of(levels)
            for site in reversed(range(n, n + n_anc)):
                post = _project_site(post, site, levels[site - n])
            combined.setdefault(outcome, []).append((weight * prob, post.array))
    out = []
    for outcome in sorted(combined):
        parts = combined[outcome]
        prob = sum(w for w, _ in parts)
        if prob > AMP_BRANCH:
            post = _mix(RadixVector((3,) * n), [(w / prob, v) for w, v in parts])
            out.append((outcome, prob, post))
    return out


def decode_measure(state: MixedRadixState) -> DecodeOutcome:
    """Measurement decoder on n unerased qutrit sites.

    Appends the flag ancillas, enumerates their readout, and swaps the
    located logical state to site 0 conditioned on the (classical)
    outcome. Readout zero is heralded failure. For erased codewords the
    success probability is exactly n/(n+n_e).
    """
    n = state.n_sites
    ops, m = measure_decoder_ops(n)
    cnots = sum(1 for op in ops if op.kind == "cnot")
    swap = gate_swap(3)

    branches = []
    success = 0.0
    failure = 0.0
    for outcome, prob, post in _measure_ancillas(state, m, ops):
        if outcome == 0:
            failure += prob
            branches.append(DecodeBranch(0, prob, post, None))
            continue
        site = outcome - 1
        if site >= n:
            # unreachable for erased codewords; out-of-family inputs land here
            branches.append(DecodeBranch(outcome, prob, post, None))
            continue
        if site != 0:
            post = apply_unitary(post, swap, [0, site])
        success += prob
        branches.append(DecodeBranch(outcome, prob, post, site))
    return DecodeOutcome(branches, success, failure, m, cnots)


def decode_measure_n2_single_ancilla(state: MixedRadixState) -> DecodeOutcome:
    """Minimal two-site decoder with a single flag ancilla.

    Only the second site is flagged: readout 1 locates the logical state
    there (followed by the conditional swap), readout 0 mixes "it was
    already at site 0" with the all-flag erasure branch, so failure is
    not heralded. The general decoder above uses two ancillas for n=2
    precisely to recover that herald.
    """
    if state.n_sites != 2:
        raise ValueError("this variant is defined for two unerased sites")
    swap = gate_swap(3)
    branches = []
    success = 0.0
    for outcome, prob, post in _measure_ancillas(state, 1, presence_pair(1, 2)):
        if outcome == 1:
            post = apply_unitary(post, swap, [0, 1])
            success += prob
            branches.append(DecodeBranch(1, prob, post, 1))
        else:
            branches.append(DecodeBranch(0, prob, post, None))
    return DecodeOutcome(branches, success, 0.0, 1, 2)


def elective_decoder_ops(n: int, target_site: int) -> tuple[list[GateOp], int]:
    """Measurement-free decoder: rounds of flag-conditioned swaps.

    Each round introduces a fresh qubit ancilla, vacates half of the
    candidate locations (never the target), flips the ancilla via presence
    pairs from the vacated sites, and conditionally swaps each vacated
    site into a retained partner. Uses ceil(log2(n)) ancillas and exactly
    n-1 conditional swaps; an odd candidate set retains its unpaired site
    for the next round.
    """
    if not 0 <= target_site < n:
        raise ValueError("target site outside the block")
    ops: list[GateOp] = []
    cswap = gate_cswap(3)
    candidates = list(range(n))
    anc = n
    rounds = 0
    while len(candidates) > 1:
        others = [c for c in candidates if c != target_site]
        n_vac = len(candidates) // 2
        vacated = others[-n_vac:]
        retained = [c for c in candidates if c not in vacated]
        for v in vacated:
            ops.extend(presence_pair(v, anc))
        for v, r in zip(vacated, retained):
            ops.append(GateOp(cswap, (anc, v, r), "cswap"))
        candidates = retained
        anc += 1
        rounds += 1
    assert candidates == [target_site]
    return ops, rounds


def decode_elective(state: MixedRadixState, target_site: int,
                    keep_ancillas: bool = False):
    """Decode into a chosen site without measuring.

    Returns (post state, ancilla count). By default the ancillas are
    explicitly reset and dropped: each pure branch leaves them in a
    product with the qutrit register, which is verified, so the reset
    never disturbs the data. With keep_ancillas=True the pre-reset joint
    state is returned (Hadamards are still applied for power-of-two n,
    which suffices to reset the ancillas in the failure-free case).
    """
    n = state.n_sites
    ops, m = elective_decoder_ops(n, target_site)
    power_of_two = n & (n - 1) == 0
    h = GateSpec(_H2, (2,))

    processed = []
    for weight, branch in _decoder_branches(state, m, ops):
        if power_of_two:
            for j in range(m):
                branch = apply_unitary(branch, h, [n + j])
        processed.append((weight, branch))

    if keep_ancillas:
        return _mix(RadixVector((3,) * n + (2,) * m), [(w, b.array) for w, b in processed]), m

    # explicit reset: every branch factorizes as qutrits (x) ancillas
    qudit_branches = []
    for w, b in processed:
        mat = b.array.reshape(3**n, 2**m)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        if s.size > 1 and s[1] > 1e-7:
            raise ValueError("ancillas left entangled with the data register")
        qudit_branches.append((w, u[:, 0]))
    return _mix(RadixVector((3,) * n), qudit_branches), m


def decoded_site_fidelity(state: MixedRadixState, site: int, psi) -> float:
    """Overlap of the reduced state at `site` with the logical input."""
    c = _as_logical(psi)
    red = partial_trace(state, [site]).array
    v = np.array([c[0], c[1], 0.0], dtype=complex)
    return float(np.real(v.conj() @ red @ v))


def expected_swaps(n: int) -> float:
    """Expected classically applied swaps of the measurement decoder.

    With the logical state uniformly located, a swap is needed unless it
    is already at site 0: (n-1)/n, always below one.
    """
    if n < 1:
        raise ValueError("need at least one site")
    return (n - 1) / n

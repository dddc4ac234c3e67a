"""Circuits for the qutrit W-type erasure code.

The code stores one logical qubit in n qutrits as a uniform superposition
of "the qubit is at site i, every other site is flagged empty":

    (1/sqrt(n)) * (|psi,2,...,2> + |2,psi,2,...,2> + ... + |2,...,2,psi>)

where level |2> marks "no logical content here". The module provides the
analog encoders, an alternative encoder built only from conditional swaps
and flag gates, erasure, a measurement-based decoder, a measurement-free
elective decoder, and transversal logical gates. Every circuit is a list
of (gate, sites) ops executed on the mixed-radix simulator by `apply_ops`,
so gate budgets can be audited directly: the gates are shared objects, so
counting ops by gate identity counts them by kind.

Erasure is deferred measurement (Nielsen and Chuang, section 4.4): an
erasure is the set of its site indices, and no decoder gate touches an
erased site, so the erased sites stay in the register as spectators, each
decoder runs once on the survivors, and the erased sites are traced out
only when a result is read. `erase` checks an erasure and gives the
survivors; the decoders and `ensemble_fidelity` call it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .mixed_radix_sim import (
    GateSpec,
    MixedRadixState,
    append_sites,
    apply_permutations,
    apply_unitary,
    basis_map_gate,
    basis_state,
    basis_sum_state,
    embed_unitary,
    fidelity,
    measure_sites,
    partial_trace,  # noqa: F401  unused here; perfbench's tracer tests patch this binding
    project_sites,
    radix_of,
    support_matrix,
)

BOT = 2  # flag level of the physical qutrits


def _as_logical(psi) -> np.ndarray:
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    norm2 = float(np.sum(np.abs(vec) ** 2))
    if not abs(norm2 - 1.0) <= 1e-10:  # fails closed on NaN
        raise ValueError(f"logical input not unit norm: {norm2}")
    return vec


def apply_ops(state: MixedRadixState, ops) -> MixedRadixState:
    """Apply (gate, sites) ops in order; each maximal run of permutation gates is one gather."""
    for is_perm, run in itertools.groupby(ops, key=lambda op: op[0].perm is not None):
        if is_perm:
            state = apply_permutations(state, run)
        else:
            for gate, sites in run:
                state = apply_unitary(state, gate, sites)
    return state


@dataclass
class DecodeBranch:
    """One ancilla readout of a measuring decoder.

    post_state is the whole qutrit register after the readout, erased sites
    included; on success the logical content sits at the first survivor.
    """

    outcome: int                 # ancilla readout as an integer, 0 = heralded failure
    probability: float
    post_state: MixedRadixState
    psi_site: int | None         # survivor (0 = first) that held the logical state, or None


@dataclass
class DecodeOutcome:
    branches: list[DecodeBranch]
    success_probability: float
    heralded_failure_probability: float
    ancilla_count: int


# ---------------------------------------------------------------------------
# elementary gates
#
# The permutation gates are built once per argument and shared; a GateSpec's
# matrix is read-only, so no caller can change a shared gate.


@functools.cache
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


@functools.cache
def controlled_level_not(level: int, control_dim: int) -> GateSpec:
    """Flip a qubit target iff the qudit control sits at the given level.

    Both arguments are required, so one gate is one cached object."""
    if not 0 <= level < control_dim:
        raise ValueError("control level out of range")
    return basis_map_gate((control_dim, 2), lambda x: (x[0], x[1] ^ (x[0] == level)))


@functools.cache
def gate_presence_flag() -> GateSpec:
    """Flip a qubit target iff the qutrit control is not the flag level |2>."""
    return basis_map_gate((3, 2), lambda x: (x[0], x[1] ^ (x[0] != BOT)))


@functools.cache
def gate_cswap(d: int) -> GateSpec:
    """Swap two d-level sites conditioned on a qubit control being |1>."""
    return basis_map_gate((2, d, d), lambda x: (1, x[2], x[1]) if x[0] else x)


@functools.cache
def gate_swap(d: int) -> GateSpec:
    return basis_map_gate((d, d), lambda x: (x[1], x[0]))


@functools.cache
def _gate_x() -> GateSpec:
    """Qubit NOT."""
    return basis_map_gate((2,), lambda x: (1 - x[0],))


_GATE_H = GateSpec(np.array([[1, 1], [1, -1]]) / math.sqrt(2), (2,))
_PLUS = basis_sum_state((2,), [((0,), 1 / math.sqrt(2)), ((1,), 1 / math.sqrt(2))])


def presence_pair(qudit_site: int, ancilla_site: int) -> list:
    """Controlled-on-|0> and controlled-on-|1> NOTs from a qutrit to a qubit.

    Together they flip the ancilla exactly when the qutrit carries logical
    content (level 0 or 1), without entangling the ancilla with which of
    the two levels it is.
    """
    sites = (qudit_site, ancilla_site)
    return [(controlled_level_not(0, 3), sites), (controlled_level_not(1, 3), sites)]


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


def prepare_w2(d: int = 2) -> MixedRadixState:
    """Size-2 W state on two d-level sites.

    For qubits this is the Bell state (|01>+|10>)/sqrt(2), prepared with
    Clifford gates only. For d > 2 a qubit ancilla in |+> conditions a
    swap of the excited site into place and is then disentangled back to
    |0> by a controlled-on-|0> NOT.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if d == 2:
        return apply_ops(basis_state((2, 2), (0, 1)),
                         [(_GATE_H, (0,)), (controlled_level_not(1, 2), (0, 1))])
    state = apply_unitary(basis_state((d, d), (0, 0)), _uniform_excited_prep(d), [0])
    state = apply_ops(append_sites(state, _PLUS),
                      [(gate_cswap(d), (2, 0, 1)), (controlled_level_not(0, d), (0, 2))])
    return project_sites(state, [2], [0])


def _doubling_stage(state: MixedRadixState, empty: int, flag: GateSpec) -> MixedRadixState:
    """One doubling step of a block of m equal sites.

    Appends m sites at level `empty` and a qubit ancilla in |+> (site 2m),
    swaps the block onto the new half conditioned on the ancilla, then
    applies `flag` from each new site to the ancilla.
    """
    m, d = state.n_sites, state.dims[0]
    state = append_sites(state, append_sites(basis_state((d,) * m, (empty,) * m), _PLUS))
    return apply_ops(state, [(gate_cswap(d), (2 * m, i, m + i)) for i in range(m)]
                     + [(flag, (i, 2 * m)) for i in range(m, 2 * m)])


def scale_w(state: MixedRadixState) -> MixedRadixState:
    """Double a size-n W state to size 2n.

    Uses a single qubit ancilla prepared in |+> that conditions site-wise
    swaps onto n fresh ground-state sites; controlled-on-|0> NOTs from the
    new half (plus a final X when n is odd) return the ancilla to |0>.
    The input must be a W state: fidelity against the direct construction
    is gated at 1 - 1e-8.
    """
    dims = state.radix.dims
    d = dims[0]
    n = len(dims)
    if any(dd != d for dd in dims):
        raise ValueError("all sites must share one dimension")
    if not fidelity(state, w_state_vector(n, d)) >= 1.0 - 1e-8:
        raise ValueError("input is not a W state of this size")
    state = _doubling_stage(state, 0, controlled_level_not(0, d))
    if n % 2 == 1:
        state = apply_unitary(state, _gate_x(), [2 * n])
    return project_sites(state, [2 * n], [0])


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
    cnot = controlled_level_not(1, 2)
    return apply_ops(basis_state((2, 2, 2), (1, 0, 0)),
                     [(GateSpec(_cry(theta), (2, 2)), (0, 1)), (cnot, (1, 0)),
                      (GateSpec(_cry(math.pi / 2), (2, 2)), (1, 2)), (cnot, (2, 1))])


@functools.cache
def _qubit_w_on_qutrits(n: int) -> MixedRadixState:
    """Qubit W state living in the {0,1} subspace of n qutrit sites.

    Power-of-two sizes run the doubling circuits and n=3 the rotation
    cascade; other sizes fall back to the direct amplitude construction,
    which keeps the full decoder test matrix available. The state is built
    once per size and shared, so its arrays are read-only.
    """
    if n >= 2 and n & (n - 1) == 0:
        src = prepare_w(n, 2)
    elif n == 3:
        src = _w3_qubit_state()
    else:
        src = w_state_vector(n, 2)
    state = basis_sum_state((3,) * n, ((src.radix.levels_of(i), a) for i, a
                                       in zip(src.index.tolist(), src.array) if abs(a) > 1e-15))
    state.index.flags.writeable = state.array.flags.writeable = False
    return state


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
    u02, uenc = gate_u02(), gate_uenc(c)
    return apply_ops(_qubit_w_on_qutrits(n), [(u02, (i,)) for i in range(n)]
                     + [(uenc, (i,)) for i in range(n)])


def encode_alt(psi, n: int) -> MixedRadixState:
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
    state = basis_sum_state((3,), [((0,), c[0]), ((1,), c[1])])
    while state.n_sites < n:
        state = _doubling_stage(state, BOT, gate_presence_flag())
        state = project_sites(state, [state.n_sites - 1], [0])
    return state


def logical_unitary(state: MixedRadixState, u: np.ndarray) -> MixedRadixState:
    """Transversal logical gate: (U + |2><2|) applied to every site."""
    gate = GateSpec(embed_unitary(u, 3), (3,))
    return apply_ops(state, [(gate, (i,)) for i in range(state.n_sites)])


# ---------------------------------------------------------------------------
# erasure and decoding


def erase(state: MixedRadixState, erased=()) -> list[int]:
    """The sites of `state` that the erased sites leave, ascending.

    The erased sites are read once, as integers (a float or a string
    raises); they must lie in the block and leave at least one site. They
    stay in the register: no decoder gate touches them.
    """
    erased = {operator.index(i) for i in erased}
    n = state.n_sites
    if any(not 0 <= i < n for i in erased):
        raise ValueError("erasure pattern outside the block")
    if len(erased) == n:
        raise ValueError("cannot erase every site")
    return [i for i in range(n) if i not in erased]


def measure_decoder_ops(n: int) -> tuple[list, int]:
    """Gate list flagging the logical position into ceil(log2(n+1)) ancillas.

    Site i writes the binary representation of i+1 into the ancillas (most
    significant bit first), so a readout of zero heralds that no site held
    the logical state.
    """
    if n < 1:
        raise ValueError("need at least one unerased site")
    m = math.ceil(math.log2(n + 1))
    bits = radix_of((2,) * m)
    ops = []
    for i in range(n):
        code = bits.levels_of(i + 1)
        for j in reversed(range(m)):  # least significant bit first
            if code[j]:
                ops.extend(presence_pair(i, n + j))
    return ops, m


def _run_decoder(state: MixedRadixState, survivors: list[int], ops, m: int):
    """The register with m qubit ancillas appended in |0...0> and a decoder
    circuit run on it, the circuit's sites 0..n-1 mapped onto the survivors."""
    total = state.n_sites
    if m:  # a one-site block needs none
        state = append_sites(state, basis_state((2,) * m, (0,) * m))
    where = (*survivors, *range(total, total + m))
    return apply_ops(state, [(gate, tuple(where[s] for s in sites)) for gate, sites in ops])


def _measure_ancillas(state: MixedRadixState, survivors: list[int], ops, m: int) -> list:
    """Run a measuring decoder: (outcome, probability, qutrit register after the
    readout) per ancilla readout, ascending, the readout bits most significant first."""
    joint = _run_decoder(state, survivors, ops, m)
    ancillas = range(state.n_sites, state.n_sites + m)
    readout = radix_of((2,) * m)
    return [(readout.index_of(levels), prob, project_sites(post, ancillas, levels))
            for levels, prob, post in measure_sites(joint, ancillas)]


def decode_measure(state, erased=()) -> DecodeOutcome:
    """Measurement decoder on the n sites that the erased ones leave.

    Appends the flag ancillas, enumerates their readout, and swaps the
    located logical state to the first survivor conditioned on the
    (classical) outcome. Readout zero is heralded failure. For erased
    codewords the success probability is exactly n/(n+n_e).
    """
    survivors = erase(state, erased)
    n = len(survivors)
    ops, m = measure_decoder_ops(n)
    branches = []
    success = failure = 0.0
    for outcome, prob, post in _measure_ancillas(state, survivors, ops, m):
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
            post = apply_unitary(post, gate_swap(3), [survivors[0], survivors[site]])
        success += prob
        branches.append(DecodeBranch(outcome, prob, post, site))
    return DecodeOutcome(branches, success, failure, m)


def elective_decoder_ops(n: int, target_site: int) -> tuple[list, int]:
    """Measurement-free decoder: rounds of flag-conditioned swaps.

    Each round introduces a fresh qubit ancilla, vacates half of the
    candidate locations (never the target), flips the ancilla via presence
    pairs from the vacated sites, and conditionally swaps each vacated
    site into a retained partner. Uses ceil(log2(n)) ancillas and exactly
    n-1 conditional swaps; an odd candidate set retains its unpaired site
    for the next round. For power-of-two n a Hadamard on every ancilla
    ends the list, which returns the ancillas to |0> in the failure-free
    case. Returns (ops, ancilla count).
    """
    if not 0 <= target_site < n:
        raise ValueError("target site outside the block")
    ops = []
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
            ops.append((cswap, (anc, v, r)))
        candidates = retained
        anc += 1
        rounds += 1
    assert candidates == [target_site]
    if n & (n - 1) == 0:
        ops += [(_GATE_H, (site,)) for site in range(n, n + rounds)]
    return ops, rounds


def decode_elective(state, target_site: int, erased=()):
    """Decode into a chosen survivor (0 = the first) without measuring.

    Runs `elective_decoder_ops` once on the survivors and returns (qutrit
    register, ancilla count). The ancillas are reset and dropped separately
    for each digit string of the erased sites: each must leave them in a
    product with the qutrits, which is verified, so the reset never
    disturbs the data. Each string keeps its weight but not its phase
    against the others, which tracing the erased sites out forgets anyway.
    """
    survivors = erase(state, erased)
    total = state.n_sites
    ops, m = elective_decoder_ops(len(survivors), target_site)
    joint = _run_decoder(state, survivors, ops, m)
    index, amps = [], []
    for _, prob, group in measure_sites(joint, sorted(set(range(total)) - set(survivors))):
        # the group factorizes as qutrits (x) ancillas, so a row per
        # qutrit index in the support holds all of it
        rows, matrix = support_matrix(group, range(total, total + m))
        index.append(rows)
        amps.append(math.sqrt(prob) * _reset_ancillas(matrix))
    index = np.concatenate(index)
    order = np.argsort(index)
    return MixedRadixState(state.radix, index[order], np.concatenate(amps)[order]), m


def _reset_ancillas(joint: np.ndarray) -> np.ndarray:
    """The data factor of a (data, ancilla) matrix that is a product state.

    Its leading singular vector comes from the eigenvectors of the small
    ancilla Gram matrix G = joint^H joint: with G v = lam v for the largest
    lam, joint v / sqrt(lam) is that vector. A second eigenvalue above 1e-14
    (singular value above 1e-7) means the ancillas are still entangled.
    """
    lam, vecs = np.linalg.eigh(np.einsum("ir,is->rs", joint.conj(), joint))
    if lam.size > 1 and lam[-2] > 1e-14:
        raise ValueError("ancillas left entangled with the data register")
    return np.einsum("ir,r->i", joint, vecs[:, -1]) / math.sqrt(lam[-1])


def ensemble_fidelity(state, reference: MixedRadixState, erased=()) -> float:
    """<ref|rho|ref> for the survivors' reduced state rho: the sum, over the
    outcomes of measuring the erased sites, of probability * |<ref|v>|^2."""
    erased = sorted(set(range(state.n_sites)) - set(erase(state, erased)))
    return sum(prob * fidelity(project_sites(post, erased, levels), reference)
               for levels, prob, post in measure_sites(state, erased))


def expected_swaps(n: int) -> float:
    """Expected classically applied swaps of the measurement decoder.

    With the logical state uniformly located, a swap is needed unless it
    is already at site 0: (n-1)/n, always below one.
    """
    if n < 1:
        raise ValueError("need at least one site")
    return (n - 1) / n

"""Exact sparse simulation of registers of mixed-dimension qudits.

A register is an ordered list of sites, each with its own local dimension,
so qubit ancillas can sit directly next to qutrit data. Indexing is
row-major with site 0 as the most significant digit, i.e. basis index =
sum(level[i] * prod(dims[i+1:])), and every index fits in int64.

A state keeps only its support, the basis states of its nonzero amplitudes,
so every operation costs time and memory in the size of the support, never
in the register's dimension (the state-sparsity argument of Jaques and
Häner, arXiv:2105.01533): a W-code word of n sites has 2n amplitudes.
Operations return new states and never mutate their inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ATOL_CONSTRUCT = 1e-10  # builders' normalization and gates' unitarity checks
ATOL_STATE = 1e-8       # every state's norm check, loose enough for rounding in gates
AMP_EPS = 1e-12         # amplitudes/probabilities below this are dropped


@dataclass(frozen=True)
class RadixVector:
    """Ordered site dimensions of a register."""

    dims: tuple[int, ...]
    total_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("register needs at least one site")
        if any(d < 2 for d in dims):
            raise ValueError(f"site dimensions must be >= 2, got {dims}")
        total = math.prod(dims)
        if total >= 2**63:
            raise ValueError(f"register dimension {total} does not fit an int64 index")
        object.__setattr__(self, "total_dim", total)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    def index_of(self, levels: Sequence[int]) -> int:
        """Basis index of the computational state with the given digits."""
        if len(levels) != self.n_sites:
            raise ValueError("one level per site required")
        idx = 0
        for lv, d in zip(levels, self.dims):
            if not 0 <= lv < d:
                raise ValueError(f"level {lv} out of range for dimension {d}")
            idx = idx * d + lv
        return idx

    def levels_of(self, index: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))


@functools.lru_cache(maxsize=1024)
def radix_of(dims: tuple[int, ...]) -> RadixVector:
    """The one shared RadixVector of these dims; a register's dimension is computed once."""
    return RadixVector(dims)


def _norm2(amps: np.ndarray) -> float:
    """Squared norm of a complex array, in one pass over its real and imaginary parts."""
    flat = np.ascontiguousarray(amps, dtype=complex).view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


@dataclass
class MixedRadixState:
    """Pure state over a mixed-radix register, held as its support: `index` holds
    strictly increasing int64 basis indices, `array` the amplitudes of exactly those."""

    radix: RadixVector
    index: np.ndarray
    array: np.ndarray

    def __post_init__(self):
        index = self.index
        if not isinstance(index, np.ndarray) or index.dtype != np.int64 or index.ndim != 1:
            raise ValueError("index must be a 1-D int64 array")
        self.array = arr = np.ascontiguousarray(self.array, dtype=complex)
        if arr.shape != index.shape:
            raise ValueError(f"{index.size} indices but amplitudes of shape {arr.shape}")
        if index.size and not (0 <= index[0] and index[-1] < self.radix.total_dim
                               and not np.count_nonzero(index[1:] <= index[:-1])):
            raise ValueError(f"index must increase strictly within [0, {self.radix.total_dim})")
        norm2 = _norm2(arr)
        if not abs(norm2 - 1.0) <= ATOL_STATE:  # fails closed on NaN
            raise ValueError(f"state not normalized: |psi|^2 = {norm2}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.radix.dims

    @property
    def n_sites(self) -> int:
        return self.radix.n_sites


@dataclass(frozen=True, eq=False)
class GateSpec:
    """Unitary acting on a fixed tuple of site dimensions.

    A permutation gate also carries `perm`, the source of each output basis
    state in the gate's local basis (out[i] = in[perm[i]]), and is applied by
    moving indices. The matrix is read-only, so one gate can be shared;
    gates compare and hash by identity.
    """

    matrix: np.ndarray
    site_dims: tuple[int, ...]
    perm: tuple[int, ...] | None = None

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "site_dims", tuple(int(d) for d in self.site_dims))
        dim = math.prod(self.site_dims)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate on dims {self.site_dims} must be {dim}x{dim}, got {mat.shape}")
        err = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
        if not err <= ATOL_CONSTRUCT:
            raise ValueError(f"matrix not unitary (deviation {err:.2e})")
        if self.perm is not None:
            perm = tuple(int(i) for i in self.perm)
            object.__setattr__(self, "perm", perm)
            if sorted(perm) != list(range(dim)) or not np.array_equal(mat, np.eye(dim)[list(perm)]):
                raise ValueError("perm is not the permutation the matrix applies")


# ---------------------------------------------------------------------------
# construction


def basis_state(radix: RadixVector | Sequence[int], levels: Sequence[int]) -> MixedRadixState:
    """Computational basis state with the given digit per site."""
    return basis_sum_state(radix, [(levels, 1.0)])


def basis_sum_state(radix: RadixVector | Sequence[int], terms) -> MixedRadixState:
    """Pure state sum(amplitude |levels>) over (levels, amplitude) terms.

    Repeated levels add up; the sum must be normalized.
    """
    radix = radix if isinstance(radix, RadixVector) else radix_of(tuple(radix))
    amps: dict[int, complex] = {}
    for levels, amp in terms:
        i = radix.index_of(levels)
        amps[i] = amps.get(i, 0j) + amp
    index = np.array(sorted(i for i, a in amps.items() if a != 0), dtype=np.int64)
    array = np.array([amps[i] for i in index.tolist()], dtype=complex)
    if not abs(_norm2(array) - 1.0) <= ATOL_CONSTRUCT:  # tighter than the state's own check
        raise ValueError(f"amplitudes not normalized: |psi|^2 = {_norm2(array)}")
    return MixedRadixState(radix, index, array)


def basis_map_gate(site_dims: Sequence[int], image) -> GateSpec:
    """Gate sending each basis state |x> to |image(x)>, x a tuple of levels.

    The map must be one-to-one, otherwise the matrix is not unitary.
    """
    radix = radix_of(tuple(site_dims))
    m = np.zeros((radix.total_dim, radix.total_dim), dtype=complex)
    perm = [0] * radix.total_dim
    for x in itertools.product(*(range(d) for d in radix.dims)):
        i, j = radix.index_of(image(x)), radix.index_of(x)
        m[i, j] = 1.0
        perm[i] = j
    return GateSpec(m, radix.dims, tuple(perm))


# ---------------------------------------------------------------------------
# digit arithmetic on supports: the tables are keyed on a register's dims and a
# gate's sites, with one entry per basis state of the sites, never of the register


@functools.lru_cache(maxsize=1024)
def _offsets(dims: tuple[int, ...], sites: tuple[int, ...]) -> np.ndarray:
    """Register index of each basis state of the sites (in their own radix, the
    sites in the given order) with every other digit zero."""
    offsets = np.zeros(1, dtype=np.int64)
    for s in sites:
        offsets = (offsets[:, None] + np.arange(dims[s]) * math.prod(dims[s + 1:])).ravel()
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=1024)
def _moves(dims: tuple[int, ...], sites: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Index change of each basis state of the sites under a permutation gate."""
    offsets = _offsets(dims, sites)
    moves = offsets[np.argsort(perm)] - offsets
    moves.flags.writeable = False
    return moves


@functools.lru_cache(maxsize=1024)
def _runs(dims: tuple[int, ...], sites: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The sites as maximal runs of consecutive ascending sites, each run as
    (place value of its last digit, number of basis states of the run)."""
    runs: list[list[int]] = []
    for s in sites:
        if runs and s == runs[-1][1] + 1:
            runs[-1][1] = s
        else:
            runs.append([s, s])
    return tuple((math.prod(dims[b + 1:]), math.prod(dims[a:b + 1])) for a, b in runs)


def _local(index: np.ndarray, radix: RadixVector, sites: tuple[int, ...]) -> np.ndarray:
    """Each index's digits at the sites, as one index in the sites' own radix;
    a run of consecutive ascending sites is read as one digit of its own radix."""
    if not sites:
        return np.zeros(index.size, dtype=np.int64)
    runs = _runs(radix.dims, sites)
    stride, size = runs[0]
    local = index // stride % size
    for stride, size in runs[1:]:
        local = local * size + index // stride % size
    return local


def _check_sites(dims: tuple[int, ...], sites: tuple[int, ...],
                 site_dims: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Distinct sites of a register of these dims; with site_dims, each of that dimension."""
    if site_dims is not None and len(sites) != len(site_dims):
        raise ValueError(f"gate acts on {len(site_dims)} sites, {len(sites)} given")
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate sites {sites}")
    for k, s in enumerate(sites):
        if not 0 <= s < len(dims):
            raise ValueError(f"site {s} out of range")
        if site_dims is not None and dims[s] != site_dims[k]:
            raise ValueError(f"site {s} has dimension {dims[s]}, gate expects {site_dims[k]}")
    return sites


# ---------------------------------------------------------------------------
# evolution


def apply_unitary(state: MixedRadixState, gate: GateSpec,
                  sites: Sequence[int]) -> MixedRadixState:
    """Apply a unitary U to the given sites: U|psi>."""
    if gate.perm is not None:
        return apply_permutations(state, [(gate, sites)])
    sites = _check_sites(state.dims, tuple(sites), gate.site_dims)
    local = _local(state.index, state.radix, sites)
    # entry e sends amplitude U[i, local[e]] * a[e] to its index with the sites' digits i;
    # one sort brings the candidates for each index together, and exact zeros go
    offsets = _offsets(state.dims, sites)
    index = ((state.index - offsets[local])[:, None] + offsets).ravel()
    amps = (gate.matrix.T[local] * state.array[:, None]).ravel()
    order = np.argsort(index, kind="stable")
    index, amps = index[order], amps[order]
    starts = np.flatnonzero(np.concatenate(([True], index[1:] != index[:-1])))
    amps = np.add.reduceat(amps, starts)
    return MixedRadixState(state.radix, index[starts][amps != 0], amps[amps != 0])


def apply_permutations(state: MixedRadixState, steps) -> MixedRadixState:
    """Apply permutation gates, (gate, sites) in order: every step moves the
    indices, and one sort at the end restores their order. Consecutive steps
    on the same sites are composed into one."""
    fused: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for gate, sites in steps:
        if gate.perm is None:
            raise ValueError("apply_permutations takes permutation gates only")
        sites = _check_sites(state.dims, tuple(sites), gate.site_dims)
        if fused and fused[-1][0] == sites:  # out[i] = in[first[perm[i]]]
            fused[-1] = (sites, tuple(fused[-1][1][i] for i in gate.perm))
        else:
            fused.append((sites, gate.perm))
    index = state.index
    for sites, perm in fused:
        index = index + _moves(state.dims, sites, perm)[_local(index, state.radix, sites)]
    order = np.argsort(index)
    return MixedRadixState(state.radix, index[order], state.array[order])


def measure_sites(state: MixedRadixState, sites: Sequence[int]):
    """Computational-basis measurement of the given sites.

    Every outcome of probability > 1e-12 is enumerated and
    [(levels, probability, post_state)] is returned, outcomes ascending.
    """
    sites = _check_sites(state.dims, tuple(sites))
    local = _local(state.index, state.radix, sites)
    order = np.argsort(local, kind="stable")  # each outcome's entries stay ascending
    keys = local[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    probs = np.add.reduceat(np.abs(state.array[order]) ** 2, starts)
    groups = [order[a:b] for a, b in zip(starts.tolist(), [*starts[1:].tolist(), order.size])]
    # no measured site leaves the one empty outcome, which RadixVector cannot hold
    meas_dims = tuple(state.dims[s] for s in sites)
    levels_of = radix_of(meas_dims).levels_of if sites else (lambda o: ())
    return [(levels_of(int(local[groups[k][0]])), float(probs[k]),
             MixedRadixState(state.radix, state.index[groups[k]],
                             state.array[groups[k]] / math.sqrt(probs[k])))
            for k in range(len(probs)) if probs[k] > AMP_EPS]


def partial_trace(state: MixedRadixState, keep_sites: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of the kept sites (ascending register order)."""
    keep = sorted(set(keep_sites))
    if not keep:
        raise ValueError("must keep at least one site")
    _, rows = support_matrix(state, keep)
    return np.einsum("ri,rj->ij", rows, rows.conj())


def fidelity(state: MixedRadixState, reference: MixedRadixState) -> float:
    """|<ref|psi>|^2, summed over the basis states the two supports share."""
    if state.radix.dims != reference.radix.dims:
        raise ValueError(f"radix mismatch: {state.radix.dims} vs {reference.radix.dims}")
    pos = np.minimum(np.searchsorted(reference.index, state.index), reference.index.size - 1)
    shared = reference.index[pos] == state.index
    return float(abs(np.sum(reference.array[pos[shared]].conj() * state.array[shared])) ** 2)


def support_matrix(state: MixedRadixState, sites: Sequence[int]):
    """(rows, matrix): a column per basis state of the sites (in their order), a row per
    digit string the other sites take in the support (rows: its index in their register)."""
    sites = _check_sites(state.dims, tuple(sites))
    rest = tuple(s for s in range(state.n_sites) if s not in sites)
    rows, row = np.unique(_local(state.index, state.radix, rest), return_inverse=True)
    matrix = np.zeros((rows.size, math.prod(state.dims[s] for s in sites)), dtype=complex)
    matrix[row, _local(state.index, state.radix, sites)] = state.array
    return rows, matrix


def append_sites(state: MixedRadixState, fresh: MixedRadixState) -> MixedRadixState:
    """Tensor product state (x) fresh: fresh's sites join the register on the right."""
    radix = radix_of(state.dims + fresh.dims)
    index = (state.index[:, None] * fresh.radix.total_dim + fresh.index).ravel()
    return MixedRadixState(radix, index, np.multiply.outer(state.array, fresh.array).ravel())


def project_sites(state: MixedRadixState, sites: Sequence[int],
                  levels: Sequence[int]) -> MixedRadixState:
    """Drop sites that sit at `levels` up to 1e-9 in weight; the others keep their order."""
    sites = _check_sites(state.dims, tuple(sites))
    if not sites and not len(levels):
        return state
    target = radix_of(tuple(state.dims[s] for s in sites)).index_of(levels)
    kept = _local(state.index, state.radix, sites) == target
    amps = state.array[kept]
    norm2 = _norm2(amps)
    if not abs(norm2 - 1.0) <= 1e-9:
        raise ValueError(f"sites {list(sites)} not disentangled (weight {norm2} in {list(levels)})")
    rest = tuple(s for s in range(state.n_sites) if s not in sites)
    return MixedRadixState(radix_of(tuple(state.dims[s] for s in rest)),
                           _local(state.index[kept], state.radix, rest), amps / math.sqrt(norm2))


# ---------------------------------------------------------------------------
# gate helpers


def embed_unitary(u: np.ndarray, d: int) -> np.ndarray:
    """Embed a small unitary into dimension d, fixing the remaining levels."""
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    if m > d:
        raise ValueError(f"cannot embed dimension {m} into {d}")
    out = np.eye(d, dtype=complex)
    out[:m, :m] = u
    return out


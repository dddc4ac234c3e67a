"""Exact linear-algebra backend for registers of mixed-dimension qudits.

A register is an ordered list of sites, each with its own local dimension,
so qubit ancillas can sit directly next to qutrit data. A state is a dense
complex amplitude vector over the full register; `partial_trace` returns a
reduced density matrix as a plain array. Indexing is row-major with site 0
as the most significant digit, i.e. basis index = sum(level[i] * prod(dims[i+1:])).

Everything is value-oriented: operations return new states and never
mutate their inputs, so distinct states can evolve on different threads
without coordination.

Contractions over a whole register (gates, norms, overlaps, reduced
densities) run on numpy's own einsum kernels, never on BLAS or LAPACK. The
operands are register-sized but the contracted dimension is a gate's or a
few ancillas' (at most tens), so a second core gains nothing, and a threaded
BLAS hands such calls to worker threads that then busy-wait: under OpenBLAS
that burned about 1.7 times wall time in CPU. einsum keeps its default
optimize=False, since with optimisation on it dispatches to tensordot.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# States may hold up to 2^22 amplitudes unless a caller raises the cap.
DEFAULT_PURE_CAP = 2**22

ATOL_CONSTRUCT = 1e-10  # construction-time normalization checks
AMP_EPS = 1e-12         # amplitudes/probabilities below this are dropped


@dataclass(frozen=True)
class RadixVector:
    """Ordered site dimensions of a register."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("register needs at least one site")
        if any(d < 2 for d in dims):
            raise ValueError(f"site dimensions must be >= 2, got {dims}")

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

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


def _norm2(amps: np.ndarray) -> float:
    """Squared norm of a complex array, in one pass over its real and imaginary parts."""
    flat = np.ascontiguousarray(amps, dtype=complex).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


@dataclass
class MixedRadixState:
    """Pure amplitude vector over a mixed-radix register."""

    radix: RadixVector
    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=complex)
        self.array = arr
        dim = self.radix.total_dim
        if arr.shape != (dim,):
            raise ValueError(f"amplitude vector of length {dim} expected, got {arr.shape}")
        norm2 = _norm2(arr)
        if abs(norm2 - 1.0) > 1e-8:
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
    state in the gate's local basis (out[i] = in[perm[i]]), and is applied as
    an exact gather. The matrix is read-only, so one gate can be shared;
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
        if err > ATOL_CONSTRUCT:
            raise ValueError(f"matrix not unitary (deviation {err:.2e})")
        if self.perm is not None:
            perm = tuple(int(i) for i in self.perm)
            object.__setattr__(self, "perm", perm)
            if sorted(perm) != list(range(dim)) or not np.array_equal(mat, np.eye(dim)[list(perm)]):
                raise ValueError("perm is not the permutation the matrix applies")

    @property
    def arity(self) -> int:
        return len(self.site_dims)


# ---------------------------------------------------------------------------
# construction


def _capped_radix(radix: RadixVector | Sequence[int], cap: int) -> RadixVector:
    if not isinstance(radix, RadixVector):
        radix = RadixVector(tuple(radix))
    if radix.total_dim > cap:
        raise ValueError(f"register dimension {radix.total_dim} exceeds cap {cap}")
    return radix


def basis_state(radix: RadixVector | Sequence[int], levels: Sequence[int],
                cap: int = DEFAULT_PURE_CAP) -> MixedRadixState:
    """Computational basis state with the given digit per site."""
    return basis_sum_state(radix, [(levels, 1.0)], cap)


def pure_state(radix: RadixVector | Sequence[int], amplitudes: np.ndarray,
               cap: int = DEFAULT_PURE_CAP) -> MixedRadixState:
    radix = _capped_radix(radix, cap)
    amps = np.asarray(amplitudes, dtype=complex)
    norm2 = _norm2(amps)
    if abs(norm2 - 1.0) > ATOL_CONSTRUCT:
        raise ValueError(f"amplitudes not normalized: |psi|^2 = {norm2}")
    return MixedRadixState(radix, amps)


def basis_sum_state(radix: RadixVector | Sequence[int], terms,
                    cap: int = DEFAULT_PURE_CAP) -> MixedRadixState:
    """Pure state sum(amplitude |levels>) over (levels, amplitude) terms.

    Repeated levels add up; the sum must be normalized.
    """
    radix = _capped_radix(radix, cap)
    amps = np.zeros(radix.total_dim, dtype=complex)
    for levels, amp in terms:
        amps[radix.index_of(levels)] += amp
    return pure_state(radix, amps, cap)


def basis_map_gate(site_dims: Sequence[int], image) -> GateSpec:
    """Gate sending each basis state |x> to |image(x)>, x a tuple of levels.

    The map must be one-to-one, otherwise the matrix is not unitary.
    """
    radix = RadixVector(tuple(site_dims))
    m = np.zeros((radix.total_dim, radix.total_dim), dtype=complex)
    perm = [0] * radix.total_dim
    for x in itertools.product(*(range(d) for d in radix.dims)):
        i, j = radix.index_of(image(x)), radix.index_of(x)
        m[i, j] = 1.0
        perm[i] = j
    return GateSpec(m, radix.dims, tuple(perm))


# ---------------------------------------------------------------------------
# tensor plumbing


def _front_axes(n_sites: int, sites: Sequence[int]) -> tuple[int, ...]:
    """Axis order that brings the sites, in the given order, before the rest."""
    return tuple(sites) + tuple(s for s in range(n_sites) if s not in sites)


def _split(array: np.ndarray, dims: tuple[int, ...], sites: Sequence[int]) -> np.ndarray:
    """A flat array over the register as an (M, R) matrix: the sites' digits against the rest."""
    m = math.prod(dims[s] for s in sites)
    return np.transpose(array.reshape(dims), _front_axes(len(dims), sites)).reshape(m, -1)


def _unsplit(grouped: np.ndarray, dims: tuple[int, ...], sites: Sequence[int]) -> np.ndarray:
    """Inverse of _split: the grouped array as a flat array over the register."""
    out = np.empty(grouped.size, dtype=grouped.dtype)
    moved = np.transpose(out.reshape(dims), _front_axes(len(dims), sites))
    moved[...] = grouped.reshape(moved.shape)
    return out


def _gather(array: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...],
            sites: Sequence[int]) -> np.ndarray:
    """A flat array over the register with the sites' rows permuted: row i is row perm[i]."""
    return _unsplit(_split(array, dims, sites)[list(perm)], dims, sites)


def _check_sites(radix: RadixVector, sites: Sequence[int],
                 site_dims: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Distinct sites of the register; with site_dims, each of that dimension."""
    sites = tuple(sites)
    if site_dims is not None and len(sites) != len(site_dims):
        raise ValueError(f"gate acts on {len(site_dims)} sites, {len(sites)} given")
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate sites {sites}")
    for s in sites:
        if not 0 <= s < radix.n_sites:
            raise ValueError(f"site {s} out of range")
    if site_dims is not None:
        for s, d in zip(sites, site_dims):
            if radix.dims[s] != d:
                raise ValueError(f"site {s} has dimension {radix.dims[s]}, gate expects {d}")
    return sites


# ---------------------------------------------------------------------------
# evolution


def apply_unitary(state: MixedRadixState, gate: GateSpec,
                  sites: Sequence[int]) -> MixedRadixState:
    """Apply a unitary U to the given sites: U|psi>."""
    sites = _check_sites(state.radix, sites, gate.site_dims)
    if gate.perm is not None:
        return MixedRadixState(state.radix, _gather(state.array, state.dims, gate.perm, sites))
    grouped = np.einsum("ij,jr->ir", gate.matrix, _split(state.array, state.dims, sites))
    return MixedRadixState(state.radix, _unsplit(grouped, state.dims, sites))


def apply_permutations(state: MixedRadixState, steps) -> MixedRadixState:
    """Apply permutation gates, (gate, sites) in order, as one gather.

    The flat index of the whole run is memoised on the register's dims and
    each gate's perm and sites, so the same run on another state of the
    register costs one gather.
    """
    key = []
    for gate, sites in steps:
        if gate.perm is None:
            raise ValueError("apply_permutations takes permutation gates only")
        key.append((gate.perm, _check_sites(state.radix, sites, gate.site_dims)))
    return MixedRadixState(state.radix, state.array[_fused_index(state.dims, tuple(key))])


# at most 32 indices are kept, each one int32 per amplitude (16 MB at the default cap)
@functools.lru_cache(maxsize=32)
def _fused_index(dims: tuple[int, ...], steps: tuple) -> np.ndarray:
    """Flat index F such that psi[F] is psi with the (perm, sites) steps applied.

    Gathering an array applies a step to it, so gathering the identity index
    step after step composes the steps.
    """
    total = math.prod(dims)
    index = np.arange(total, dtype=np.int32 if total < 2**31 else np.int64)
    for perm, sites in steps:
        index = _gather(index, dims, perm, sites)
    index.flags.writeable = False
    return index


def measure_sites(state: MixedRadixState, sites: Sequence[int], rng=None):
    """Computational-basis measurement of the given sites.

    With rng=None every outcome of probability > 1e-12 is enumerated and
    [(levels, probability, post_state)] is returned, outcomes ascending.
    With a numpy Generator a single (levels, probability, post_state) is
    sampled from those outcomes, with their probabilities renormalized.
    """
    sites = _check_sites(state.radix, sites)
    grouped = _split(state.array, state.dims, sites)
    probs = np.sum(np.abs(grouped) ** 2, axis=1)

    def _post(o: int) -> MixedRadixState:
        # outcome o's row, renormalised, and zero elsewhere
        out = np.zeros_like(grouped)
        out[o] = grouped[o] / math.sqrt(probs[o])
        return MixedRadixState(state.radix, _unsplit(out, state.dims, sites))

    # no measured site leaves the one empty outcome, which RadixVector cannot hold
    meas_dims = tuple(state.dims[s] for s in sites)
    levels_of = RadixVector(meas_dims).levels_of if sites else (lambda o: ())
    outcomes = [o for o in range(len(probs)) if probs[o] > AMP_EPS]
    if rng is not None:
        kept = probs[outcomes]
        outcomes = [outcomes[int(rng.choice(len(outcomes), p=kept / kept.sum()))]]
    results = [(levels_of(o), float(probs[o]), _post(o)) for o in outcomes]
    return results if rng is None else results[0]


def partial_trace(state: MixedRadixState, keep_sites: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of the kept sites (ascending register order)."""
    keep = _check_sites(state.radix, sorted(set(keep_sites)))
    if not keep:
        raise ValueError("must keep at least one site")
    rows = _split(state.array, state.dims, keep)
    return np.einsum("ir,jr->ij", rows, rows.conj())


def fidelity(state: MixedRadixState, reference: MixedRadixState) -> float:
    """|<ref|psi>|^2."""
    if state.radix.dims != reference.radix.dims:
        raise ValueError(f"radix mismatch: {state.radix.dims} vs {reference.radix.dims}")
    return float(abs(np.einsum("i,i->", reference.array.conj(), state.array)) ** 2)


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


def dump_state(state: MixedRadixState) -> str:
    """Text dump of a pure state: index, digits, re, im per nonzero amplitude.

    Amplitudes with |a| < 1e-12 are omitted; indices ascend. Digits are
    concatenated when every site dimension is below 10, comma-joined
    otherwise.
    """
    joiner = "" if max(state.dims) < 10 else ","
    lines = []
    for idx in np.nonzero(np.abs(state.array) >= AMP_EPS)[0]:
        a = state.array[idx]
        digits = joiner.join(str(v) for v in state.radix.levels_of(int(idx)))
        lines.append(f"{int(idx)}\t{digits}\t{a.real:.17g}\t{a.imag:.17g}")
    return "\n".join(lines)

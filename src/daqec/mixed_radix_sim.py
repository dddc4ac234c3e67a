"""Exact linear-algebra backend for registers of mixed-dimension qudits.

A register is an ordered list of sites, each with its own local dimension,
so qubit ancillas can sit directly next to qutrit data. A state is a dense
complex amplitude vector over the full register; `partial_trace` returns a
reduced density matrix as a plain array. Indexing is row-major with site 0
as the most significant digit, i.e. basis index = sum(level[i] * prod(dims[i+1:])).

Everything is value-oriented: operations return new states and never
mutate their inputs, so distinct states can evolve on different threads
without coordination.
"""

from __future__ import annotations

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
        norm2 = float(np.sum(np.abs(arr) ** 2))
        if abs(norm2 - 1.0) > 1e-8:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.radix.dims

    @property
    def n_sites(self) -> int:
        return self.radix.n_sites


@dataclass(frozen=True)
class GateSpec:
    """Unitary acting on a fixed tuple of site dimensions."""

    matrix: np.ndarray
    site_dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "site_dims", tuple(int(d) for d in self.site_dims))
        dim = math.prod(self.site_dims)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate on dims {self.site_dims} must be {dim}x{dim}, got {mat.shape}")
        err = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
        if err > ATOL_CONSTRUCT:
            raise ValueError(f"matrix not unitary (deviation {err:.2e})")

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
    norm2 = float(np.sum(np.abs(amps) ** 2))
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
    for x in itertools.product(*(range(d) for d in radix.dims)):
        m[radix.index_of(image(x)), radix.index_of(x)] = 1.0
    return GateSpec(m, radix.dims)


# ---------------------------------------------------------------------------
# tensor plumbing


def _front_axes(state: MixedRadixState, sites: Sequence[int]) -> tuple[int, ...]:
    """Axis order that brings the sites, in the given order, before the rest."""
    return tuple(sites) + tuple(s for s in range(state.n_sites) if s not in sites)


def _split(state: MixedRadixState, sites: Sequence[int]) -> np.ndarray:
    """The amplitudes as an (M, R) matrix: the sites' digits against the rest."""
    m = math.prod(state.dims[s] for s in sites)
    return np.transpose(state.array.reshape(state.dims),
                        _front_axes(state, sites)).reshape(m, -1)


def _unsplit(state: MixedRadixState, grouped: np.ndarray, sites: Sequence[int]) -> np.ndarray:
    """Inverse of _split: the grouped array as an amplitude vector of the register."""
    out = np.empty_like(state.array)
    moved = np.transpose(out.reshape(state.dims), _front_axes(state, sites))
    moved[...] = grouped.reshape(moved.shape)
    return out


def _check_sites(radix: RadixVector, sites: Sequence[int],
                 site_dims: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Distinct sites of the register; with site_dims, each of that dimension."""
    sites = tuple(sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate sites {sites}")
    for s in sites:
        if not 0 <= s < radix.n_sites:
            raise ValueError(f"site {s} out of range")
    if site_dims is not None:
        for s, d in zip(sites, site_dims, strict=True):
            if radix.dims[s] != d:
                raise ValueError(f"site {s} has dimension {radix.dims[s]}, gate expects {d}")
    return sites


# ---------------------------------------------------------------------------
# evolution


def apply_unitary(state: MixedRadixState, gate: GateSpec,
                  sites: Sequence[int]) -> MixedRadixState:
    """Apply a unitary U to the given sites: U|psi>."""
    sites = _check_sites(state.radix, sites, gate.site_dims)
    k = len(sites)
    op = gate.matrix.reshape(gate.site_dims * 2)  # out axes first, in axes second
    out = np.tensordot(op, state.array.reshape(state.dims), axes=(tuple(range(k, 2 * k)), sites))
    return MixedRadixState(state.radix, np.moveaxis(out, tuple(range(k)), sites).reshape(-1))


def measure_sites(state: MixedRadixState, sites: Sequence[int], rng=None):
    """Computational-basis measurement of the given sites.

    With rng=None every outcome of probability > 1e-12 is enumerated and
    [(levels, probability, post_state)] is returned, outcomes ascending.
    With a numpy Generator a single (levels, probability, post_state) is
    sampled from those outcomes, with their probabilities renormalized.
    """
    sites = _check_sites(state.radix, sites)
    grouped = _split(state, sites)
    probs = np.sum(np.abs(grouped) ** 2, axis=1)

    def _post(o: int) -> MixedRadixState:
        # outcome o's row, renormalised, and zero elsewhere
        out = np.zeros_like(grouped)
        out[o] = grouped[o] / math.sqrt(probs[o])
        return MixedRadixState(state.radix, _unsplit(state, out, sites))

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
    rows = _split(state, keep)
    return rows @ rows.conj().T


def fidelity(state: MixedRadixState, reference: MixedRadixState) -> float:
    """|<ref|psi>|^2."""
    if state.radix.dims != reference.radix.dims:
        raise ValueError(f"radix mismatch: {state.radix.dims} vs {reference.radix.dims}")
    return float(np.abs(np.vdot(reference.array, state.array)) ** 2)


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

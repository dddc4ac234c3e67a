"""Exact linear-algebra backend for registers of mixed-dimension qudits.

A register is an ordered list of sites, each with its own local dimension,
so qubit ancillas can sit directly next to qutrit data. States are dense:
either a complex amplitude vector or a density matrix over the full
register. Indexing is row-major with site 0 as the most significant digit,
i.e. basis index = sum(level[i] * prod(dims[i+1:])).

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

# Pure states may hold up to 2^22 amplitudes; density matrices square the
# memory footprint so they are capped much lower by default. Both caps can
# be raised explicitly by callers that know what they are doing.
DEFAULT_PURE_CAP = 2**22
DEFAULT_DENSITY_CAP = 2**11

ATOL_CONSTRUCT = 1e-10  # construction-time normalization checks
ATOL_EVOLVE = 1e-9      # drift allowed after unitaries/channels
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
    """Pure amplitude vector or density matrix over a mixed-radix register."""

    radix: RadixVector
    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=complex)
        self.array = arr
        dim = self.radix.total_dim
        if arr.ndim == 1:
            if arr.shape != (dim,):
                raise ValueError(f"amplitude vector of length {dim} expected, got {arr.shape}")
            norm2 = float(np.sum(np.abs(arr) ** 2))
            if abs(norm2 - 1.0) > 1e-8:
                raise ValueError(f"state not normalized: |psi|^2 = {norm2}")
        elif arr.ndim == 2:
            if arr.shape != (dim, dim):
                raise ValueError(f"{dim}x{dim} density matrix expected, got {arr.shape}")
            tr = complex(np.trace(arr))
            if abs(tr - 1.0) > 1e-8:
                raise ValueError(f"density matrix trace {tr}, expected 1")
            if float(np.max(np.abs(arr - arr.conj().T))) > 1e-8:
                raise ValueError("density matrix not Hermitian")
        else:
            raise ValueError("state array must be a vector or square matrix")

    @property
    def is_density(self) -> bool:
        return self.array.ndim == 2

    @property
    def dims(self) -> tuple[int, ...]:
        return self.radix.dims

    @property
    def n_sites(self) -> int:
        return self.radix.n_sites

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue (O(D^3); for validation, not hot paths)."""
        if not self.is_density:
            return 1.0
        return float(np.linalg.eigvalsh(self.array)[0])


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


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators on a fixed tuple of site dimensions."""

    ops: tuple[np.ndarray, ...]
    site_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "site_dims", tuple(int(d) for d in self.site_dims))
        dim = math.prod(self.site_dims)
        ops = tuple(np.asarray(k, dtype=complex) for k in self.ops)
        object.__setattr__(self, "ops", ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError(f"Kraus operators must be {dim}x{dim}")
        total = sum(k.conj().T @ k for k in ops)
        err = float(np.max(np.abs(total - np.eye(dim))))
        if err > ATOL_EVOLVE:
            raise ValueError(f"channel not trace preserving (sum K†K deviates by {err:.2e})")


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


def to_density(state: MixedRadixState, cap: int = DEFAULT_DENSITY_CAP) -> MixedRadixState:
    """Promote a pure state to its density matrix (no-op on densities)."""
    if state.is_density:
        return state
    if state.radix.total_dim > cap:
        raise ValueError(
            f"density promotion of dimension {state.radix.total_dim} exceeds cap {cap}")
    rho = np.outer(state.array, state.array.conj())
    return MixedRadixState(state.radix, rho)


# ---------------------------------------------------------------------------
# tensor plumbing


def _tensorized(matrix: np.ndarray, site_dims: tuple[int, ...]) -> np.ndarray:
    return np.asarray(matrix, dtype=complex).reshape(site_dims + site_dims)

def _apply_axes(arr: np.ndarray, op_t: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract op_t (out axes first, in axes second) onto the given axes."""
    k = len(axes)
    out = np.tensordot(op_t, arr, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def _check_sites(radix: RadixVector, sites: tuple[int, ...], site_dims: tuple[int, ...]):
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate target sites {sites}")
    for s, d in zip(sites, site_dims, strict=True):
        if not 0 <= s < radix.n_sites:
            raise ValueError(f"site {s} out of range")
        if radix.dims[s] != d:
            raise ValueError(f"site {s} has dimension {radix.dims[s]}, gate expects {d}")


# ---------------------------------------------------------------------------
# evolution


def apply_unitary(state: MixedRadixState, gate: GateSpec,
                  sites: Sequence[int]) -> MixedRadixState:
    """Apply a unitary to the given sites: U|psi> or U rho U†."""
    sites = tuple(sites)
    _check_sites(state.radix, sites, gate.site_dims)
    op = _tensorized(gate.matrix, gate.site_dims)
    dims = state.radix.dims
    n = len(dims)
    if state.is_density:
        rho = state.array.reshape(dims + dims)
        rho = _apply_axes(rho, op, sites)
        rho = _apply_axes(rho, op.conj(), tuple(n + s for s in sites))
        dim = state.radix.total_dim
        return MixedRadixState(state.radix, rho.reshape(dim, dim))
    psi = _apply_axes(state.array.reshape(dims), op, sites)
    return MixedRadixState(state.radix, psi.reshape(-1))


def apply_channel(state: MixedRadixState, ch: KrausChannel,
                  sites: Sequence[int],
                  density_cap: int = DEFAULT_DENSITY_CAP) -> MixedRadixState:
    """Apply a Kraus channel; pure inputs are promoted to density matrices."""
    sites = tuple(sites)
    _check_sites(state.radix, sites, ch.site_dims)
    state = to_density(state, cap=density_cap)
    dims = state.radix.dims
    n = len(dims)
    dim = state.radix.total_dim
    rho = state.array.reshape(dims + dims)
    out = np.zeros_like(rho)
    for k in ch.ops:
        op = _tensorized(k, ch.site_dims)
        term = _apply_axes(rho, op, sites)
        term = _apply_axes(term, op.conj(), tuple(n + s for s in sites))
        out += term
    return MixedRadixState(state.radix, out.reshape(dim, dim))


def measure_sites(state: MixedRadixState, sites: Sequence[int], rng=None):
    """Computational-basis measurement of the given sites.

    With rng=None every outcome of probability > 1e-12 is enumerated and
    [(levels, probability, post_state)] is returned, outcomes ascending.
    With a numpy Generator a single (levels, probability, post_state) is
    sampled with those exact probabilities.
    """
    sites = tuple(sites)
    for s in sites:
        if not 0 <= s < state.n_sites:
            raise ValueError(f"site {s} out of range")
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate measured sites")
    dims = state.radix.dims
    n = len(dims)
    meas_dims = tuple(dims[s] for s in sites)
    m_total = math.prod(meas_dims)
    rest = [i for i in range(n) if i not in sites]

    if state.is_density:
        rho = state.array.reshape(dims + dims)
        perm = list(sites) + rest + [n + s for s in sites] + [n + r for r in rest]
        moved = np.transpose(rho, perm)
        r_total = state.radix.total_dim // m_total
        blocks = moved.reshape(m_total, r_total, m_total, r_total)
        probs = np.einsum("arar->a", blocks).real
    else:
        psi = state.array.reshape(dims)
        moved = np.transpose(psi, list(sites) + rest)
        rows = moved.reshape(m_total, -1)
        probs = np.sum(np.abs(rows) ** 2, axis=1)

    def _post(outcome_idx: int, p: float) -> MixedRadixState:
        if state.is_density:
            proj = np.zeros_like(blocks)
            proj[outcome_idx, :, outcome_idx, :] = blocks[outcome_idx, :, outcome_idx, :] / p
            full = proj.reshape([dims[i] for i in sites] + [dims[i] for i in rest]
                                + [dims[i] for i in sites] + [dims[i] for i in rest])
            inv = np.argsort(perm)
            dim = state.radix.total_dim
            return MixedRadixState(state.radix, np.transpose(full, inv).reshape(dim, dim))
        out = np.zeros_like(rows)
        out[outcome_idx] = rows[outcome_idx] / math.sqrt(p)
        full = out.reshape([dims[i] for i in sites] + [dims[i] for i in rest])
        inv = np.argsort(list(sites) + rest)
        return MixedRadixState(state.radix, np.transpose(full, inv).reshape(-1))

    # no measured site leaves the one empty outcome, which RadixVector cannot hold
    levels_of = RadixVector(meas_dims).levels_of if sites else (lambda o: ())
    if rng is None:
        results = []
        for o in range(m_total):
            p = float(probs[o])
            if p > AMP_EPS:
                results.append((levels_of(o), p, _post(o, p)))
        return results

    norm = probs / probs.sum()
    o = int(rng.choice(m_total, p=norm))
    p = float(probs[o])
    return levels_of(o), p, _post(o, p)


def partial_trace(state: MixedRadixState, keep_sites: Sequence[int]) -> MixedRadixState:
    """Reduced density operator on the kept sites (ascending register order)."""
    keep = sorted(set(keep_sites))
    if not keep:
        raise ValueError("must keep at least one site")
    for s in keep:
        if not 0 <= s < state.n_sites:
            raise ValueError(f"site {s} out of range")
    dims = state.radix.dims
    n = len(dims)
    traced = tuple(i for i in range(n) if i not in keep)
    new_radix = RadixVector(tuple(dims[i] for i in keep))
    if not traced:
        st = to_density(state, cap=max(DEFAULT_DENSITY_CAP, state.radix.total_dim))
        return MixedRadixState(new_radix, st.array.copy())
    kdim = new_radix.total_dim
    if state.is_density:
        rho = state.array.reshape(dims + dims)
        out = np.trace(rho, axis1=traced[-1], axis2=n + traced[-1])
        remaining = [i for i in range(n) if i != traced[-1]]
        for t in reversed(traced[:-1]):
            pos = remaining.index(t)
            out = np.trace(out, axis1=pos, axis2=len(remaining) + pos)
            remaining.remove(t)
        return MixedRadixState(new_radix, out.reshape(kdim, kdim))
    psi = state.array.reshape(dims)
    rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    return MixedRadixState(new_radix, rho.reshape(kdim, kdim))


def fidelity(state: MixedRadixState, reference: MixedRadixState) -> float:
    """<ref|rho|ref> (equals |<ref|psi>|^2 for pure states)."""
    if reference.is_density:
        raise ValueError("reference must be a pure state")
    if state.radix.dims != reference.radix.dims:
        raise ValueError(f"radix mismatch: {state.radix.dims} vs {reference.radix.dims}")
    r = reference.array
    if state.is_density:
        return float(np.real(r.conj() @ state.array @ r))
    return float(np.abs(np.vdot(r, state.array)) ** 2)


# ---------------------------------------------------------------------------
# standard channels and gate helpers


def heisenberg_weyl_ops(d: int) -> list[np.ndarray]:
    """All d^2 operators X^a Z^b for one d-level site (identity first)."""
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    omega = np.exp(2j * np.pi / d)
    clock = np.diag([omega**j for j in range(d)])
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return ops


def depolarizing_channel(d: int, n_sites: int, p: float) -> KrausChannel:
    """Depolarizing channel with error parameter p on n_sites d-level sites.

    With probability p one of the d^(2n)-1 nontrivial Heisenberg-Weyl
    operators is applied uniformly at random; for qubits these are the
    usual 4^n - 1 nontrivial Paulis. Kraus weights are sqrt(1-p) on the
    identity and sqrt(p / (d^(2n)-1)) on each nontrivial operator.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"error parameter must lie in [0, 1], got {p}")
    dim = d**n_sites
    if dim**2 > 2**12:
        raise ValueError("depolarizing channel too large to materialize")
    singles = heisenberg_weyl_ops(d)
    words = [np.eye(1, dtype=complex)]
    for _ in range(n_sites):
        words = [np.kron(w, s) for w in words for s in singles]
    n_ops = len(words)  # d^(2n), identity included
    if p == 0.0:
        return KrausChannel((np.eye(dim, dtype=complex),), (d,) * n_sites)
    ops = [math.sqrt(1.0 - p) * np.eye(dim, dtype=complex)]
    w = math.sqrt(p / (n_ops - 1))
    ops.extend(w * word for word in words[1:])
    return KrausChannel(tuple(ops), (d,) * n_sites)


def embed_unitary(u: np.ndarray, d: int) -> np.ndarray:
    """Embed a small unitary into dimension d, fixing the remaining levels."""
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    if m > d:
        raise ValueError(f"cannot embed dimension {m} into {d}")
    out = np.eye(d, dtype=complex)
    out[:m, :m] = u
    return out


def permute_sites(state: MixedRadixState, order: Sequence[int]) -> MixedRadixState:
    """Reorder sites: new site i is old site order[i]."""
    order = tuple(order)
    if sorted(order) != list(range(state.n_sites)):
        raise ValueError(f"{order} is not a permutation of the sites")
    dims = state.radix.dims
    n = len(dims)
    new_radix = RadixVector(tuple(dims[i] for i in order))
    if state.is_density:
        rho = state.array.reshape(dims + dims)
        perm = list(order) + [n + i for i in order]
        dim = state.radix.total_dim
        return MixedRadixState(new_radix, np.transpose(rho, perm).reshape(dim, dim))
    psi = state.array.reshape(dims)
    return MixedRadixState(new_radix, np.transpose(psi, order).reshape(-1))


def permute_gate_sites(gate: GateSpec, order: Sequence[int]) -> GateSpec:
    """Gate equivalent to the original with its target sites reordered."""
    order = tuple(order)
    k = gate.arity
    if sorted(order) != list(range(k)):
        raise ValueError(f"{order} is not a permutation of the gate sites")
    op = _tensorized(gate.matrix, gate.site_dims)
    perm = list(order) + [k + i for i in order]
    new_dims = tuple(gate.site_dims[i] for i in order)
    dim = math.prod(new_dims)
    return GateSpec(np.transpose(op, perm).reshape(dim, dim), new_dims)


def dump_state(state: MixedRadixState) -> str:
    """Text dump of a pure state: index, digits, re, im per nonzero amplitude.

    Amplitudes with |a| < 1e-12 are omitted; indices ascend. Digits are
    concatenated when every site dimension is below 10, comma-joined
    otherwise.
    """
    if state.is_density:
        raise ValueError("dump_state expects a pure state")
    joiner = "" if max(state.dims) < 10 else ","
    lines = []
    for idx in np.nonzero(np.abs(state.array) >= AMP_EPS)[0]:
        a = state.array[idx]
        digits = joiner.join(str(v) for v in state.radix.levels_of(int(idx)))
        lines.append(f"{int(idx)}\t{digits}\t{a.real:.17g}\t{a.imag:.17g}")
    return "\n".join(lines)

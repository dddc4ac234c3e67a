"""Dense reference for the sparse mixed-radix simulator.

`mixed_radix_sim` keeps only a state's support. The functions here work on
the dense amplitude vector over the whole register instead, seen as a
tensor with one axis per site (site 0 the most significant digit), so the
tests can check every sparse operation against them.
"""

import math

import numpy as np

from daqec.mixed_radix_sim import (
    AMP_EPS,
    GateSpec,
    RadixVector,
    apply_unitary,
    basis_sum_state,
    radix_of,
)


def dense(state) -> np.ndarray:
    """The state's amplitude vector over the whole register."""
    out = np.zeros(state.radix.total_dim, dtype=complex)
    out[state.index] = state.array
    return out


def pure_state(radix, amplitudes):
    """Inverse of dense: the state of a dense amplitude vector over the whole register."""
    radix = radix if isinstance(radix, RadixVector) else radix_of(tuple(radix))
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (radix.total_dim,):
        raise ValueError(f"amplitude vector of length {radix.total_dim} expected, got {amps.shape}")
    return basis_sum_state(radix, ((radix.levels_of(i), amps[i]) for i in np.flatnonzero(amps)))


def _front_axes(n_sites, sites):
    """Axis order that brings the sites, in the given order, before the rest."""
    return tuple(sites) + tuple(s for s in range(n_sites) if s not in sites)


def split(psi, dims, sites):
    """A dense vector as an (M, R) matrix: the sites' digits against the rest."""
    m = math.prod(dims[s] for s in sites)
    return np.transpose(psi.reshape(dims), _front_axes(len(dims), sites)).reshape(m, -1)


def unsplit(grouped, dims, sites):
    """Inverse of split: the grouped matrix as a dense vector."""
    out = np.empty(grouped.size, dtype=grouped.dtype)
    moved = np.transpose(out.reshape(dims), _front_axes(len(dims), sites))
    moved[...] = grouped.reshape(moved.shape)
    return out


def dense_apply_unitary(psi, dims, gate, sites):
    """U|psi> by contracting the gate's matrix, permutation or not."""
    return unsplit(gate.matrix @ split(psi, dims, sites), dims, sites)


def dense_measure_sites(psi, dims, sites):
    """measure_sites on a dense vector; post states are dense vectors."""
    grouped = split(psi, dims, sites)
    probs = np.sum(np.abs(grouped) ** 2, axis=1)
    levels_of = RadixVector(tuple(dims[s] for s in sites)).levels_of if sites else (lambda o: ())
    results = []
    for o in range(len(probs)):
        if probs[o] > AMP_EPS:
            post = np.zeros_like(grouped)
            post[o] = grouped[o] / math.sqrt(probs[o])
            results.append((levels_of(o), float(probs[o]), unsplit(post, dims, sites)))
    return results


def digits_local(index, dims, sites):
    """Each index's digits at the sites, as one index in the sites' own radix,
    read one digit at a time with Python integers."""
    out = []
    for i in index.tolist():
        levels = []
        for d in reversed(dims):
            i, level = divmod(i, d)
            levels.append(level)
        levels.reverse()
        local = 0
        for s in sites:
            local = local * dims[s] + levels[s]
        out.append(local)
    return np.array(out, dtype=np.int64)


def dense_partial_trace(psi, dims, keep):
    rows = split(psi, dims, sorted(set(keep)))
    return rows @ rows.conj().T


def dense_fidelity(psi, ref):
    return float(abs(np.vdot(ref, psi)) ** 2)


def dense_project_site(psi, dims, site, level):
    """The slice of a dense vector with one site at `level`, renormalised."""
    kept = np.take(psi.reshape(dims), level, axis=site).reshape(-1)
    return kept / np.linalg.norm(kept)


def oracle_apply_unitary(state, gate, sites):
    """apply_unitary taking the gate's matrix as a dense gate, whether or not it
    is a permutation."""
    return apply_unitary(state, GateSpec(gate.matrix, gate.site_dims), sites)


def oracle_apply_ops(state, ops, apply=oracle_apply_unitary):
    """The op-by-op loop that apply_ops fuses."""
    for gate, sites in ops:
        state = apply(state, gate, sites)
    return state

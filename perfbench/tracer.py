"""Outside-in span tracer for the daqec layers.

The tracer replaces public functions of the daqec modules with wrappers
that record one span per call: (name, start, end, parent, run id). It
never edits the package; it rebinds module attributes and puts the
originals back on `restore()`. A function re-bound elsewhere by
`from ... import` (for example `wstate_code.apply_unitary`) is found by
identity and patched there too, otherwise calls through that name would
escape the trace.

Spans stay in memory until the run ends. `layer_metrics` turns them,
plus the counters recorded at the same boundaries, into per-layer
numbers: busy time (summed call duration), self time (duration minus the
union of child-span intervals) and work counts.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time

PACKAGE = "daqec"
MODULES = ("cli", "experiments", "stabilizer_steane", "bounds_analytics",
           "allocation", "mixed_radix_sim", "wstate_code")

# span name -> (module, function)
SPANS = {
    "cli.main": ("cli", "main"),
    "experiments.load_config": ("experiments", "load_config"),
    "experiments.execute": ("experiments", "execute"),
    "experiments.run_experiment": ("experiments", "run_experiment"),
    "experiments.chunk_plan": ("experiments", "chunk_plan"),
    "stabilizer_steane.build_ghz_mirror": ("stabilizer_steane", "build_ghz_mirror"),
    "stabilizer_steane.run_circuit_trials": ("stabilizer_steane", "run_circuit_trials"),
    "stabilizer_steane.simulate_frames": ("stabilizer_steane", "simulate_frames"),
    "stabilizer_steane.failure_batch":
        ("stabilizer_steane", "steane_failure_probabilities_batch"),
    "stabilizer_steane.failure_uniform":
        ("stabilizer_steane", "steane_failure_probabilities_uniform"),
    "bounds_analytics.sample_profiles": ("bounds_analytics", "sample_profiles"),
    "bounds_analytics.success_local": ("bounds_analytics", "success_local"),
    "bounds_analytics.success_dist": ("bounds_analytics", "success_dist"),
    "bounds_analytics.nth_root_gap": ("bounds_analytics", "nth_root_gap"),
    "bounds_analytics.optimal_packing_bruteforce":
        ("bounds_analytics", "optimal_packing_bruteforce"),
    "bounds_analytics.diagnose_packing": ("bounds_analytics", "diagnose_packing"),
    "bounds_analytics.barrel_ruin_two_or_more": ("bounds_analytics", "barrel_ruin_two_or_more"),
    "bounds_analytics.barrel_ruin_odds_form": ("bounds_analytics", "barrel_ruin_odds_form"),
    "bounds_analytics.enumerate_ruin": ("bounds_analytics", "enumerate_ruin"),
    "bounds_analytics.contamination_cutoff_exact":
        ("bounds_analytics", "contamination_cutoff_exact"),
    "bounds_analytics.contamination_cutoff_exact_oracle":
        ("bounds_analytics", "contamination_cutoff_exact_oracle"),
    "bounds_analytics.contamination_cutoff_approx":
        ("bounds_analytics", "contamination_cutoff_approx"),
    "bounds_analytics.contamination_cutoff_approx_oracle":
        ("bounds_analytics", "contamination_cutoff_approx_oracle"),
    "allocation.brute_force_optimal": ("allocation", "brute_force_optimal"),
    "allocation.even_partition_allocation": ("allocation", "even_partition_allocation"),
    "allocation.eta_count": ("allocation", "eta_count"),
    "allocation.eta_formula": ("allocation", "eta_formula"),
    "allocation.eta_bound": ("allocation", "eta_bound"),
    "allocation.nonlocal_count_formula": ("allocation", "nonlocal_count_formula"),
    "allocation.advantage_threshold_basic": ("allocation", "advantage_threshold_basic"),
    "allocation.advantage_threshold_general": ("allocation", "advantage_threshold_general"),
    "mixed_radix_sim.apply_unitary": ("mixed_radix_sim", "apply_unitary"),
    "mixed_radix_sim.measure_sites": ("mixed_radix_sim", "measure_sites"),
    "mixed_radix_sim.partial_trace": ("mixed_radix_sim", "partial_trace"),
    "mixed_radix_sim.fidelity": ("mixed_radix_sim", "fidelity"),
    "wstate_code.decode_measure": ("wstate_code", "decode_measure"),
    "wstate_code.decode_elective": ("wstate_code", "decode_elective"),
    "wstate_code.encode": ("wstate_code", "encode"),
    "wstate_code.encode_alt": ("wstate_code", "encode_alt"),
    "wstate_code.codeword_vector": ("wstate_code", "codeword_vector"),
    "wstate_code.erase": ("wstate_code", "erase"),
    "wstate_code.prepare_w": ("wstate_code", "prepare_w"),
    "wstate_code.w_state_vector": ("wstate_code", "w_state_vector"),
    "wstate_code.logical_unitary": ("wstate_code", "logical_unitary"),
}

# Worker-thread tasks handed to the chunk map get their own span, parented
# to the span that called the map (the enclosing run_experiment).
CHUNK_MAP = ("experiments", "_map_ordered")
CHUNK_SPAN = "experiments.chunk"

# span groups reported as one per-layer metric
GROUPS = {
    "bounds_analytics.profile": ("bounds_analytics.success_local",
                                 "bounds_analytics.success_dist",
                                 "bounds_analytics.nth_root_gap"),
    "bounds_analytics.packing": tuple(n for n in SPANS if n.startswith("bounds_analytics.")
                                      and ("packing" in n or "ruin" in n or "cutoff" in n)),
    "allocation.closed_form": tuple(n for n in SPANS if n.startswith("allocation.")
                                    and n != "allocation.brute_force_optimal"),
    "wstate_code.prep": tuple(n for n in SPANS if n.startswith("wstate_code.")
                              and not n.startswith("wstate_code.decode_")),
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _observe_simulate_frames(tracer, args, kwargs, result):
    circuit = _first_arg(args, kwargs, "circuit")
    n_trials = args[4] if len(args) > 4 else kwargs["n_trials"]
    x, z, _ = result
    tracer.count("stabilizer_steane.simulate_frames.gate_trials", len(circuit.ops) * n_trials)
    tracer.peak("stabilizer_steane.simulate_frames.frame_bytes", x.nbytes + z.nbytes)


def _observe_failure_batch(tracer, args, kwargs, result):
    tracer.count("stabilizer_steane.failure_batch.vectors",
                 len(_first_arg(args, kwargs, "eps_matrix")))


def _observe_chunk_plan(tracer, args, kwargs, result):
    tracer.count("experiments.chunks", len(result))


def _observe_state(tracer, args, kwargs, result):
    tracer.peak("mixed_radix_sim.max_state_bytes",
                _first_arg(args, kwargs, "state").array.nbytes)


OBSERVERS = {
    "stabilizer_steane.simulate_frames": _observe_simulate_frames,
    "stabilizer_steane.failure_batch": _observe_failure_batch,
    "experiments.chunk_plan": _observe_chunk_plan,
    "mixed_radix_sim.apply_unitary": _observe_state,
    "mixed_radix_sim.measure_sites": _observe_state,
    "mixed_radix_sim.partial_trace": _observe_state,
    "mixed_radix_sim.fidelity": _observe_state,
}


class Tracer:
    """Records spans around daqec functions between `install` and `restore`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []   # (id, name, start, end, parent, run_id)
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []  # (module, attribute, original)

    # -- counters (written from worker threads, hence the lock)

    def count(self, key: str, amount):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value):
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    # -- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None, observer=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)  # one C call, so atomic under the interpreter lock
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id))
        if observer is not None:
            observer(self, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, observer=observer)
        return traced

    def _wrap_chunk_map(self, fn):
        @functools.wraps(fn)
        def traced_map(task_fn, tasks, threads):
            stack = self._stack()
            parent = stack[-1] if stack else None

            def traced_task(task):
                return self._call(CHUNK_SPAN, task_fn, (task,), {}, parent=parent)
            return fn(traced_task, tasks, threads)
        return traced_map

    # -- patching

    def install(self):
        """Patch every binding, in every daqec module, of each traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        by_module = dict(zip(MODULES, modules))
        # keyed by id, as module namespaces also hold unhashable values; each
        # wrapper keeps its original alive, so no id is reused meanwhile
        replacements = {}
        for name, (mod, attr) in SPANS.items():
            original = getattr(by_module[mod], attr)
            replacements[id(original)] = self._wrap(name, original)
        original = getattr(by_module[CHUNK_MAP[0]], CHUNK_MAP[1])
        replacements[id(original)] = self._wrap_chunk_map(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def unit_of(metric: str) -> str:
    """Unit of a metric, from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"),
                         ("_frac", "ratio"), ("cores_busy", "cores")):
        if metric.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals, lo=-math.inf, hi=math.inf) -> float:
    """Total length covered by the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - union_length(children.get(s[0], ()), s[2], s[3])
            for s in spans}


def layer_metrics(spans, counters, run_wall_s: float, run_cpu_s: float) -> dict:
    """Per-layer numbers from one traced run; every key is always present."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    names = {n: (n,) for n in SPANS}
    names.update(GROUPS)

    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def spans_of(group):
        return [s for n in names[group] for s in by_name.get(n, ())]

    def busy(group):
        # summed duration of the group's outermost calls, so nesting within
        # the group (a packing search calling the ruin formula) counts once
        wanted = set(names[group])
        total = 0.0
        for s in spans_of(group):
            p = s[4]
            while p is not None and by_id[p][1] not in wanted:
                p = by_id[p][4]
            if p is None:
                total += s[3] - s[2]
        return total

    def self_s(group):
        return sum(selfs[s[0]] for s in spans_of(group))

    def layer_self(module):
        return sum(t for sid, t in selfs.items() if by_id[sid][1].split(".")[0] == module)

    def library_cover():
        # share of run_experiment wall covered by spans of the library layers
        runs = {s[0]: s for s in by_name.get("experiments.run_experiment", ())}
        covering = {run_id: [] for run_id in runs}
        for s in spans:
            if s[1].split(".")[0] in ("cli", "experiments"):
                continue
            p = s[4]
            while p is not None and p not in runs:
                p = by_id[p][4]
            if p is not None:
                covering[p].append((s[2], s[3]))
        total = sum(r[3] - r[2] for r in runs.values())
        covered = sum(union_length(covering[i], r[2], r[3]) for i, r in runs.items())
        return covered / total if total > 0 else 0.0

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    c = counters.get
    sim_busy = busy("stabilizer_steane.simulate_frames")
    batch_busy = busy("stabilizer_steane.failure_batch")
    out = {
        "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
        "experiments.write_s": self_s("experiments.execute"),
        "experiments.chunks": c("experiments.chunks", 0),
        "experiments.cores_busy": rate(run_cpu_s, run_wall_s),
        "stabilizer_steane.simulate_frames.busy_s": sim_busy,
        "stabilizer_steane.simulate_frames.gate_trials":
            c("stabilizer_steane.simulate_frames.gate_trials", 0),
        "stabilizer_steane.simulate_frames.gate_trials_per_s":
            rate(c("stabilizer_steane.simulate_frames.gate_trials", 0), sim_busy),
        "stabilizer_steane.simulate_frames.frame_bytes":
            c("stabilizer_steane.simulate_frames.frame_bytes", 0),
        "stabilizer_steane.run_circuit_trials.self_s":
            self_s("stabilizer_steane.run_circuit_trials"),
        "stabilizer_steane.build_ghz_mirror.busy_s": busy("stabilizer_steane.build_ghz_mirror"),
        "stabilizer_steane.failure_batch.busy_s": batch_busy,
        "stabilizer_steane.failure_batch.vectors":
            c("stabilizer_steane.failure_batch.vectors", 0),
        "stabilizer_steane.failure_batch.vectors_per_s":
            rate(c("stabilizer_steane.failure_batch.vectors", 0), batch_busy),
        "stabilizer_steane.failure_uniform.busy_s": busy("stabilizer_steane.failure_uniform"),
        "bounds_analytics.sample_profiles.busy_s": busy("bounds_analytics.sample_profiles"),
        "bounds_analytics.profile.busy_s": busy("bounds_analytics.profile"),
        "bounds_analytics.profile.calls": len(spans_of("bounds_analytics.profile")),
        "bounds_analytics.packing.busy_s": busy("bounds_analytics.packing"),
        "allocation.brute_force_optimal.busy_s": busy("allocation.brute_force_optimal"),
        "allocation.closed_form.busy_s": busy("allocation.closed_form"),
        "mixed_radix_sim.apply_unitary.busy_s": busy("mixed_radix_sim.apply_unitary"),
        "mixed_radix_sim.apply_unitary.calls": len(spans_of("mixed_radix_sim.apply_unitary")),
        "mixed_radix_sim.measure_sites.busy_s": busy("mixed_radix_sim.measure_sites"),
        "mixed_radix_sim.partial_trace.busy_s": busy("mixed_radix_sim.partial_trace"),
        "mixed_radix_sim.fidelity.busy_s": busy("mixed_radix_sim.fidelity"),
        "mixed_radix_sim.max_state_bytes": c("mixed_radix_sim.max_state_bytes", 0),
        "wstate_code.decode_measure.self_s": self_s("wstate_code.decode_measure"),
        "wstate_code.decode_elective.self_s": self_s("wstate_code.decode_elective"),
        "wstate_code.prep.self_s": self_s("wstate_code.prep"),
        "trace.library_cover_frac": library_cover(),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = layer_self(module)
    return out

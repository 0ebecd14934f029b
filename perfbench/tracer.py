"""Per-layer tracing from outside the program.

The layers are gmineq's modules.  `Tracer` replaces every public function of
each `gmineq.*` module, in every gmineq namespace that holds a reference to
it, with a wrapper that times the call; it also counts `numpy.linalg.eigh`.
Nothing in `src/` changes, and `restore` puts every original back.

A call's self time is its duration minus that of the wrapped calls it makes
in the same thread; a layer's self time is the sum over its calls, over all
threads.  `<layer>.calls` counts calls that enter the layer from another
layer or from the benchmark.  Recursive entry points are not wrapped: the
wrapper's cost would be paid once per nested element (`reports.dumps`).
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import Counter

import numpy as np

PACKAGE = "gmineq"
NOT_LAYERS = ("cli", "errors")
SKIP = {"reports.dumps"}

# Inclusive time of these groups of functions, counted at the outermost call.
GROUPS = {
    "linalg.require_hermitian": "linalg.validate",
    "linalg.require_spd": "linalg.validate",
    "chains.condition_max": "chains.condition_max",
    "reports.chain_record": "reports.build",
    "reports.lemma_record": "reports.build",
    "reports.build_report_set": "reports.build",
    "reports.write_reports": "reports.write",
    "reports.read_reports": "reports.read",
}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []           # frames: [layer, seconds spent in wrapped children]
        self.depth = Counter()    # open calls per group
        self.stats = None


class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.totals()` afterwards."""

    def __init__(self):
        self._patched = []        # (namespace, attribute, original)
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._all_stats = []

    # -- statistics ---------------------------------------------------------

    def _stats(self) -> Counter:
        st = self._local
        if st.stats is None:
            st.stats = Counter()
            with self._lock:
                self._all_stats.append(st.stats)
        return st.stats

    def totals(self) -> Counter:
        """Counts and seconds summed over every thread that made a call."""
        with self._lock:
            return sum(self._all_stats, Counter())

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        local, stats_of, group, clock = self._local, self._stats, GROUPS.get(key), time.perf_counter

        def traced(*args, **kwargs):
            stack = local.stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            if group:
                local.depth[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats = stats_of()
                stats[f"{layer}.self_s"] += elapsed - frame[1]
                stats[f"fn.{key}"] += 1
                if parent is None or parent[0] != layer:
                    stats[f"{layer}.calls"] += 1
                if parent is not None:
                    parent[1] += elapsed
                if group:
                    local.depth[group] -= 1
                    if not local.depth[group]:
                        stats[f"{group}_s"] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count_eigh(self, eigh):
        stats_of = self._stats

        def counted(a, *args, **kwargs):
            stats = stats_of()
            stats["linalg.eigh_calls"] += 1
            stats["linalg.eigh_matrices"] += int(np.prod(np.shape(a)[:-2], dtype=np.int64))
            return eigh(a, *args, **kwargs)

        counted.__wrapped__ = eigh
        return counted

    def _patch(self, namespace, name, new):
        self._patched.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, new)

    def install(self) -> "Tracer":
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            for name, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or name.startswith("_"):
                    continue
                origin = obj.__module__ or ""
                layer = origin.rpartition(".")[2]
                if not origin.startswith(PACKAGE + ".") or layer in NOT_LAYERS:
                    continue
                key = f"{layer}.{obj.__name__}"
                if key in SKIP or obj.__qualname__ != obj.__name__:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer, key)
                self._patch(mod, name, wrappers[id(obj)])
        self._patch(np.linalg, "eigh", self._count_eigh(np.linalg.eigh))
        return self

    def restore(self) -> None:
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds each public function listed in ``LAYERS`` in
every ``repeaterscope`` module that holds a binding of it (``pair_minimum``
is bound in both ``cascade`` and ``metrics``, ``run_cascade`` in both
``cascade`` and ``protocol``), so internal calls are seen as well as the
benchmark's own.  Each call leaves a span (name, start, end, parent) in
memory; ``uninstall`` restores the original bindings.  Only traced runs
install the wrappers.

A span's parent is the innermost open span on its own thread or, for the
first span on a worker thread, the innermost open span of the thread that
installed the tracer (the one that submitted the work).  Self time is a
span's duration minus the union of the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "sweep": ("run_sweep", "optimize_depth", "rows_to_csv"),
    "protocol": ("evaluate_chain", "build_schedule"),
    "channel": ("select_wavelength", "conversion_threshold"),
    "states": ("apply_dephasing", "swap", "dejmps", "key_fraction"),
    "cascade": (
        "run_cascade",
        "generation_distribution",
        "conditional_init",
        "distillation_thinning",
        "pair_minimum",
        "conditional_level_update",
        "reset_probability_f",
    ),
    "metrics": ("ops_per_burst", "ops_per_secret_bit"),
    "coupling": (
        "fiber_mode",
        "solve_characteristic",
        "optimize_waist",
        "tilted_eta",
        "effective_coupling",
    ),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

CONSTRUCTIONS = "cascade.PairCountDistribution.constructions"
DEPTHS_PER_POINT = "sweep.depths_per_point"
CSV_BYTES = "sweep.rows_to_csv.bytes"
TRACED_THROUGHPUT = "traced.points_per_s"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit; counts and times are per round."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count/round"
        units[f"{span}.self_ms"] = "ms/round"
    units[CONSTRUCTIONS] = "count/round"
    units[DEPTHS_PER_POINT] = "count/point"
    units[CSV_BYTES] = "B/round"
    units[TRACED_THROUGHPUT] = "1/s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, float, float, int]] = []  # id, name, start, end, parent
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._constructions: list[None] = []  # list.append is atomic under the GIL
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, index: int, fn):
        spans, ids, home = self.spans, self._ids, self._home_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or home
            parent = outer[-1] if outer else -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, index, start, end, parent))

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever the program binds it."""
        self._local.stack = self._home_stack
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("repeaterscope.")]
        for index, span in enumerate(SPAN_NAMES):
            mod_name, fn_name = span.split(".")
            original = getattr(sys.modules.get(f"repeaterscope.{mod_name}"), fn_name, None)
            if original is None:  # a layer function that no longer exists
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        dist_cls = getattr(sys.modules.get("repeaterscope.cascade"), "PairCountDistribution", None)
        post_init = getattr(dist_cls, "__post_init__", None)
        if post_init is not None:
            log = self._constructions

            def counted(obj):
                log.append(None)
                post_init(obj)

            self._restore.append((dist_cls, "__post_init__", post_init))
            dist_cls.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-round calls and self time per span name, and depths per point."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        ids = arr[:, 0].astype(np.int64)
        names = arr[:, 1].astype(np.int64)
        start, end, parent = arr[:, 2], arr[:, 3], arr[:, 4].astype(np.int64)
        row_of = {int(i): r for r, i in enumerate(ids)}

        children: dict[int, list[int]] = defaultdict(list)
        for r, p in enumerate(parent):
            if p >= 0 and int(p) in row_of:
                children[row_of[int(p)]].append(r)
        self_s = end - start
        for r, kids in children.items():
            intervals = sorted(zip(start[kids], end[kids]))
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in intervals:
                lo, hi = max(lo, start[r]), min(hi, end[r])
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            self_s[r] -= covered

        out = {}
        for index, span in enumerate(SPAN_NAMES):
            mask = names == index
            out[f"{span}.calls"] = float(mask.sum()) / rounds
            out[f"{span}.self_ms"] = float(self_s[mask].sum()) * 1e3 / rounds
        depth_ids = ids[names == SPAN_NAMES.index("sweep.optimize_depth")]
        chain_parents = parent[names == SPAN_NAMES.index("protocol.evaluate_chain")]
        evaluations = int(np.isin(chain_parents, depth_ids).sum())
        out[DEPTHS_PER_POINT] = evaluations / len(depth_ids) if len(depth_ids) else 0.0
        out[CONSTRUCTIONS] = len(self._constructions) / rounds
        return out

    def save(self, path) -> None:
        """Write the spans as arrays (id, name index, start, end, parent)."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez(path, spans=arr, names=np.array(SPAN_NAMES))

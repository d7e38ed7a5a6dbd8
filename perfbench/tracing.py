"""Spans around the calls into polyweight's layers, kept in memory.

A span records its name (``<layer>.<operation>``), start and end
(``time.perf_counter`` seconds), the index of its parent span (-1 for a
root), the run id, and the work counts read off the call's result.
The benchmark opens spans around its own calls into each module's
public functions (``Tracer.call``).  Layers reached only from inside
another layer (the kernel sweeps under ``check_assumption``, validation
and the Weyl closure under a context or an orbit scan, the library
calls under the in-process CLI) get spans from wrappers that
``Tracer.recording`` sets on the package's module attributes for the
length of a traced round and removes afterwards; ``src/`` is not
edited.  A span is not opened when the innermost open span already has
the same name, so a call the benchmark wraps and a wrapper it reaches
give one span.

``aggregate`` turns the spans of each root (one round) into per-layer
totals: time per operation, work counts, and self time per layer (a
span's duration minus the part its child spans cover).
"""

import json
import statistics
import time
from contextlib import contextmanager


# Work counts read off each operation's result.
COUNTERS = {
    "classify.enumerate": lambda result: {"enumerated": len(result)},
    "kernels.pair_witness_sweep": lambda result: {"pairs_evaluated": result[0]},
    "kernels.poly_consistency_sweep": lambda result: {"poly_points": result[0]},
    "kernels.decompose_unique_sweep": lambda result: {"decompose_points": result[0]},
    "kernels.predicate_flags_box": lambda result: {"flag_points": len(result)},
    "affine.orbit_in_box": lambda result: {
        "orbit_box_points": (2 * result.box_radius + 1) ** len(result.base),
        "orbit_elements": len(result.elements),
    },
    "affine.shift_bijection": lambda result: {"shift_checks": result.orbit_size},
}

class Tracer:
    """Span recorder; records only while ``active``."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.active = False
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when recording."""
        if not self.active or (
            self._stack and self.spans[self._stack[-1]][0] == name
        ):
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            record[4] = counter(result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _patches(self, pw):
        """(owner, attribute, span name) of every inner layer boundary."""
        from polyweight import _kernels as kernels
        from polyweight import cli, groups

        targets = [
            (kernels, "pair_witness_sweep", "kernels.pair_witness_sweep"),
            (kernels, "poly_consistency_sweep", "kernels.poly_consistency_sweep"),
            (kernels, "decompose_unique_sweep", "kernels.decompose_unique_sweep"),
            (kernels, "predicate_flags_box", "kernels.predicate_flags_box"),
            (groups, "validate_datum", "groups.validate"),
            (pw.ClassificationContext, "__post_init__", "classify.context"),
        ]
        # The CLI imported these names; its own bindings are wrapped.
        targets += [
            (cli, "parse_group_spec", "groups.build"),
            (cli, "validate_datum", "groups.validate"),
            (cli, "check_assumption", "phi.check_assumption"),
            (cli, "in_Pr", "classify.scalar"),
            (cli, "decompose", "classify.scalar"),
            (cli, "is_polynomial", "classify.scalar"),
            (cli, "is_restricted", "classify.scalar"),
            (cli, "enumerate_Pr", "classify.enumerate"),
            (cli, "go_even_counterexample", "classify.counterexample"),
            (cli, "shift_bound_a", "affine.shift_bound"),
            (cli, "check_shift_bijection", "affine.shift_bijection"),
        ]
        return targets

    def _weyl_wrapper(self, original):
        tracer = self

        def weyl_group(datum, *args, **kwargs):
            # Elements are counted only when the closure is computed, not
            # when the datum's cached group is returned.
            fresh = "weyl" not in datum._cache
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == "groups.weyl":
                target = stack[-1]  # the span the benchmark opened for this call
            else:
                target = len(tracer.spans)
            result = tracer.call("groups.weyl", original, datum, *args, **kwargs)
            if target < len(tracer.spans):
                tracer.spans[target][4] = (
                    {"weyl_elements": len(result)} if fresh
                    else {"weyl_cache_hits": 1}
                )
            return result

        weyl_group.__wrapped__ = original
        return weyl_group

    @contextmanager
    def recording(self, pw):
        """Record spans, with the inner-boundary wrappers in place."""
        saved = []
        for owner, attr, name in self._patches(pw):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        datum_cls = pw.GroupDatum
        saved.append((datum_cls, "weyl_group", datum_cls.weyl_group))
        datum_cls.weyl_group = self._weyl_wrapper(datum_cls.weyl_group)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """Write every span once, at the end of the run."""
        rows = [
            [name, start, end, parent, self.run_id, counts]
            for name, start, end, parent, counts in self.spans
        ]
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "run_id", "counts"],
            "spans": rows,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def aggregate(spans, root_name):
    """Per-root totals for every root span called ``root_name``.

    Returns one dict per root: ``<name>_s`` summed durations and
    ``<name>_calls`` span counts per span name, summed work counts per
    layer (``<layer>.<count>``), and ``<layer>.self_s`` per layer.
    """
    roots = {}
    root_of = []
    child_time = [0.0] * len(spans)
    for index, (name, start, end, parent, counts) in enumerate(spans):
        root = index if parent < 0 else root_of[parent]
        root_of.append(root)
        if parent >= 0:
            child_time[parent] += end - start
        if parent < 0 and name == root_name:
            roots[index] = {}
    for index, (name, start, end, parent, counts) in enumerate(spans):
        totals = roots.get(root_of[index])
        if totals is None or parent < 0:
            continue
        layer = name.split(".", 1)[0]
        duration = end - start
        totals[name + "_s"] = totals.get(name + "_s", 0.0) + duration
        totals[name + "_calls"] = totals.get(name + "_calls", 0) + 1
        self_key = layer + ".self_s"
        totals[self_key] = totals.get(self_key, 0.0) + duration - child_time[index]
        for key, value in (counts or {}).items():
            totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value
    return list(roots.values())


def median_of(rows, key):
    """Median over roots of one total; 0 where no root has it."""
    values = [row.get(key, 0) for row in rows]
    return statistics.median(values) if values else 0

"""In-memory span recorder for the traced run.

The engine is treated as a black box: tracing wraps the public functions of
each module (and ``FunctionRing.__init__``) wherever a ``quasiring`` module
binds them, records one span per call, and restores the originals when the
traced pass ends.  A span is (name, start, end, parent span, operation id);
spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name); every binding of the same function object
# in any quasiring module is replaced, so intra-module calls are seen too
WRAPPED = [
    ("quasiring.dsl", "parse_spec", "dsl.parse"),
    ("quasiring.topology", "validate_topology", "topology.build"),
    ("quasiring.topology", "discrete_space", "topology.build"),
    ("quasiring.topology", "sierpinski_space", "topology.build"),
    ("quasiring.topology", "disjoint_union", "topology.build"),
    ("quasiring.topology", "quasi_component", "topology.quasi_components"),
    ("quasiring.topology", "quasi_component_partition",
     "topology.quasi_components"),
    ("quasiring.topology", "clopen_family", "topology.clopens"),
    ("quasiring.topology", "clopen_base_topology", "topology.clopen_base"),
    ("quasiring.topology", "compare_topologies", "topology.compare"),
    ("quasiring.algebra", "make_zmod", "algebra.build"),
    ("quasiring.algebra", "make_table", "algebra.build"),
    ("quasiring.algebra", "structure_flags", "algebra.build"),
    ("quasiring.ideals", "ideal_lattice", "ideals.lattice"),
    ("quasiring.ideals", "classify_primes", "ideals.classify"),
    ("quasiring.ideals", "prime_radical", "ideals.radical"),
    ("quasiring.ideals", "family_sets", "ideals.families"),
    ("quasiring.zariski", "zariski_closed_family", "zariski.closed_family"),
    ("quasiring.verify.generator", "generate_prescribed_ring",
     "verify.generate"),
]

# counters recorded at the same boundaries, from each call's result
COUNTERS = {
    "ideals.lattice": ("ideals.lattice_ideals", lambda r: len(r.ideals)),
    "zariski.closed_family": (
        "zariski.closed_sets", lambda r: len(r.closed_family or ())),
}


class Recorder:
    """Spans of one traced run.  Not thread-safe: the benchmark is
    single-threaded by design."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()
        self._stack = []
        self.op = None
        self._saved = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_run_checker(self, fn):
        def traced(checker_id, ctx, instance=""):
            index = self.open(f"verify.check.{checker_id}")
            try:
                report = fn(checker_id, ctx, instance)
            finally:
                self.close(index)
            self.counts[f"verdict.{report.verdict}"] += 1
            return report

        traced.__wrapped__ = fn
        return traced

    def _wrap_ring_init(self, init):
        def traced(ring, *args, **kwargs):
            index = self.open("funcspace.ring_build")
            try:
                init(ring, *args, **kwargs)
            finally:
                self.close(index)
            self.counts["funcspace.ring_elements"] += len(ring.elements)

        traced.__wrapped__ = init
        return traced

    def _bind(self, original, replacement):
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("quasiring"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._saved.append((mod, attr, original))

    def install(self):
        """Wrap the engine's public functions; `uninstall` undoes it."""
        from quasiring.funcspace import FunctionRing
        from quasiring.verify import checkers

        for modname, attr, name in WRAPPED:
            fn = getattr(importlib.import_module(modname), attr)
            self._bind(fn, self._wrap(fn, name))
        run = checkers.run_checker
        self._bind(run, self._wrap_run_checker(run))
        init = FunctionRing.__init__
        FunctionRing.__init__ = self._wrap_ring_init(init)
        self._saved.append((FunctionRing, "__init__", init))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict:
        """Per span: its duration minus the durations of its direct children
        (single-threaded, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return {i: (s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)}

    def totals(self) -> tuple[Counter, Counter]:
        """(self time, inclusive time) summed by span name."""
        own = self.self_times()
        self_by, total_by = Counter(), Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_by[name] += own[i]
            total_by[name] += end - start
        return self_by, total_by

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

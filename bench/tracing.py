"""In-memory spans around the calls into each fpsynt layer.

``Tracer.install`` replaces fpsynt's public functions at the names their
callers look up (the ``fpsynt`` package for the benchmark's own flow, the
module globals for calls inside fpsynt) with timing wrappers;
``uninstall`` puts the originals back, so untraced passes and the oracles
run the unwrapped code.

Span times are thread CPU seconds, read from ``Tracer.clock``; run.py sets
it to a clock that leaves out the speed sampling (see speed.py).
A span's self time is its duration minus the time of the traced calls it
made. The calls made thousands of times per spec (``PlanBuilder.step``,
``PlanBuilder.finish``, ``run_fixed``, ``run_reference``) are only summed
per name; every other call is also kept as a span record, with its parent,
and written out by ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import fpsynt
from fpsynt import analysis, optimizer, pipeline, simulator
from fpsynt.errors import CannotFitError

# (owner, attribute, span name, kept as a span record)
TARGETS = [
    (fpsynt, "synthesize", "pipeline.synthesize", True),
    (pipeline, "parse_spec", "parser.parse", True),
    (pipeline, "validate_formats", "parser.validate", True),
    (optimizer, "enumerate_topologies", "optimizer.enumerate", True),
    (optimizer, "combinatorial_search", "optimizer.search", True),
    (optimizer, "chain_allocate", "optimizer.chain", True),
    (analysis.PlanBuilder, "step", "analysis.step", False),
    (analysis.PlanBuilder, "finish", "analysis.finish", False),
    (pipeline, "check_plan", "analysis.check", True),
    (fpsynt, "emit_c", "codegen.emit_c", True),
    (fpsynt, "emit_vhdl", "codegen.emit_vhdl", True),
    (fpsynt, "report_json", "report.json", True),
    (fpsynt, "generate_vectors", "simulator.generate", True),
    (fpsynt, "compare", "simulator.compare", True),
    (simulator, "run_fixed", "simulator.run_fixed", False),
    (simulator, "run_reference", "simulator.run_reference", False),
]

# counters read off a call's result
COUNTERS = {
    "parser.parse": ("parser.source_nodes", lambda r: len(r[0].nodes)),
    "optimizer.enumerate": ("optimizer.topologies", len),
}


class Tracer:
    def __init__(self):
        self.clock = time.thread_time
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds, CannotFitError raised]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open calls: [child seconds, span id or None]
        self._next_id = 0
        self._saved: list[tuple] = []

    def reset_totals(self):
        self.totals = {}
        self.counts = {}

    def _wrap(self, fn, name: str, keep: bool):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            failed = False
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except CannotFitError:
                failed = True
                raise
            finally:
                end = self.clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                total = self.totals.setdefault(name, [0, 0.0, 0])
                total[0] += 1
                total[1] += duration - frame[0]
                total[2] += failed
                if keep:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    self.spans.append({"id": span_id, "parent": parent, "name": name,
                                       "start": start, "end": end,
                                       "self_s": duration - frame[0], "failed": failed})
            if name in COUNTERS:
                counter, measure = COUNTERS[name]
                self.counts[counter] = self.counts.get(counter, 0) + measure(result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; a missing one reads as 0 calls."""
        for owner, attr, name, keep in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, keep))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0])[1]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0])[0]

    def fails(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0])[2]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n")

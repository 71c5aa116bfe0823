"""Span and counter tracing of the simsup layers, from outside the package.

`Tracer.install` wraps public functions of each layer by rebinding the name
in every simsup module that holds it (for example `minimal_covers` in
`synthesis`, `grcheck` and `partial`), so calls are caught whichever module
makes them.  Each call becomes a span with a parent; a layer's self time is
its span time minus the time of its child spans.  Spans stay in memory and
are written once, by `write_spans`, when the run ends.

Counters are taken in hooks that run after the span has closed, and their
cost is charged to no layer.  `begin_call` / `end_call` bracket one CLI call;
a call cut off by the time limit has its counters rolled back, because how
far it got depends on the speed of the machine.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, function, span name); simulation._greatest_fixpoint is private but
# it is the one engine behind check_simulation and greatest_uc_fixpoint
TARGETS = (
    ("simsup.cli", "build_parser", "cli.argparse"),
    ("simsup.autfile", "load_automaton", "autfile.parse"),
    ("simsup.autfile", "save_automaton", "autfile.write"),
    ("simsup.autfile", "write_sidecar", "autfile.write"),
    ("simsup.automata", "compose", "automata.compose"),
    ("simsup.simulation", "_greatest_fixpoint", "simulation.fixpoint"),
    ("simsup.synthesis", "build", "synthesis.build"),
    ("simsup.synthesis", "minimal_covers", "synthesis.minimal_covers"),
    ("simsup.grcheck", "check_saturated", "grcheck.check_saturated"),
    ("simsup.partial", "build_partial", "partial.build"),
    ("simsup.partial", "minimal_u", "partial.minimal_u"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # flat rows of (name id, parent row or -1, start ns, end ns)
        self.spans = array("q")
        self._open: list[list[int]] = []  # [row, start ns, child ns]
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._call_counters: Counter | None = None
        self._command = None
        self._seen_covers: set = set()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            row = len(spans) // 4
            parent = stack[-1][0] if stack else -1
            spans.extend((nid, parent, 0, 0))
            start = perf_counter_ns()
            stack.append([row, start, 0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                _, _, child = stack.pop()
                spans[4 * row + 2] = start
                spans[4 * row + 3] = end
                self.total_ns[name] += end - start
                self.self_ns[name] += end - start - child
            if hook is not None:
                hook(result, *args, **kwargs)
            if stack:
                # the parent excludes this call and its hook from its self time
                stack[-1][2] += perf_counter_ns() - start
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "save_automaton": self._count_bytes,
            "write_sidecar": self._count_sidecar_bytes,
            "compose": self._count_product,
            "_greatest_fixpoint": self._count_fixpoint,
            "build": self._count_build,
            "minimal_covers": self._count_covers,
            "build_partial": self._count_partial_build,
            "minimal_u": self._count_minimal_u,
        }
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            hook = hooks.get(attr)
            if attr == "build_parser":
                wrapped = self._wrap_parser(original, name)
            else:
                wrapped = self.wrap(original, name, hook)
            for mname, module in list(sys.modules.items()):
                if (mname == "simsup" or mname.startswith("simsup.")) \
                        and getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- per CLI call ------------------------------------------------------

    def begin_call(self, argv) -> None:
        self._open.clear()  # a time limit may have struck between push and try
        self._command = argv[0]
        self._seen_covers = set()
        self._call_counters = Counter()

    def end_call(self, keep: bool) -> None:
        if keep:
            self.counters.update(self._call_counters)
        self._call_counters = None

    def count(self, key: str, n=1) -> None:
        if self._call_counters is not None:
            self._call_counters[key] += n

    # -- hooks -------------------------------------------------------------

    def _wrap_parser(self, build_parser, name):
        inner = self.wrap(build_parser, name)

        def traced_build_parser():
            parser = inner()
            parser.parse_args = self.wrap(parser.parse_args, name)
            return parser

        return traced_build_parser

    def _count_bytes(self, _result, _automaton, path):
        self.count("autfile.bytes_written", os.path.getsize(path))

    def _count_sidecar_bytes(self, _result, _sup, _plant, _spec, path):
        self.count("autfile.bytes_written", os.path.getsize(path))

    def _count_product(self, result, *_args, **_kwargs):
        self.count("automata.product_states", len(result.states))

    def _count_fixpoint(self, result, g, r, _events):
        self.count("simulation.fixpoint_calls")
        self.count("simulation.pairs_initial", len(g.states) * len(r.states))
        self.count("simulation.pairs_final", len(result))

    def _count_build(self, result, *_args, **_kwargs):
        self.count("synthesis.states", len(result.automaton.states))
        self.count("synthesis.edges", len(result.automaton.transitions))

    def _count_covers(self, result, w, event, ctx):
        from simsup.synthesis import cover_family
        self.count("synthesis.minimal_covers_calls")
        self.count("synthesis.covers_emitted", len(result))
        fam = cover_family(w, event, ctx)
        self.count("synthesis.choice_functions",
                   math.prod(len(a) for (_, a) in fam.obligations))
        if self._command == "verify":
            key = (frozenset(w), event)
            if key in self._seen_covers:
                self.count("grcheck.minimal_covers_repeat")
            self._seen_covers.add(key)

    def _count_partial_build(self, result, *_args, **_kwargs):
        self.count("partial.triple_states", len(result.automaton.states))

    def _count_minimal_u(self, result, *_args, **_kwargs):
        self.count("partial.minimal_u_calls")
        self.count("partial.closures_returned", len(result))

    # -- report ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures, except the guard trips and the overhead ratio,
        which the harness adds."""
        def s(counter, name):
            return counter[name] / 1e9

        c = self.counters
        out = {
            "cli.argparse_s": s(self.total_ns, "cli.argparse"),
            "autfile.parse_s": s(self.total_ns, "autfile.parse"),
            "autfile.write_s": s(self.total_ns, "autfile.write"),
            "automata.compose_s": s(self.total_ns, "automata.compose"),
            "simulation.fixpoint_s": s(self.total_ns, "simulation.fixpoint"),
            "synthesis.build_self_s": s(self.self_ns, "synthesis.build"),
            "synthesis.minimal_covers_s": s(self.total_ns, "synthesis.minimal_covers"),
            "grcheck.check_saturated_self_s": s(self.self_ns, "grcheck.check_saturated"),
            "partial.build_self_s": s(self.self_ns, "partial.build"),
            "partial.minimal_u_s": s(self.total_ns, "partial.minimal_u"),
        }
        for key in ("autfile.bytes_written", "automata.product_states",
                    "simulation.fixpoint_calls", "simulation.pairs_initial",
                    "simulation.pairs_final", "synthesis.states",
                    "synthesis.edges", "synthesis.minimal_covers_calls",
                    "synthesis.covers_emitted", "synthesis.choice_functions",
                    "grcheck.minimal_covers_repeat", "partial.minimal_u_calls",
                    "partial.closures_returned", "partial.triple_states"):
            out[key] = c[key]
        choices = c["synthesis.choice_functions"]
        out["synthesis.cover_yield"] = (c["synthesis.covers_emitted"] / choices
                                        if choices else 0.0)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, parent row (-1 for a root), start
        and end in perf_counter nanoseconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for row in range(len(spans) // 4):
                nid, parent, start, end = spans[4 * row:4 * row + 4]
                fh.write(json.dumps([self.names[nid], parent, start, end]) + "\n")

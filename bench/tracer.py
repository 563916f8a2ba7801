"""Spans around calls into the layers of `pec`, for the traced run.

`Tracer.install` wraps the traced functions in every `pec.*` module
namespace that binds them, so a call from one layer into another (for
instance `enumerate_worlds` under `marginal`, or `herbrand_entails`
under validation) is recorded too.  Each span keeps its name, start,
end, parent and the work it did; spans stay in memory until `write`.

Calls to the hot leaf functions (`LEAVES`) are not kept one by one:
their count and time are summed per pass, and their time is charged to
the enclosing span as child time, so self times stay right.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute) -> span name.  `_validate_statements` is the
# validation step `parse_domain` and `validate` both run.
TRACED = {
    ("pec.syntax", "parse_domain"): "syntax.parse_domain",
    ("pec.syntax", "_validate_statements"): "syntax.validate",
    ("pec.syntax", "parse_query"): "syntax.parse_query",
    ("pec.core", "herbrand_entails"): "core.herbrand_entails",
    ("pec.core", "satisfies"): "core.satisfies",
    ("pec.engine", "enumerate_worlds"): "engine.enumerate_worlds",
    ("pec.engine", "marginal"): "engine.marginal",
    ("pec.engine", "conditional"): "engine.conditional",
    ("pec.engine", "sample_frequency"): "engine.sample_frequency",
    ("pec.engine", "transition_graph"): "engine.transition_graph",
    ("pec.aspgen", "translate"): "aspgen.translate",
    ("pec.aspgen", "emit"): "aspgen.emit",
    ("pec.aspgen", "to_dnf"): "aspgen.to_dnf",
    ("pec.cli", "main"): "cli.main",
}
LEAVES = {"core.herbrand_entails", "core.satisfies", "aspgen.to_dnf"}


def _work(name, args, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "syntax.parse_domain":
        return {"bytes": len(args[0].encode())}
    if name == "engine.enumerate_worlds":
        return {"worlds": len(result),
                "traces": sum(len(w.traces) for w in result)}
    if name == "engine.sample_frequency":
        return {"samples": args[2]}
    if name == "engine.transition_graph":
        return {"edges": len(result)}
    if name == "aspgen.emit":
        return {"bytes": len(result.encode()),
                "clauses": sum(1 for line in result.splitlines()
                               if line and not line.startswith("%"))}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, child_ns, work, scale]
        self.leaf = defaultdict(lambda: [0, 0.0])  # name -> [calls, scaled ns]
        self._pending_leaf = defaultdict(lambda: [0, 0])
        self._stack = []
        self._closed = 0
        self._installed = []

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter_ns

        if name in LEAVES:
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    agg = tracer._pending_leaf[name]
                    agg[0] += 1
                    agg[1] += took
                    if tracer._stack:
                        tracer._stack[-1][5] += took
            return leaf

        def span(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            record = [len(tracer.spans), name, clock(), 0,
                      parent[0] if parent else None, 0, {}, 1.0]
            tracer.spans.append(record)
            tracer._stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                tracer._stack.pop()
                if parent is not None:
                    parent[5] += record[3] - record[2]
            record[6] = _work(name, args, result)
            return result
        return span

    def install(self, modules) -> None:
        """Wrap every traced function wherever a `pec.*` module binds it."""
        originals = {}
        for (mod, attr), name in TRACED.items():
            originals[id(getattr(modules[mod], attr))] = name
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is not None:
                    setattr(mod, attr, self._wrap(name, value))
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def close_pass(self, scale: float) -> None:
        """Scale what the pass just ended recorded to reference time."""
        for record in self.spans[self._closed:]:
            record[7] = scale
        self._closed = len(self.spans)
        for name, (calls, ns) in self._pending_leaf.items():
            self.leaf[name][0] += calls
            self.leaf[name][1] += ns * scale
        self._pending_leaf.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, start, end, parent, child, work, scale in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "self_ns": end - start - child,
                    "scale": round(scale, 6), "work": work}) + "\n")
            out.write(json.dumps({"leaf_calls": {
                name: {"calls": c, "ref_ns": round(ns)}
                for name, (c, ns) in sorted(self.leaf.items())}}) + "\n")

    def totals(self) -> dict:
        """name -> {calls, ref_ns, self_ref_ns, work...} over closed passes."""
        out = defaultdict(lambda: defaultdict(float))
        for _, name, start, end, _, child, work, scale in self.spans[:self._closed]:
            t = out[name]
            t["calls"] += 1
            t["ref_ns"] += (end - start) * scale
            t["self_ref_ns"] += (end - start - child) * scale
            for k, v in work.items():
                t[k] += v
        for name, (calls, ns) in self.leaf.items():
            t = out[name]
            t["calls"] += calls
            t["ref_ns"] += ns
            t["self_ref_ns"] += ns
        return out

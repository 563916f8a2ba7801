"""The pec benchmark: four workloads, every timing scaled to a reference kernel.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-inference --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

A run sets up several times (import, input generation, parsing, one
warm-up round whose outputs are checked against the references), then
runs whole rounds of the workload's operations, one at a time, until
`--seconds` have passed.  Each pass of operations is bracketed by the
reference kernel of `refkernel.py`, and its wall times are scaled by
`K_NOMINAL_MS / mean(adjacent kernel times)`.  With `--trace 1` the
layers' functions are wrapped in spans (`tracer.py`) and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Run records and traces go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import refkernel  # noqa: E402  (the kernel imports nothing of pec)
import workloads  # noqa: E402
from oracle import Mismatch  # noqa: E402
from tracer import Tracer  # noqa: E402

PASS_NS = 50_000_000  # a pass ends after the operation that crosses 50 ms
SETUPS = 3  # set-ups per run; the median is reported
PROBES = 5  # interpreter start-up and import-time probes per traced run
PEC_MODULES = ("pec", "pec.core", "pec.syntax", "pec.engine", "pec.aspgen", "pec.cli")


def bracket_ms() -> float:
    """One kernel timing: the median of three back-to-back runs, so a
    single preemption does not distort the scale of a pass."""
    return statistics.median(refkernel.kernel_ms() for _ in range(3))


def scale(k_before: float, k_after: float) -> float:
    return refkernel.K_NOMINAL_MS / ((k_before + k_after) / 2)


def fresh_pec():
    """Import `pec` from this checkout's `src`, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "pec" or m.startswith("pec.")]:
        del sys.modules[name]
    pec = importlib.import_module("pec")
    importlib.import_module("pec.cli")
    return pec


def call(op):
    try:
        return op.fn(*op.args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def setup_once(name: str, seed: int, inproc: bool):
    """Import, inputs, parsing and one warm-up round, timed and scaled."""
    k0 = bracket_ms()
    t0 = time.perf_counter()
    pec = fresh_pec()
    if name == "cli":
        w = workloads.cli(pec, seed, inproc=inproc)
    else:
        w = workloads.BUILDERS[name](pec, seed)
    w.resolve()
    outputs = [call(op) for op in w.ops]
    wall = time.perf_counter() - t0
    k1 = bracket_ms()
    return w, outputs, wall, wall * scale(k0, k1)


def verify_first_round(w, outputs) -> list:
    """Problems with the warm-up round's outputs (empty when all pass)."""
    if any(isinstance(o, Exception) for o in outputs):
        return [f"{op.name}: raised {o!r}" for op, o in zip(w.ops, outputs)
                if isinstance(o, Exception)]
    try:
        w.verify(outputs)
    except Mismatch as exc:
        return [str(exc)]
    return []


def measure(w, refs, seconds: float, tracer=None) -> dict:
    """Whole rounds of the operations until `seconds` have passed."""
    clock = time.perf_counter_ns
    n = len(w.ops)
    samples = [[] for _ in range(n)]  # reference ms per operation
    raw = [[] for _ in range(n)]  # wall ms per operation
    factors, problems = [], []
    attempted = failed = rounds = 0
    k_prev = bracket_ms()
    deadline = time.perf_counter() + seconds
    while True:
        i = 0
        while i < n:
            batch = []
            start = clock()
            while i < n and clock() - start < PASS_NS:
                op = w.ops[i]
                t0 = clock()
                out = call(op)
                batch.append((i, clock() - t0, out))
                i += 1
            k_next = bracket_ms()
            factor = scale(k_prev, k_next)
            k_prev = k_next
            factors.append(factor)
            if tracer is not None:
                tracer.close_pass(factor)
            for j, ns, out in batch:
                attempted += 1
                if isinstance(out, Exception):
                    failed += 1
                    continue
                raw[j].append(ns / 1e6)
                samples[j].append(ns / 1e6 * factor)
                try:
                    if w.recheck is not None:
                        w.recheck(j, out)
                    if out != refs[j]:
                        raise Mismatch(f"{w.ops[j].name}: output differs from "
                                       "the verified first round")
                except Mismatch as exc:
                    problems.append(str(exc))
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    return {"samples": samples, "raw": raw, "factors": factors,
            "problems": problems, "attempted": attempted, "failed": failed,
            "rounds": rounds}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(w, m, setups, rss_mb) -> tuple[dict, dict]:
    ref = [x for s in m["samples"] for x in s]
    raw = [x for s in m["raw"] for x in s]
    metrics = {
        "setup_s": (statistics.median(s[1] for s in setups), "s"),
        "ref_ops_per_s": (len(ref) / (sum(ref) / 1000), "1/s"),
        "ref_op_ms_p50": (statistics.median(ref), "ms"),
        "ref_op_ms_tail": (percentile(ref, w.tail_pct), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "raw_setup_s": statistics.median(s[0] for s in setups),
        "raw_ops_per_s": len(raw) / (sum(raw) / 1000),
        "raw_op_ms_p50": statistics.median(raw),
        "raw_op_ms_tail": percentile(raw, w.tail_pct),
        "tail_pct": w.tail_pct,
        "ref_op_ms_percentiles": {p: percentile(ref, p) for p in (75, 90, 95, 98, 99)},
        "samples": len(ref),
        "samples_beyond_tail": sum(1 for x in ref if x > metrics["ref_op_ms_tail"][0]),
        "rounds": m["rounds"],
        "ops_per_round": len(w.ops),
        "scale_median": statistics.median(m["factors"]),
        "scale_min": min(m["factors"]),
        "scale_max": max(m["factors"]),
        "passes": len(m["factors"]),
        "setups": [[round(a, 6), round(b, 6)] for a, b in setups],
    }
    return metrics, info


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)

LAYERS = {
    "syntax": ("syntax.parse_domain", "syntax.validate", "syntax.parse_query"),
    "core": ("core.herbrand_entails", "core.satisfies"),
    "engine": ("engine.enumerate_worlds", "engine.marginal", "engine.conditional",
               "engine.sample_frequency", "engine.transition_graph"),
    "aspgen": ("aspgen.translate", "aspgen.emit", "aspgen.to_dnf"),
    "cli": ("cli.main",),
}


_UNIT_NS = {"ms": 1e6, "us": 1e3}


def _time(span, unit):
    """Mean reference time per call."""
    return span, unit, lambda t, n: t[span]["ref_ns"] / t[span]["calls"] / _UNIT_NS[unit]


def _work(span, work, unit="count"):
    """Mean work per call (worlds, edges, bytes...)."""
    return span, unit, lambda t, n: t[span][work] / t[span]["calls"]


def _rate(span, work, unit):
    """Work per reference second spent in the span."""
    return span, unit, lambda t, n: t[span][work] / (t[span]["ref_ns"] / 1e9)


def _calls_per_op(span):
    return span, "count", lambda t, n: t[span]["calls"] / n


# metric -> (span or spans it needs calls of, unit, value from (totals, operations))
LAYER_METRICS = {
    "syntax.parse_domain.ms": _time("syntax.parse_domain", "ms"),
    "syntax.parse_domain.bytes_per_s": _rate("syntax.parse_domain", "bytes", "B/s"),
    "syntax.validate.ms": _time("syntax.validate", "ms"),
    "syntax.parse_query.us": _time("syntax.parse_query", "us"),
    "core.herbrand_entails.calls": _calls_per_op("core.herbrand_entails"),
    "core.herbrand_entails.us": _time("core.herbrand_entails", "us"),
    "core.satisfies.calls": _calls_per_op("core.satisfies"),
    "core.satisfies.us": _time("core.satisfies", "us"),
    "engine.enumerate_worlds.ms": _time("engine.enumerate_worlds", "ms"),
    "engine.enumerate_worlds.worlds": _work("engine.enumerate_worlds", "worlds"),
    "engine.enumerate_worlds.traces": _work("engine.enumerate_worlds", "traces"),
    "engine.enumerate_worlds.traces_per_s": _rate("engine.enumerate_worlds", "traces", "1/s"),
    "engine.enumerations_per_query": (
        "engine.enumerate_worlds", "count",
        lambda t, n: t["engine.enumerate_worlds"]["calls"]
        / (t["engine.marginal"]["calls"] + t["engine.conditional"]["calls"])),
    "engine.marginal.ms": _time("engine.marginal", "ms"),
    "engine.conditional.ms": _time("engine.conditional", "ms"),
    "engine.sample_frequency.samples_per_s": _rate("engine.sample_frequency", "samples", "1/s"),
    "engine.transition_graph.ms": _time("engine.transition_graph", "ms"),
    "engine.transition_graph.edges": _work("engine.transition_graph", "edges"),
    "aspgen.translate.ms": _time("aspgen.translate", "ms"),
    "aspgen.emit.ms": _time("aspgen.emit", "ms"),
    "aspgen.emit.bytes": _work("aspgen.emit", "bytes", "B"),
    "aspgen.emit.clauses": _work("aspgen.emit", "clauses"),
    "aspgen.to_dnf.us": _time("aspgen.to_dnf", "us"),
    "cli.main_inproc_ms": _time("cli.main", "ms"),
}
for _layer, _names in LAYERS.items():
    LAYER_METRICS[f"{_layer}.self_ms_per_op"] = (
        _names, "ms",
        lambda t, n, names=_names: sum(t[x]["self_ref_ns"] for x in names) / n / 1e6)


def _has_calls(t, need) -> bool:
    names = (need,) if isinstance(need, str) else need
    return any(t[x]["calls"] for x in names)


def layer_metrics(own, own_ops, census, census_ops) -> tuple[dict, list]:
    """Each metric from the workload's own spans, or from the census when
    the workload never calls that function."""
    metrics, borrowed = {}, []
    for name, (need, unit, fn) in LAYER_METRICS.items():
        if _has_calls(own, need):
            metrics[name] = (fn(own, own_ops), unit)
        else:
            metrics[name] = (fn(census, census_ops), unit)
            borrowed.append(name)
    return metrics, borrowed


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def probes(env) -> dict:
    """Interpreter start-up and `pec` import times, each from fresh
    child processes, medians of PROBES, scaled by kernels around them."""
    k0 = bracket_ms()
    startup, imports, selfs = [], [], {m: [] for m in PEC_MODULES}
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        startup.append((time.perf_counter() - t0) * 1000)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pec.cli"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        rows = {name: (int(s), int(c)) for s, c, name in _IMPORTTIME.findall(proc.stderr)}
        imports.append((rows["pec"][1] + rows["pec.cli"][1]) / 1000)
        for mod in PEC_MODULES:
            selfs[mod].append(rows[mod][0] / 1000)
    f = scale(k0, bracket_ms())
    out = {"cli.startup_ms": (statistics.median(startup) * f, "ms"),
           "cli.import_pec_ms": (statistics.median(imports) * f, "ms")}
    for mod in PEC_MODULES:
        out[f"cli.import_self_ms.{mod}"] = (statistics.median(selfs[mod]) * f, "ms")
    return out


def census(seed: int):
    """One traced round of the cli mix through `main` in this process,
    for the functions a workload never calls."""
    w = workloads.cli(sys.modules["pec"], seed, inproc=True)
    tracer = Tracer()
    tracer.install({m: sys.modules[m] for m in PEC_MODULES})
    w.resolve()
    k0 = bracket_ms()
    outputs = [call(op) for op in w.ops]
    tracer.close_pass(scale(k0, bracket_ms()))
    tracer.uninstall()
    problems = verify_first_round(w, outputs)
    return tracer.totals(), len(w.ops), problems


# ---------------------------------------------------------------------------


def run(args) -> int:
    name, seed = args.workload, args.seed
    inproc = name == "cli" and args.trace == 1
    setups = []
    for _ in range(SETUPS):
        w, outputs, wall, ref = setup_once(name, seed, inproc)
        setups.append((wall, ref))
    problems = verify_first_round(w, outputs)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({m: sys.modules[m] for m in PEC_MODULES})
        w.resolve()
    m = measure(w, outputs, args.seconds, tracer)
    problems += m["problems"]

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{args.trace}"
    if args.trace:
        tracer.uninstall()
        own_ops = sum(len(s) for s in m["samples"])
        own = tracer.totals()
        tracer.write(OUT / f"trace-{stem}.jsonl")
        census_totals, census_ops, census_problems = census(seed)
        problems += census_problems
        metrics, borrowed = layer_metrics(own, own_ops, census_totals, census_ops)
        metrics.update(probes(workloads.child_env()))
        _, info = end_to_end(w, m, setups, 0.0)
        info["borrowed_from_census"] = borrowed
    else:
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        metrics, info = end_to_end(w, m, setups, rss_mb)

    correct = not problems
    for p in problems[:20]:
        print(f"MISMATCH {p}", file=sys.stderr)
    record = {"workload": name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": m["attempted"],
              "failed": m["failed"], "k_nominal_ms": refkernel.K_NOMINAL_MS,
              "metrics": {k: v[0] for k, v in metrics.items()}, "info": info,
              "per_op_ref_ms_median": {
                  f"{i}:{op.name}": statistics.median(s) if s else None
                  for i, (op, s) in enumerate(zip(w.ops, m["samples"]))}}
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# raw wall figures: " + json.dumps(
        {k: round(v, 6) for k, v in info.items() if k.startswith("raw_")}))
    print("# " + json.dumps({k: v for k, v in info.items()
                             if k in ("tail_pct", "samples", "samples_beyond_tail",
                                      "rounds", "ops_per_round", "scale_median",
                                      "scale_min", "scale_max")}))
    if args.trace:
        print("# traced ref_ops_per_s %.6f" % (
            own_ops / (sum(x for s in m["samples"] for x in s) / 1000)))
    print(json.dumps({
        "correct": correct, "attempted": m["attempted"], "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def self_check() -> int:
    """One round of every workload with all output checks, and proof that
    each operation's check fails when its output is wrong."""
    bad = 0
    for name in workloads.BUILDERS:
        w, outputs, _, _ = setup_once(name, 1, inproc=False)
        problems = verify_first_round(w, outputs)
        caught = 0
        for i, out in enumerate(outputs):
            wrong = list(outputs)
            wrong[i] = _perturb(out)
            try:
                w.verify(wrong)
            except Mismatch:
                caught += 1
        ok = not problems and caught == len(outputs)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(outputs)} operations checked, "
              f"{caught}/{len(outputs)} wrong outputs caught"
              + "".join(f"\n     {p}" for p in problems))
    return 1 if bad else 0


def _perturb(out):
    """A wrong output of the same type."""
    if isinstance(out, tuple):  # (exit code, stdout, stderr)
        return (out[0], out[1] + "x", out[2])
    if isinstance(out, str):
        return out.replace("\n", "\n%\n", 1)
    return out + type(out)(1, 1000)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one checked round of every workload, then exit")
    args = parser.parse_args()
    if not (SRC / "pec" / "__init__.py").is_file():
        print(f"bench: no pec sources at {SRC}", file=sys.stderr)
        return 2
    for needed in ("examples", "tests/golden"):
        if not (ROOT / needed).is_dir():
            print(f"bench: {ROOT / needed} is missing", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    # one CPU for this process and its children, so the kernel times the
    # CPU the measured work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.pop("PEC_PRECISION", None)
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

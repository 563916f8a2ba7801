"""Correctness references for the benchmark, made apart from `pec`.

Nothing here imports `pec`.  The references read the `Domain` models of
`inputs.py`:
- `forward`: a forward recurrence over fluent states, exact for
  single-instant queries;
- the paper's values, the k-toss closed form and the paper's transition
  graphs (in `inputs.py` and below);
- `sample_bound`: how far a sampled frequency may stray from the exact
  value;
- `check_program`: clause counts derived from the generator, and a
  truth-table check that each emitted rule body equals the model's body;
- `cli_check_stdout`, `cli_graph_stdout`, `decimal`: the command line's
  exact outputs.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from inputs import Domain, FALSE, TRUE, atoms, instants


class Mismatch(Exception):
    """An output of the program differs from its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# Formula evaluation


def holds(f, state) -> bool:
    """Truth of a body formula, or of a query formula at one instant,
    in a total state (fluents and actions)."""
    kind = f[0]
    if kind in ("lit", "ilit"):
        return state[f[1]] == f[2]
    if kind == "not":
        return not holds(f[1], state)
    if kind == "and":
        return holds(f[1], state) and holds(f[2], state)
    if kind == "or":
        return holds(f[1], state) or holds(f[2], state)
    return (not holds(f[1], state)) or holds(f[2], state)


# ---------------------------------------------------------------------------
# Forward recurrence


def _action_rows(d: Domain, instant: int):
    """(action valuation, probability) for every occurrence pattern."""
    here = [(a, p) for a, i, p in d.occurrences if i == instant]
    rows = []
    for bits in itertools.product((True, False), repeat=len(here)):
        row = {a: FALSE for a in d.actions}
        prob = Fraction(1)
        for (a, p), on in zip(here, bits):
            if on:
                row[a] = TRUE
                prob *= p
            else:
                prob *= 1 - p
        if prob:
            rows.append((row, prob))
    return rows


def forward(d: Domain, query) -> Fraction:
    """P(query) for a query whose literals all sit at one instant t.

    Pushes probability mass over fluent states from instant 0 to t, one
    step at a time, then sums the mass of the states (with their action
    patterns at t) in which the query holds.
    """
    (t,) = instants(query)
    names = [f for f, _ in d.fluents]
    dist: dict[tuple, Fraction] = {}
    for effect, w in d.initial:
        key = tuple(effect[f] for f in names)
        dist[key] = dist.get(key, Fraction(0)) + w
    for i in range(t):
        rows = _action_rows(d, i)
        nxt: dict[tuple, Fraction] = {}
        for key, mass in dist.items():
            fluents = dict(zip(names, key))
            for row, q in rows:
                state = {**fluents, **row}
                active = [r for r in d.rules if holds(r[0], state)]
                if len(active) > 1:
                    raise Mismatch(f"{d.name}: two rules active at {i}")
                outcomes = active[0][1] if active else (({}, Fraction(1)),)
                for effect, w in outcomes:
                    out = {**fluents, **effect}
                    k2 = tuple(out[f] for f in names)
                    nxt[k2] = nxt.get(k2, Fraction(0)) + mass * q * w
        dist = nxt
    total = Fraction(0)
    rows = _action_rows(d, t)
    for key, mass in dist.items():
        fluents = dict(zip(names, key))
        for row, q in rows:
            if holds(query, {**fluents, **row}):
                total += mass * q
    return total


# ---------------------------------------------------------------------------
# Sampling


def sample_bound(p: Fraction, n: int) -> float:
    """Largest accepted |frequency - p| over n samples: six standard
    deviations of the binomial plus one sample's worth."""
    pf = float(p)
    return 6 * math.sqrt(pf * (1 - pf) / n) + 1 / n


# ---------------------------------------------------------------------------
# ASP output


def _mangle(name: str) -> str:
    return name[0].lower() + name[1:]


_HOLDS = re.compile(r"(not )?holds\(\(\((\w+),(\w+)\), I\)\)")


def _dnf_equivalent(body, dnf_text: str) -> bool:
    """Truth-table check, literals as independent atoms, that the
    emitted `;`-separated alternatives say the same as the body."""
    lits = [(_mangle(a[1]), _mangle(a[2])) for a in atoms(body)]
    dnf = []
    for part in dnf_text.split("; "):
        found = _HOLDS.findall(part)
        expect(len(found) == part.count("holds("), f"unparsed body {part!r}")
        dnf.append([((s, v), neg == "") for neg, s, v in found])
    for bits in itertools.product((False, True), repeat=len(lits)):
        row = dict(zip(lits, bits))
        want = _holds_atoms(body, row)
        got = any(all(row.get(a, False) == pos for a, pos in c) for c in dnf)
        if want != got:
            return False
    return True


def _holds_atoms(f, row) -> bool:
    kind = f[0]
    if kind == "lit":
        return row[(_mangle(f[1]), _mangle(f[2]))]
    if kind == "not":
        return not _holds_atoms(f[1], row)
    if kind == "and":
        return _holds_atoms(f[1], row) and _holds_atoms(f[2], row)
    if kind == "or":
        return _holds_atoms(f[1], row) or _holds_atoms(f[2], row)
    return (not _holds_atoms(f[1], row)) or _holds_atoms(f[2], row)


def expected_counts(d: Domain) -> dict:
    """Domain-dependent clause counts that follow from the model."""
    return {
        "possVal": sum(len(vs) for _, vs in d.fluents),
        "belongsTo": sum(len(e) for e, _ in d.initial)
        + sum(len(e) for _, outs in d.rules for e, _ in outs),
        "causesOutcome": sum(len(outs) for _, outs in d.rules),
        "performed": len(d.occurrences),
    }


AXIOM_MARKER = "\n% domain-independent clauses\n"


def check_program(d: Domain, text: str, axioms: str) -> None:
    """Check `emit(..., with_axioms=True)` output against the model, line
    by line; `axioms` is the domain-independent part every program ends
    with.  Rule bodies are checked by truth table, not by their text."""
    expect(text.count(AXIOM_MARKER) == 1, f"{d.name}: no axiom section")
    head, tail = text.split(AXIOM_MARKER)
    expect(tail == axioms, f"{d.name}: axiom section differs")
    lines = head.splitlines()
    counts = {k: sum(1 for line in lines if line.startswith(k + "("))
              for k in expected_counts(d)}
    expect(counts == expected_counts(d),
           f"{d.name}: clause counts {counts} != {expected_counts(d)}")
    m = _mangle
    want = ["% domain-dependent clauses", f"#const maxinst={d.maxinst}."]
    want += [f"fluent({m(f)})." for f, _ in d.fluents]
    want += [f"action({m(a)})." for a in d.actions]
    want.append("instant(0..maxinst).")
    want += [f"possVal({m(f)}, {m(v)})." for f, vs in d.fluents for v in vs]

    def belongs(effect, oid):
        return [f"belongsTo(({m(s)},{m(v)}), {oid})." for s, v in effect.items()]

    for j, (effect, w) in enumerate(d.initial, start=1):
        want += belongs(effect, f"id_0_{j}")
        want.append(f"initialCondition((id_0_{j}, {w})).")
    for n, (body, outcomes) in enumerate(d.rules, start=1):
        for j, (effect, w) in enumerate(outcomes, start=1):
            want += belongs(effect, f"id_{n}_{j}")
            want.append((f"causesOutcome((id_{n}_{j}, {w}), I) :- ", body))
    want += [f"performed({m(a)},{i},{p})." for a, i, p in d.occurrences]
    expect(len(lines) == len(want), f"{d.name}: {len(lines)} lines, want {len(want)}")
    for got, exp in zip(lines, want):
        if isinstance(exp, str):
            expect(got == exp, f"{d.name}: {got!r} != {exp!r}")
        else:
            prefix, body = exp
            expect(got.startswith(prefix) and got.endswith("."),
                   f"{d.name}: {got!r} does not start {prefix!r}")
            expect(_dnf_equivalent(body, got[len(prefix):-1]),
                   f"{d.name}: {got!r} is not equivalent to its rule body")


# ---------------------------------------------------------------------------
# Command line outputs


def decimal(value: Fraction, digits: int) -> str:
    """`value` rounded half to even at `digits` places."""
    scaled = round(value * 10 ** digits)  # Fraction rounds half to even
    text = str(scaled).rjust(digits + 1, "0")
    return text if digits == 0 else f"{text[:-digits]}.{text[-digits:]}"


def cli_check_stdout(path: str, d: Domain) -> str:
    return (f"{path}: valid domain description\n"
            f"  fluents {len(d.fluents)}, actions {len(d.actions)}, "
            f"values {sum(len(vs) for _, vs in d.fluents)}, "
            f"instants 0..{d.maxinst}\n"
            f"  causal rules {len(d.rules)}, occurrences {len(d.occurrences)}, "
            f"initial outcomes {len(d.initial)}\n")


# The paper's transition graphs: (source, actions, target, weight), with
# states as ((fluent, value), ...) in sorted order.
def _ab(bacteria, rash):
    return (("Bacteria", bacteria), ("Rash", rash))


_HEADS, _TAILS = (("Coin", "Heads"),), (("Coin", "Tails"),)
PAPER_EDGES = {
    "coin": (
        (_HEADS, ("Toss",), _HEADS, Fraction(51, 100)),
        (_HEADS, ("Toss",), _TAILS, Fraction(49, 100)),
        (_TAILS, ("Toss",), _TAILS, Fraction(51, 100)),
        (_TAILS, ("Toss",), _HEADS, Fraction(49, 100)),
    ),
    "antibiotic": tuple(
        (_ab(*s), ("TakesMedicine",), _ab(*t), w) for s, t, w in (
            (("Weak", "Present"), ("Absent", "Absent"), Fraction(7, 10)),
            (("Weak", "Present"), ("Resistant", "Absent"), Fraction(1, 10)),
            (("Weak", "Present"), ("Resistant", "Present"), Fraction(2, 10)),
            (("Weak", "Absent"), ("Absent", "Absent"), Fraction(7, 10)),
            (("Weak", "Absent"), ("Resistant", "Absent"), Fraction(3, 10)),
            (("Resistant", "Present"), ("Absent", "Absent"), Fraction(1, 13)),
            (("Resistant", "Present"), ("Resistant", "Present"), Fraction(12, 13)),
            (("Resistant", "Absent"), ("Absent", "Absent"), Fraction(1, 13)),
            (("Resistant", "Absent"), ("Resistant", "Absent"), Fraction(12, 13)),
            (("Absent", "Absent"), ("Absent", "Absent"), Fraction(1)),
        )),
}


def cli_graph_stdout(name: str) -> str:
    """The DOT text `pec graph` prints for the paper's graph."""
    def label(state):
        return ", ".join(f"{f}={v}" for f, v in state)

    rows = sorted((label(s), "{" + ", ".join(a) + "}", label(t), w)
                  for s, a, t, w in PAPER_EDGES[name])
    nodes = sorted({r[0] for r in rows} | {r[2] for r in rows})
    lines = ["digraph transitions {"]
    lines += [f'  "{n}";' for n in nodes]
    lines += [f'  "{s}" -> "{t}" [label="{a}, {w}"];' for s, a, t, w in rows]
    lines.append("}")
    return "\n".join(lines) + "\n"

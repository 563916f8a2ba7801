"""Seeded benchmark inputs: domain models, their `.pec` text and queries.

A model is a plain `Domain` value that the references in `oracle.py`
read directly; the program under test only ever sees the rendered text.
Nothing here imports `pec`.

Formula trees are tuples:
  ("lit", subject, value)          a literal of a rule body
  ("ilit", subject, value, instant) an instant-stamped query literal
  ("not", f)  ("and", f, g)  ("or", f, g)  ("imp", f, g)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

TRUE, FALSE = "true", "false"


@dataclass(frozen=True)
class Domain:
    name: str
    maxinst: int
    fluents: tuple  # ((fluent, (value, ...)), ...)
    actions: tuple
    initial: tuple  # ((effect dict, weight), ...); effects are total
    rules: tuple  # ((body, ((effect dict, weight), ...)), ...)
    occurrences: tuple  # ((action, instant, probability), ...)


# ---------------------------------------------------------------------------
# Rendering to the concrete syntax


def fmt_formula(f) -> str:
    kind = f[0]
    if kind == "lit":
        return f"{f[1]}={f[2]}"
    if kind == "ilit":
        return f"[{f[1]}={f[2]}]@{f[3]}"
    if kind == "not":
        return f"!({fmt_formula(f[1])})"
    op = {"and": "&", "or": "|", "imp": "->"}[kind]
    return f"({fmt_formula(f[1])} {op} {fmt_formula(f[2])})"


def _fmt_outcomes(outcomes) -> str:
    parts = []
    for effect, weight in outcomes:
        lits = ", ".join(f"{s}={v}" for s, v in effect.items())
        parts.append(f"({{{lits}}}, {weight})")
    return "{" + ", ".join(parts) + "}"


def render(d: Domain) -> str:
    lines = [f"% generated benchmark domain {d.name}", f"maxinst {d.maxinst}"]
    for fluent, values in d.fluents:
        lines.append(f"fluent {fluent} takes-values {{{', '.join(values)}}}")
    for a in d.actions:
        lines.append(f"action {a}")
    lines.append(f"initially-one-of {_fmt_outcomes(d.initial)}")
    for body, outcomes in d.rules:
        lines.append(f"{fmt_formula(body)} causes-one-of {_fmt_outcomes(outcomes)}")
    for action, instant, prob in d.occurrences:
        suffix = "" if prob == 1 else f" with-prob {prob}"
        lines.append(f"{action} performed-at {instant}{suffix}")
    return "\n".join(lines) + "\n"


def conj(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def stamp(f, instant):
    """The [f]@instant form: stamp every literal of a body formula."""
    if f[0] == "lit":
        return ("ilit", f[1], f[2], instant)
    return (f[0],) + tuple(stamp(g, instant) for g in f[1:])


def atoms(f, acc=None) -> list:
    acc = [] if acc is None else acc
    if f[0] in ("lit", "ilit"):
        if f not in acc:
            acc.append(f)
    else:
        for g in f[1:]:
            atoms(g, acc)
    return acc


def instants(f) -> set:
    return {a[3] for a in atoms(f)}


# ---------------------------------------------------------------------------
# The paper's three domains, transcribed from the paper for the references
# (the operations read the committed `examples/*.pec` text itself)

A = Fraction

COIN = Domain(
    "coin", 3, (("Coin", ("Heads", "Tails")),), ("Toss",),
    (({"Coin": "Heads"}, A(1)),),
    ((("lit", "Toss", TRUE),
      (({"Coin": "Heads"}, A(49, 100)), ({"Coin": "Tails"}, A(49, 100)),
       ({}, A(2, 100)))),),
    (("Toss", 1, A(1)),),
)

ANTIBIOTIC_FLUENTS = (("Bacteria", ("Weak", "Resistant", "Absent")),
                      ("Rash", ("Present", "Absent")))
ANTIBIOTIC_RULES = (
    (conj(("lit", "TakesMedicine", TRUE), ("lit", "Bacteria", "Weak")),
     (({"Bacteria": "Absent", "Rash": "Absent"}, A(7, 10)),
      ({"Bacteria": "Resistant", "Rash": "Absent"}, A(1, 10)),
      ({"Bacteria": "Resistant"}, A(2, 10)))),
    (conj(("lit", "TakesMedicine", TRUE), ("lit", "Bacteria", "Resistant")),
     (({"Bacteria": "Absent", "Rash": "Absent"}, A(1, 13)), ({}, A(12, 13)))),
)
ANTIBIOTIC_INITIAL = (({"Bacteria": "Weak", "Rash": "Present"}, A(9, 10)),
                      ({"Bacteria": "Absent", "Rash": "Present"}, A(1, 10)))

ANTIBIOTIC = Domain(
    "antibiotic", 4, ANTIBIOTIC_FLUENTS, ("TakesMedicine",), ANTIBIOTIC_INITIAL,
    ANTIBIOTIC_RULES, (("TakesMedicine", 1, A(1)), ("TakesMedicine", 3, A(1))),
)

KEYS = Domain(
    "keys", 9,
    (("HasKeys", (TRUE, FALSE)), ("LockedOut", (TRUE, FALSE)),
     ("Location", ("Inside", "Outside"))),
    ("PickupKeys", "GoOut"),
    (({"HasKeys": FALSE, "LockedOut": FALSE, "Location": "Inside"}, A(1)),),
    (
        (conj(("lit", "GoOut", TRUE), ("lit", "HasKeys", FALSE),
              ("lit", "Location", "Inside")),
         (({"LockedOut": TRUE, "Location": "Outside"}, A(1)),)),
        (conj(("lit", "GoOut", TRUE), ("lit", "HasKeys", TRUE),
              ("lit", "Location", "Inside")),
         (({"Location": "Outside"}, A(1)),)),
        (conj(("lit", "PickupKeys", TRUE), ("lit", "Location", "Inside")),
         (({"HasKeys": TRUE}, A(1)),)),
    ),
    (("PickupKeys", 1, A(99, 100)), ("GoOut", 2, A(1))),
)

SHIPPED = (COIN, ANTIBIOTIC, KEYS)

# The paper's queries and values: (domain, query, given or None, value)
PAPER_QUERIES = (
    ("coin", ("ilit", "Coin", "Heads", 2), None, A(51, 100)),
    ("antibiotic", ("ilit", "Bacteria", "Resistant", 2), None, A(27, 100)),
    ("antibiotic", ("ilit", "Bacteria", "Absent", 4),
     ("ilit", "Rash", "Absent", 4), A(47, 53)),
    ("keys", ("ilit", "LockedOut", TRUE, 3), None, A(1, 100)),
)


# ---------------------------------------------------------------------------
# Families


def toss(k: int, p: Fraction) -> Domain:
    """k tosses of the paper's coin at instants 1..k, each with probability p."""
    name = f"toss{k}-{'certain' if p == 1 else 'p' + str(p).replace('/', '_')}"
    return Domain(name, k + 1, COIN.fluents, COIN.actions, COIN.initial,
                  COIN.rules, tuple(("Toss", i, p) for i in range(1, k + 1)))


def toss_closed_form(k: int, p: Fraction) -> Fraction:
    """P([Coin=Heads]@k+1) for `toss(k, p)`: 1/2 + 1/2 (1 - 0.98 p)^k."""
    return A(1, 2) + A(1, 2) * (1 - A(98, 100) * p) ** k


def antibiotic(k: int) -> Domain:
    """The antibiotic domain with medicine taken at instants 1..k."""
    return Domain(f"antibiotic{k}", k + 1, ANTIBIOTIC_FLUENTS, ("TakesMedicine",),
                  ANTIBIOTIC_INITIAL, ANTIBIOTIC_RULES,
                  tuple(("TakesMedicine", i, A(1)) for i in range(1, k + 1)))


def _weights(rng: random.Random, k: int) -> list:
    nums = [rng.randint(1, 9) for _ in range(k)]
    return [A(n, sum(nums)) for n in nums]


def random_domain(rng: random.Random, name: str, *, fluents=3, values=3,
                  maxinst=4) -> Domain:
    """A seeded domain whose shape is fixed and whose content is random.

    One rule per value of F1, each guarded by `A1 & F1=Vj`, so no state
    activates two rules and no body entails another.  A1 may occur, with
    a random probability below 1, at every instant; A2 occurs for sure at
    one.  Every rule has three outcomes, so the number of enumeration
    leaves (2 x 4^maxinst) does not depend on the seed.
    """
    fl = tuple((f"F{i}", tuple(f"V{j}" for j in range(1, values + 1)))
               for i in range(1, fluents + 1))
    vals = dict(fl)
    totals = [{f: rng.choice(vs) for f, vs in fl} for _ in range(2)]
    if totals[0] == totals[1]:
        totals[1]["F1"] = next(v for v in vals["F1"] if v != totals[0]["F1"])
    initial = tuple(zip(totals, _weights(rng, 2)))
    rules = []
    for guard in vals["F1"]:
        effects = []
        for other in [v for v in vals["F1"] if v != guard][:2]:
            eff = {"F1": other}
            for f, vs in fl[1:]:
                if rng.random() < 0.5:
                    eff[f] = rng.choice(vs)
            effects.append(eff)
        effects.append({})
        body = conj(("lit", "A1", TRUE), ("lit", "F1", guard))
        rules.append((body, tuple(zip(effects, _weights(rng, 3)))))
    occ = [("A1", i, rng.choice((A(1, 2), A(1, 3), A(3, 4), A(2, 5))))
           for i in range(maxinst)]
    occ.append(("A2", rng.randrange(maxinst), A(1)))
    occ.sort(key=lambda o: (o[1], o[0]))
    return Domain(name, maxinst, fl, ("A1", "A2"), initial, tuple(rules), tuple(occ))


def rule_heavy_domain(rng: random.Random, name: str, rules: int,
                      maxinst: int) -> Domain:
    """A compile input: `rules` rules with non-conjunctive bodies and a
    narrative of two occurrences per instant.

    Rule k's body is `A & G=Vj & <extra>`, with action k mod 3, a guard
    `G=Vj` of its own, and an extra formula that joins two literals of
    X1..X4, also its own, with `|`, `->` or `!(.. & ..)`.  So no body
    entails another (condition (i)), and the literals two bodies share
    do not depend on the seed, nor does the cost of checking that.
    """
    per_guard = (rules + 1) // 2
    per_x = (2 * rules + 3) // 4
    fl = (("G1", tuple(f"V{j}" for j in range(1, per_guard + 1))),
          ("G2", tuple(f"V{j}" for j in range(1, per_guard + 1))))
    fl += tuple((f"X{i}", tuple(f"V{j}" for j in range(1, per_x + 1)))
                for i in range(1, 5))
    vals = dict(fl)
    acts = ("Go", "Stop", "Wait")
    guards = [(g, v) for g in ("G1", "G2") for v in vals[g]][:rules]
    pool = [(f"X{i}", v) for i in range(1, 5) for v in vals["X1"]]
    rng.shuffle(pool)
    out_rules = []
    for k, (g, v) in enumerate(guards):
        l1, l2 = ("lit",) + pool[2 * k], ("lit",) + pool[2 * k + 1]
        extra = rng.choice((("or", l1, l2), ("imp", l1, l2),
                            ("not", ("and", l1, l2))))
        body = conj(("lit", acts[k % 3], TRUE), ("lit", g, v), extra)
        effects = [{"X1": x, g: rng.choice(vals[g])}
                   for x in rng.sample(vals["X1"], rng.randint(1, 2))]
        effects.append({})
        out_rules.append((body, tuple(zip(effects, _weights(rng, len(effects))))))
    initial_total = {f: vs[0] for f, vs in fl}
    other_total = dict(initial_total, X1="V2")
    initial = tuple(zip((initial_total, other_total), _weights(rng, 2)))
    occ = tuple((a, i, rng.choice((A(1), A(1, 2), A(9, 10))))
                for i in range(maxinst) for a in sorted(rng.sample(acts, 2)))
    return Domain(name, maxinst, fl, acts, initial, tuple(out_rules), occ)


# ---------------------------------------------------------------------------
# Queries


def random_body(rng: random.Random, d: Domain, depth: int):
    symbols = [(f, vs) for f, vs in d.fluents] + [(a, (TRUE, FALSE))
                                                  for a in d.actions]
    if depth == 0 or rng.random() < 0.35:
        s, vs = rng.choice(symbols)
        return ("lit", s, rng.choice(vs))
    kind = rng.choice(("and", "or", "imp", "not"))
    if kind == "not":
        return ("not", random_body(rng, d, depth - 1))
    return (kind, random_body(rng, d, depth - 1), random_body(rng, d, depth - 1))


def single_instant_query(rng: random.Random, d: Domain, depth: int = 2):
    """[theta]@I for a random theta: the forward recurrence can check it."""
    return stamp(random_body(rng, d, depth), rng.randint(1, d.maxinst))


def multi_instant_query(rng: random.Random, d: Domain):
    """A formula over literals at two different instants."""
    i, j = sorted(rng.sample(range(1, d.maxinst + 1), 2))
    kind = rng.choice(("and", "or", "imp"))
    return (kind, stamp(random_body(rng, d, 1), i),
            stamp(random_body(rng, d, 1), j))

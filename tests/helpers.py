"""Shared test machinery: independent reference evaluators and seeded
random generators for domains, formulas and worlds.

The reference evaluators here are deliberately small re-derivations of
the definitions (truth tables, exhaustive world filtering) so the tests
can judge the package's implementations against something that does not
share their code paths.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from pec import (
    And,
    CProp,
    DomainDescription,
    DomainSignature,
    FALSE,
    FiniteWorld,
    ILit,
    IProp,
    Implies,
    Lit,
    Not,
    Or,
    Outcome,
    PProp,
    TRUE,
    VProp,
    activated_cprop,
    parse_domain,
    render,
    update,
)


# ---------------------------------------------------------------------------
# Reference evaluators


def table_eval(phi, row):
    """Evaluate a formula under a plain literal->bool assignment."""
    if isinstance(phi, (Lit, ILit)):
        return row[phi]
    if isinstance(phi, Not):
        return not table_eval(phi.arg, row)
    if isinstance(phi, And):
        return table_eval(phi.left, row) and table_eval(phi.right, row)
    if isinstance(phi, Or):
        return table_eval(phi.left, row) or table_eval(phi.right, row)
    return (not table_eval(phi.left, row)) or table_eval(phi.right, row)


def table_atoms(phi, acc=None):
    acc = [] if acc is None else acc
    if isinstance(phi, (Lit, ILit)):
        if phi not in acc:
            acc.append(phi)
    elif isinstance(phi, Not):
        table_atoms(phi.arg, acc)
    else:
        table_atoms(phi.left, acc)
        table_atoms(phi.right, acc)
    return acc


def table_entails(theta, theta_prime):
    """Truth-table entailment over literals-as-atoms."""
    atoms = table_atoms(theta_prime, table_atoms(theta))
    for bits in itertools.product((False, True), repeat=len(atoms)):
        row = dict(zip(atoms, bits))
        if table_eval(theta, row) and not table_eval(theta_prime, row):
            return False
    return True


def reference_dnf(phi):
    """DNF by product expansion over the negation normal form: disjuncts
    in left-to-right expansion order, duplicates kept, each conjunction
    cut to the first occurrence of each literal and dropped when it holds
    a literal with both signs."""
    disjuncts = []
    for conj in _product_dnf(phi, True):
        seen = {}
        for lit, positive in conj:
            if seen.setdefault(lit, positive) != positive:
                break
        else:
            disjuncts.append(list(seen.items()))
    return disjuncts


def _product_dnf(phi, positive):
    if isinstance(phi, (Lit, ILit)):
        return [[(phi, positive)]]
    if isinstance(phi, Not):
        return _product_dnf(phi.arg, not positive)
    if isinstance(phi, Implies):  # !a | b, or a & !b when negated
        left, right = (_product_dnf(phi.left, not positive),
                       _product_dnf(phi.right, positive))
        conjunctive = not positive
    else:  # by De Morgan, a negated & is an | and a negated | an &
        left, right = (_product_dnf(phi.left, positive),
                       _product_dnf(phi.right, positive))
        conjunctive = isinstance(phi, And) == positive
    if conjunctive:
        return [l + r for l in left for r in right]
    return left + right


def alternating(phi, other, depth):
    """``phi`` under ``depth`` levels alternating ``(... & phi)`` and
    ``(other | ...)``, outermost last."""
    nest = phi
    for k in range(depth):
        nest = And(nest, phi) if k % 2 == 0 else Or(other, nest)
    return nest


class OracleClash(Exception):
    """Two rule bodies hold in states reached at ``instant``, listed in
    ``states`` (each a sorted tuple of symbol-value pairs)."""

    def __init__(self, instant, states):
        super().__init__(instant, states)
        self.instant, self.states = instant, states


def forward_marginal(dd, phi) -> Fraction:
    """P(phi) by a forward recurrence of its own over (fluent tuple,
    bitmask of the truths of phi's distinct literals read so far), with
    rule bodies and phi judged by ``table_eval``: no step table, no
    progression and no ``fold``.  Each instant takes every occurrence
    pattern (P of the actions performed times 1-P of the rest), puts in
    the literals it reads, and below ``maxinst`` moves by the one rule
    whose body holds, or stays; raises OracleClash at the earliest instant
    below ``maxinst`` where two bodies hold in a reached state."""
    sig = dd.signature
    lits = table_atoms(phi)
    bodies = [(c, table_atoms(c.body)) for c in dd.cprops]
    mass = {}
    for o in dd.iprop.head:
        key = tuple(o.effect[f] for f in sig.fluents), 0
        mass[key] = mass.get(key, 0) + o.weight
    for i in sig.instants:
        patterns = [({}, Fraction(1))]
        for p in (p for p in dd.pprops if p.instant == i):
            patterns = [({**on, p.action: occurs}, w * (p.prob if occurs else 1 - p.prob))
                        for on, w in patterns for occurs in (True, False)]
        after, clashes = {}, set()
        for (fluents, read), m in mass.items():
            for on, w in patterns:
                if w == 0:
                    continue
                state = dict(zip(sig.fluents, fluents))
                state.update((a, TRUE if on.get(a) else FALSE) for a in sig.actions)
                read_i = read | sum(1 << k for k, lit in enumerate(lits)
                                    if lit.instant == i and state[lit.subject] == lit.value)
                fired = [c for c, atoms in bodies if table_eval(
                    c.body, {lit: state[lit.subject] == lit.value for lit in atoms})]
                if i < sig.maxinst and len(fired) > 1:
                    clashes.add(tuple(sorted(state.items())))
                moves = fired[0].head if i < sig.maxinst and fired else [Outcome({}, Fraction(1))]
                for o in moves:
                    key = tuple(o.effect.get(f, v) for f, v in zip(sig.fluents, fluents)), read_i
                    after[key] = after.get(key, 0) + m * w * o.weight
        if clashes:
            raise OracleClash(i, clashes)
        mass = after
    return sum((m for (_, read), m in mass.items() if table_eval(
        phi, {lit: bool(read >> k & 1) for k, lit in enumerate(lits)})), Fraction(0))


def all_worlds(sig: DomainSignature):
    """Every world over the window: all state sequences, exhaustively."""
    states = [dict(zip(sig.symbols, combo))
              for combo in itertools.product(*(sig.values_of(x)
                                               for x in sig.symbols))]
    for seq in itertools.product(states, repeat=sig.maxinst + 1):
        yield FiniteWorld(sig, tuple(seq))


def canonical_trace(tr):
    """Hashable, order-insensitive form of a trace for set comparison."""
    return (
        tuple(sorted(tr.initial.effect.items())),
        tr.initial.weight,
        tuple(sorted(
            (i, tuple(sorted(o.effect.items())), o.weight)
            for i, o in tr.effects.items())),
    )


def reference_sample(dd, rng: random.Random) -> FiniteWorld:
    """One world drawn in the sampler's order, the slow way: each
    ``rng.random()`` is compared with exact ``Fraction`` running totals,
    and each step is rebuilt from the activated rule's outcomes, grouped
    by target fluent state in order of first appearance (the grouping
    sets the intervals a draw falls in)."""
    def choose(groups):
        r, total = Fraction(rng.random()), Fraction(0)
        for value, weight in groups:
            total += weight
            if r < total:
                return value
        return groups[-1][0]

    sig = dd.signature
    occurring = {(p.action, p.instant) for p in dd.pprops
                 if p.prob == 1 or Fraction(rng.random()) < p.prob}
    rows = [{a: TRUE if (a, i) in occurring else FALSE for a in sig.actions}
            for i in sig.instants]
    fluents = choose([(dict(o.effect), o.weight) for o in dd.iprop.head])
    states = [{**fluents, **rows[0]}]
    for i in range(sig.maxinst):
        rule = activated_cprop(dd, states[-1], i)
        groups = {}
        for o in rule.head if rule else ():
            after = update(fluents, o.effect)
            key = frozenset(after.items())
            groups[key] = (after, groups.get(key, (None, 0))[1] + o.weight)
        groups = list(groups.values()) or [(fluents, Fraction(1))]
        fluents = groups[0][0] if len(groups) == 1 else choose(groups)
        states.append({**fluents, **rows[i + 1]})
    return FiniteWorld(sig, tuple(states))


# ---------------------------------------------------------------------------
# Random generation


def random_weights(rng: random.Random, k: int) -> list[Fraction]:
    numerators = [rng.randint(1, 9) for _ in range(k)]
    total = sum(numerators)
    return [Fraction(n, total) for n in numerators]


def random_partial_states(rng, fluents, vals, count):
    """``count`` distinct partial fluent states (possibly one empty)."""
    found = []
    for _ in range(200):
        if len(found) == count:
            break
        partial = {f: rng.choice(vals[f]) for f in fluents
                   if rng.random() < 0.6}
        if partial not in found:
            found.append(partial)
    return found


def random_domain(rng: random.Random, *, max_fluents=3, max_values=3,
                  max_actions=2, max_maxinst=4, max_cprops=2,
                  max_pprops=3, max_outcomes=3) -> DomainDescription:
    """A random valid domain description within the given bounds.

    Causal rule bodies are of the shape ``A & F1=v`` with pairwise
    distinct values of the same fluent, which both satisfies the
    pairwise non-entailment condition and guarantees no state ever
    activates two rules at once.
    """
    fluents = tuple(f"F{i}" for i in range(1, rng.randint(1, max_fluents) + 1))
    vals = {f: tuple(f"V{i}" for i in range(1, rng.randint(2, max_values) + 1))
            for f in fluents}
    actions = tuple(f"A{i}" for i in range(1, rng.randint(0, max_actions) + 1))
    maxinst = rng.randint(1, max_maxinst)
    signature = DomainSignature(fluents, actions, vals, maxinst)

    totals = [dict(zip(fluents, combo))
              for combo in itertools.product(*(vals[f] for f in fluents))]
    k = rng.randint(1, min(3, len(totals)))
    initial = tuple(Outcome(eff, w) for eff, w in
                    zip(rng.sample(totals, k), random_weights(rng, k)))
    iprop = IProp(initial)

    cprops = []
    if actions:
        guard = fluents[0]
        n_rules = rng.randint(0, min(max_cprops, len(vals[guard])))
        for guard_value in rng.sample(vals[guard], n_rules):
            body = And(Lit(rng.choice(actions), TRUE), Lit(guard, guard_value))
            n_out = rng.randint(1, max_outcomes)
            effects = random_partial_states(rng, fluents, vals, n_out)
            weights = random_weights(rng, len(effects))
            cprops.append(CProp(body, tuple(
                Outcome(e, w) for e, w in zip(effects, weights))))

    pprops = []
    if actions:
        pairs = [(a, i) for a in actions for i in range(maxinst)]
        for action, instant in rng.sample(
                pairs, rng.randint(0, min(max_pprops, len(pairs)))):
            prob = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 4),
                               Fraction(3, 4), Fraction(rng.randint(1, 9), 10)])
            pprops.append(PProp(action, instant, prob))

    built = DomainDescription(
        signature,
        tuple(VProp(f, vals[f]) for f in fluents),
        tuple(cprops),
        tuple(pprops),
        iprop,
    )
    # round through the concrete syntax: proves the domain is valid and
    # representable, and returns the parsed twin
    return parse_domain(render(built))


def micro_domain(rng: random.Random) -> DomainDescription:
    """Small enough for exhaustive world enumeration."""
    return random_domain(rng, max_fluents=2, max_values=2, max_actions=1,
                         max_maxinst=3, max_cprops=2, max_pprops=2,
                         max_outcomes=3)


def random_formula(rng: random.Random, sig: DomainSignature, depth=3):
    if depth == 0 or rng.random() < 0.4:
        subject = rng.choice(sig.symbols)
        return Lit(subject, rng.choice(sig.values_of(subject)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, sig, depth - 1))
    node = (And, Or, Implies)[kind - 1]
    return node(random_formula(rng, sig, depth - 1),
                random_formula(rng, sig, depth - 1))


def random_iformula(rng: random.Random, sig: DomainSignature, depth=3):
    if depth == 0 or rng.random() < 0.4:
        subject = rng.choice(sig.symbols)
        return ILit(subject, rng.choice(sig.values_of(subject)),
                    rng.randint(0, sig.maxinst))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_iformula(rng, sig, depth - 1))
    node = (And, Or, Implies)[kind - 1]
    return node(random_iformula(rng, sig, depth - 1),
                random_iformula(rng, sig, depth - 1))


def covering_iformula(rng: random.Random, sig: DomainSignature):
    """A random i-formula built with ``!``, ``|`` and ``->`` over a random
    subformula, a fluent literal at instant 0, one at ``maxinst`` and an
    action literal (a fourth random subformula when there are no actions),
    placed in random order."""
    def fluent_at(instant):
        f = rng.choice(sig.fluents)
        return ILit(f, rng.choice(sig.vals[f]), instant)

    if sig.actions:
        extra = ILit(rng.choice(sig.actions), rng.choice((TRUE, FALSE)),
                     rng.randint(0, sig.maxinst))
    else:
        extra = random_iformula(rng, sig, 2)
    parts = [random_iformula(rng, sig, 2), fluent_at(0), fluent_at(sig.maxinst), extra]
    rng.shuffle(parts)
    return Implies(Or(Not(parts[0]), parts[1]), Or(parts[2], parts[3]))

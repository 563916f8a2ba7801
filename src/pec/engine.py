"""Exact possible-worlds semantics for domain descriptions.

The model of a domain assigns each well-behaved world a weight: the
narrative evaluation of the world times the summed evaluations of its
traces.  Every decision of the form "which rule fires in this total
state, and where can it go" is made once, by the compiled one-step
table of ``_compile``, one entry per next fluent state, kept while the
domain lives: enumeration walks it, reaching each world once, the
sampler reads it once per node (a total state) its draws walk through,
and ``tset``/``transition_graph`` read it.
``check_world`` stays an independent brute-force judge of the three
well-behavedness conditions, used as an oracle against the enumerator.
``marginal`` is one forward pass over the table, carrying mass per
(fluent state, residual of the query) and listing no worlds;
``conditional`` sums the enumerated worlds ``core.satisfier`` accepts.
Both check the window up front; the sampler leaves that to ``satisfies``.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction

from .core import (
    ConcurrentActivation,
    ConditionZero,
    DomainSignature,
    FALSE,
    IFormula,
    Outcome,
    Record,
    TRUE,
    eval_formula,
    outcomes_weight,
    progression,
    replace,
    satisfier,
    satisfies,
    update,
)
from .syntax import CProp, DomainDescription, HProposition

_TABLES: dict[int, tuple] = {}  # id(dd) -> (weakref to dd, its moves)


class FiniteWorld(Record):
    """A world over the finite window: one total state per instant."""

    signature: DomainSignature
    states: tuple[Mapping[str, str], ...]

    def satisfies(self, phi: IFormula) -> bool:
        return satisfies(self.states, phi)

    def fluent_state(self, instant: int) -> dict[str, str]:
        return self.signature.fluent_part(self.states[instant])

    def key(self):
        """Canonical hashable form of the state sequence."""
        return tuple(tuple(sorted(s.items())) for s in self.states)

    def __hash__(self):
        return hash(self.key())


class Trace(Record):
    """An initial choice plus one effect choice per occurrence instant."""

    initial: Outcome
    effects: Mapping[int, Outcome]


def trace_eval(tr: Trace) -> Fraction:
    """Evaluation of a trace: the product of its chosen weights."""
    return math.prod((o.weight for o in tr.effects.values()), start=tr.initial.weight)


class WeightedWorld(Record):
    world: FiniteWorld
    weight: Fraction
    traces: tuple[Trace, ...]


class WorldReport(Record):
    """Independent verdicts on the three well-behavedness conditions."""

    cwa: bool
    initial: bool
    justified: bool
    traces: tuple[Trace, ...]

    def well_behaved(self) -> bool:
        return self.cwa and self.initial and self.justified


class TransitionEdge(Record):
    source: Mapping[str, str]  # total fluent state
    actions: tuple[str, ...]  # actions true in the source state
    target: Mapping[str, str]
    weight: Fraction


# ---------------------------------------------------------------------------
# Activation and per-world evaluations


def activated_cprop(dd: DomainDescription, state: Mapping[str, str],
                    instant: int | None = None) -> CProp | None:
    """The unique causal rule whose body the state satisfies, if any.

    Raises ConcurrentActivation when two or more bodies hold: the
    semantics has no meaning for simultaneous activations.
    """
    found = None
    for c in dd.cprops:
        if eval_formula(state, c.body):
            if found is not None:
                raise ConcurrentActivation(state, instant)
            found = c
    return found


def narrative_eval(dd: DomainDescription, world: FiniteWorld) -> Fraction:
    """Product over occurrence statements of P if performed in the world,
    else 1-P; 1 for the empty narrative."""
    return math.prod((p.prob if world.states[p.instant][p.action] == TRUE else 1 - p.prob
                      for p in dd.pprops), start=Fraction(1))


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_worlds(dd: DomainDescription) -> list[WeightedWorld]:
    """All worlds of non-zero weight, with exact weights and traces.

    Branches over (a) the occurrence patterns of ``_narratives``, (b) the
    initial choice, and (c) the compiled table's moves, one per next
    fluent state, depth first, so each world is reached once: its weight
    is carried down in integers and reduced once, and its traces are the
    product of its outcome groups.  The returned weights sum to exactly 1.
    """
    sig = dd.signature
    moves = _compile(dd)
    idle = dict.fromkeys(sig.actions, FALSE)
    result = []
    for acting, num, den in _narratives(idle, dd.pprops):
        rows = [acting.get(i, idle) for i in sig.instants]
        # a link is (previous link, states before it, instant fired,
        # outcomes, fluents after): only instants where a rule fires add one
        stack = [(0, num * ic.weight.numerator, den * ic.weight.denominator,
                  (None, [], -1, (ic,), ic.effect)) for ic in reversed(dd.iprop.head)]
        while stack:
            i, num, den, link = stack.pop()
            fluents = dict(link[4])
            held = [{**fluents, **rows[i]}]  # the states until a rule fires
            while i < sig.maxinst and not (targets := moves(held[-1], i))[0][1]:
                i += 1
                held.append({**fluents, **rows[i]})
            if i < sig.maxinst:
                stack += [(i + 1, num * n, den * d, (link, held, i, outs, after))
                          for after, outs, n, d, _ in reversed(targets)]
                continue
            path = []  # a world: its links back to the initial choice
            while link is not None:
                path.append(link)
                link = link[0]
            path.reverse()
            states = tuple(itertools.chain(*(node[1] for node in path), held))
            fired = [node[2] for node in path[1:]]
            traces = tuple(Trace(ic, dict(zip(fired, chosen))) for ic, *chosen
                           in itertools.product(*(node[3] for node in path)))
            result.append(WeightedWorld(FiniteWorld(sig, states), Fraction(num, den), traces))
    return result


def _narratives(idle: Mapping[str, str], pprops):
    """Each occurrence pattern of ``pprops`` with its narrative factor: the
    action part of the state at each instant of an occurrence (``idle``, all
    false, elsewhere), where exactly the occurring (action, instant) pairs
    are true (the closed world assumption), and the product of P over them
    and of 1-P over the rest, as an unreduced numerator, denominator.
    Probability-1 occurrences are forced."""
    for bits in itertools.product(*[(True,) if p.prob == 1 else (True, False) for p in pprops]):
        rows, num, den = {}, 1, 1
        for p, occurs in zip(pprops, bits):
            n, d = p.prob.numerator, p.prob.denominator
            num, den = num * (n if occurs else d - n), den * d
            if occurs:
                rows[p.instant] = {**rows.get(p.instant, idle), p.action: TRUE}
        yield rows, num, den


def _compile(dd: DomainDescription):
    """The one-step table of a domain, filled in as states are reached.

    ``moves(state, instant)`` lists where a total state can go: one ``(next
    fluent state as an items tuple, outcomes in head order, numerator and
    denominator of their summed weight, _cut of the running total)`` per
    distinct target of the activated rule, in order of first appearance, or
    ``(same fluents, (), 1, 1, 1.0)`` when no rule fires.  Entries are kept
    per state for the life of the domain, which the table does not keep
    alive; a clash raises ConcurrentActivation at each reach, never stored.
    """
    if (known := _TABLES.get(id(dd))) and known[0]() is dd:
        return known[1]
    sig, rules = dd.signature, replace(dd)  # a copy: the table must not keep dd alive
    symbols = sig.symbols
    table: dict[tuple, tuple] = {}

    def moves(state: Mapping[str, str], instant: int | None = None) -> tuple:
        key = tuple(map(state.get, symbols))
        if key in table:
            return table[key]
        c = activated_cprop(rules, state, instant)
        fluents = sig.fluent_part(state)
        found: dict[frozenset, list] = {}
        for o in c.head if c else ():
            after = tuple(update(fluents, o.effect).items())
            found.setdefault(frozenset(after), [after]).append(o)
        listed, total = [], 0
        for after, *outs in found.values():
            weight = sum((o.weight for o in outs[1:]), outs[0].weight)
            total += weight
            listed.append((after, tuple(outs), *weight.as_integer_ratio(), _cut(total)))
        table[key] = tuple(listed) or ((tuple(fluents.items()), (), 1, 1, 1.0),)
        return table[key]

    _TABLES[id(dd)] = weakref.ref(dd, lambda _, k=id(dd): _TABLES.pop(k, None)), moves
    return moves


def _cut(x: Fraction) -> float:
    """A float c with ``r < c`` exactly when ``r < x`` for each ``r =
    random.random()``: r is k / 2**53 for an integer k, and k / 2**53 <
    n / d exactly when k < ceil(n * 2**53 / d), a bound that over 2**53
    (capped at 1) is an exact float."""
    return min(-(-x.numerator * 2**53 // x.denominator), 2**53) / 2**53


# ---------------------------------------------------------------------------
# Independent world checking (the oracle side)


def check_world(dd: DomainDescription, world: FiniteWorld) -> WorldReport:
    """Judge an arbitrary world directly against the three conditions.

    Deliberately ignorant of how enumerate_worlds builds worlds: the
    closed world assumption, initial condition and justified change are
    each checked from their definitions, the latter over every instant
    pair I < I', not only adjacent ones.
    """
    sig = dd.signature
    states = world.states

    licensed = {(p.action, p.instant) for p in dd.pprops}
    cwa = all(
        states[i][a] != TRUE or (a, i) in licensed
        for i in sig.instants for a in sig.actions
    ) and all(
        states[p.instant][p.action] == TRUE
        for p in dd.pprops if p.prob == 1
    )

    fluents = [sig.fluent_part(s) for s in states]
    matching = [ic for ic in dd.iprop.head if dict(ic.effect) == fluents[0]]
    initial = bool(matching)

    occ = {i: c for i in sig.instants if (c := activated_cprop(dd, states[i], instant=i))}

    def choice_ok(chosen: dict[int, Outcome]) -> bool:
        # justified change over every pair: walking j upward accumulates
        # exactly the occurrences in [i, j) in instant order
        for i in range(len(states)):
            current = fluents[i]
            for j in range(i + 1, len(states)):
                if j - 1 in chosen:
                    current = update(current, chosen[j - 1].effect)
                if current != fluents[j]:
                    return False
        return True

    valid = [chosen for combo in itertools.product(*(c.head for c in occ.values()))
             if choice_ok(chosen := dict(zip(occ, combo)))]
    traces = tuple(Trace(matching[0], chosen) for chosen in valid) if cwa and initial else ()
    return WorldReport(cwa, initial, bool(valid), traces)  # justified: some choice fits


# ---------------------------------------------------------------------------
# Queries


def marginal(dd: DomainDescription, phi: IFormula) -> Fraction:
    """Probability of an instant-stamped formula, by one exact forward pass
    (the forward algorithm of hidden Markov models): a world's weight is a
    product over instants, so the mass of the worlds alike so far is
    carried as one sum per (fluent state, residual): what is left of phi
    once its literals so far are put in, stepped only at instants phi reads.
    It reaches the (total state, instant) pairs enumeration does, earliest
    instant first, and returns the mass on residual True."""
    sig = dd.signature
    at, step = progression(phi, sig.maxinst)
    moves = _compile(dd)
    end = [((), (), 1, 1, 1.0)]  # the window ends: no move out of maxinst
    idle = dict.fromkeys(sig.actions, FALSE)  # the action part when nothing occurs
    mass, total = _collect([((tuple(sig.fluent_part(ic.effect).items()), phi),
                             *ic.weight.as_integer_ratio()) for ic in dd.iprop.head], 1)
    occurring = defaultdict(list)  # instant -> the occurrences at it
    for p in dd.pprops:
        occurring[p.instant].append(p)
    for i in sig.instants:
        if not (occurring[i] or i in at) and i < sig.maxinst and all(
                not moves(dict(fluents, **idle), i)[0][1] for fluents, _ in mass):
            continue  # no occurrence, literal or rule here: the mass stays as it is
        patterns = [(rows.get(i, idle), num, den)
                    for rows, num, den in _narratives(idle, occurring[i])]
        steps = []
        for (fluents, rest), m in mass.items():
            for row, num, den in patterns:
                state = dict(fluents, **row)
                rest_i = step(rest, i, state) if i in at else rest
                steps += [((after, rest_i), m * num * n, den * d) for after, _, n, d, _
                          in (moves(state, i) if i < sig.maxinst else end)]
        mass, total = _collect(steps, total)
    return Fraction(sum(m for (_, rest), m in mass.items() if rest is True), total)


def _collect(steps, total: int):
    """Steps ``(key, numerator, denominator)`` summed by key: integer masses
    over ``total`` times a common multiple of the steps' denominators, so
    no step reduces a fraction; and that new denominator."""
    scale = math.lcm(*(d for *_, d in steps))
    mass: dict = defaultdict(int)
    for key, n, d in steps:
        mass[key] += n * (scale // d)
    return mass, total * scale


def entails(dd: DomainDescription, h: HProposition) -> bool:
    """Exact test that the query's probability equals the stated one."""
    return marginal(dd, h.query) == h.prob


def conditional(dd: DomainDescription, phi: IFormula,
                psi: IFormula) -> Fraction:
    """P(phi | psi) = P(phi and psi) / P(psi); ConditionZero if P(psi)=0."""
    maxinst = dd.signature.maxinst
    holds, holds_given = satisfier(phi, maxinst), satisfier(psi, maxinst)
    given = [w for w in enumerate_worlds(dd) if holds_given(w.world.states)]
    denominator = sum((w.weight for w in given), Fraction(0))
    if denominator == 0:
        raise ConditionZero("conditioning formula has probability 0")
    numerator = sum((w.weight for w in given if holds(w.world.states)), Fraction(0))
    return numerator / denominator


# ---------------------------------------------------------------------------
# Transition function


def tset(dd: DomainDescription, state: Mapping[str, str],
         target: Mapping[str, str]) -> list[Outcome]:
    """Outcomes of the activated rule that move ``state`` to ``target``.

    With no activated rule the only transition is staying put, with the
    unit outcome; anything else is impossible.
    """
    return [o for fluents, outs, *_ in _compile(dd)(state)
            if dict(fluents) == target for o in outs or [Outcome({}, Fraction(1))]]


def transition(dd: DomainDescription, state: Mapping[str, str],
               target: Mapping[str, str]) -> Fraction:
    """One-step probability of reaching a fluent state, narrative aside."""
    return outcomes_weight(tset(dd, state, target))


def transition_graph(dd: DomainDescription) -> list[TransitionEdge]:
    """Non-trivial transition edges over all states.

    Includes every positive-probability transition out of a state that
    activates a rule, plus weight-1 self-loops for states of already
    included nodes where actions are attempted but nothing is activated.
    Trivial self-loops (no action attempted) are omitted, as are nodes
    only ever reached by them.
    """
    sig = dd.signature
    moves = _compile(dd)
    edges, nodes, idle = [], set(), []
    for state in sig.total_states():
        acts = tuple(a for a in sig.actions if state[a] == TRUE)
        targets = moves(state)
        fluents = sig.fluent_part(state)
        if not targets[0][1]:
            if acts:
                idle.append((fluents, acts))
            continue
        for tgt, _, n, d, _ in targets:
            edges.append(TransitionEdge(fluents, acts, dict(tgt), Fraction(n, d)))
            nodes |= {frozenset(fluents.items()), frozenset(tgt)}
    for fluents, acts in idle:
        if frozenset(fluents.items()) in nodes:
            edges.append(TransitionEdge(fluents, acts, fluents, Fraction(1)))
    return edges


# ---------------------------------------------------------------------------
# Restriction and indistinguishability


def restrict(dd: DomainDescription, mode: str,
             instant: int | None = None) -> DomainDescription:
    """Truncate the narrative: keep occurrences at instants ``<=``/``<``
    the given one, or none at all (mode ``empty``)."""
    keep = {"empty": lambda p: False, "leq": lambda p: p.instant <= instant,
            "lt": lambda p: p.instant < instant}.get(mode)
    if keep is None:
        raise ValueError(f"mode must be 'leq', 'lt' or 'empty', not {mode!r}")
    if mode != "empty" and instant is None:
        raise ValueError(f"mode {mode!r} needs an instant")
    return replace(dd, pprops=tuple(p for p in dd.pprops if keep(p)))


def indistinguishable_up_to(w: FiniteWorld, w2: FiniteWorld,
                            instant: int) -> bool:
    """Fluent states equal at every instant <= ``instant`` and action
    values equal at every instant strictly below it."""
    part = w.signature.action_part
    return (all(w.fluent_state(i) == w2.fluent_state(i) for i in range(instant + 1))
            and all(part(w.states[i]) == part(w2.states[i]) for i in range(instant)))


# ---------------------------------------------------------------------------
# Sampling


def sample_world(dd: DomainDescription, seed: int) -> FiniteWorld:
    """Draw one world; well-behaved by construction, fixed per seed."""
    return FiniteWorld(dd.signature, tuple(map(dict, _sampler(dd)(random.Random(seed)))))


def sample_frequency(dd: DomainDescription, phi: IFormula, count: int,
                     seed: int) -> Fraction:
    """Empirical frequency of ``phi`` over ``count`` sampled worlds."""
    if count <= 0:
        raise ValueError("sample count must be positive")
    rng = random.Random(seed)
    draw = _sampler(dd)
    return Fraction(sum(satisfies(draw(rng), phi) for _ in range(count)), count)


def _sampler(dd: DomainDescription):
    """``draw(rng)``: the states of one world, each choice a single
    ``rng.random()`` compared against the ``_cut`` of a probability or
    running total, which decides as the exact ``Fraction`` would (the last
    choice when none exceeds it); certain occurrences and single-target
    steps draw nothing.  A draw walks nodes interned per sampler, one per
    (fluent items, actions occurring): a state dict, and once stepped
    from, its moves, each with the nodes it has led to by the actions
    occurring next.  Draws share the dicts, so ``sample_world`` copies."""
    sig = dd.signature
    moves = _compile(dd)
    idle = dict.fromkeys(sig.actions, FALSE)
    initial = [(_cut(total), tuple(o.effect.items()), {}) for o, total in zip(
        dd.iprop.head, itertools.accumulate(o.weight for o in dd.iprop.head))]
    occurs = [(p.action, p.instant, p.prob == 1, _cut(p.prob)) for p in dd.pprops]
    nodes: dict[tuple, list] = {}  # (fluent items, occurring actions) -> [state, steps]

    def draw(rng: random.Random) -> list[dict[str, str]]:
        on = [()] * (sig.maxinst + 1)
        for a, i, sure, cut in occurs:
            if sure or rng.random() < cut:
                on[i] += (a,)
        steps, r, states = initial, rng.random(), []
        for i, acts in enumerate(on):
            for cut, fluents, reached in steps:  # the first cut above r, else the last
                if r < cut:
                    break
            if (node := reached.get(acts)) is None:
                node = reached[acts] = nodes.setdefault((fluents, acts), [
                    {**dict(fluents), **idle, **dict.fromkeys(acts, TRUE)}, None])
            states.append(node[0])
            if i < sig.maxinst:
                steps = node[1] = node[1] or [(t[4], t[0], {}) for t in moves(node[0], i)]
                r = rng.random() if len(steps) > 1 else 0.0
        return states

    return draw

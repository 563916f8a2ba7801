"""Exact possible-worlds semantics for domain descriptions.

The model of a domain assigns each well-behaved world a weight: the
narrative evaluation of the world times the summed evaluations of its
traces.  ``_compile`` interns a domain once and keeps it on the domain: an
int id per reached fluent state, and per node (a fluent id under the
actions occurring) its total state and, from its first step, where it
can go, and the compiled form of each query asked (up to ``_QUERIES``).
``marginal`` is one forward pass over the nodes, carrying mass per (fluent
id, residual of the query) and listing no worlds, through rows summed once
per key and instant and shared by idle instants: its answer, the share of
that mass on residual True, is fixed once the query is read.  Enumeration
walks them depth first, copying a path only where it branches (a world's
fields, traces and states between stops wait for their first read); the
sampler draws along them; ``tset`` and ``transition_graph`` reach them
from a state dict.  Every walker steps at the table's ``stops``: its events
(the occurrence instants and ``maxinst``) and the instants the walker reads.
Between them nothing occurs, and every rule body entails an action (a
condition validation checks), so no rule fires there; a domain built
without it has every instant as an event.  At ``maxinst``, the last stop,
a walker reads the node under its own occurrences, and no move leaves it.
``conditional`` is the ratio of two forward passes, P(phi and psi) over
P(psi), and walks the worlds only to check for a clash; ``check_world``
stays an independent brute-force judge of the three well-behavedness
conditions, an oracle against the enumerator.  Queries check the window
up front; the sampler runs every draw of a call in one loop and folds the
query once per distinct tuple of the nodes at its instants.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from _thread import allocate_lock
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction

from .core import (_NO_VALUE, And, ConcurrentActivation, ConditionZero, DomainSignature, FALSE,
                   IFormula, Lit, Outcome, PecError, Record, SignatureError, TRUE, _window,
                   eval_formula, fold, fraction_text, herbrand_entails, outcomes_weight,
                   progression, replace, satisfies, update)
from .syntax import CProp, DomainDescription, HProposition

# node tuples whose verdict one sample_frequency call keeps: a query over
# many instants can draw a new tuple nearly every sample
_VERDICTS = 4096
_QUERIES = 256  # queries whose compiled form one table keeps


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
    """A world, its weight and its outcome groups.  An enumerated one keeps
    the walk's path at its stops (``_raw``) and builds each field on first read."""

    world: FiniteWorld
    weight: Fraction
    choices: tuple  # (instants fired, (initial outcome group, one group per fired instant))

    def __getattr__(self, name):  # only reached while a field is unbuilt
        if name not in WeightedWorld._fields or "_raw" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        sig, stops, states, num, den, fired, outs = self._raw
        value = (FiniteWorld(sig, _filled(sig, stops, states)) if name == "world" else
                 Fraction(num, den) if name == "weight" else (tuple(fired), tuple(outs)))
        return self.__dict__.setdefault(name, value)

    @functools.cached_property
    def traces(self) -> tuple[Trace, ...]:  # an outcome from each group, built on first read
        fired, groups = self.choices
        return tuple(Trace(ic, dict(zip(fired, rest))) for ic, *rest in itertools.product(*groups))


def _filled(sig: DomainSignature, stops, states) -> tuple:
    """Fresh state dicts at every instant from the ``states`` at ``stops``:
    a gap holds the next stop's fluents with every action false."""
    idle, full = dict.fromkeys(sig.actions, FALSE), []
    for i, state in zip(stops, states):
        full += [{**state, **idle} for _ in range(i - len(full))] + [dict(state)]
    return tuple(full)


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
    """All worlds of non-zero weight, with exact weights summing to 1, and traces.

    Branches over (a) the occurrence patterns of ``_narratives``, (b) the
    table's initial groups, and (c) the successors of its nodes, one per next
    fluent state, depth first and only at the table's events, so each world is
    reached once and a path is copied only where it branches: its weight is
    carried down in integers, and its outcome groups are kept as its
    ``choices``.  Each world keeps the path's node state dicts at the events,
    the integers and the groups, and builds ``world`` (fresh state dicts at
    every instant), ``weight`` (reduced) and ``choices`` on its first read."""
    sig, table = dd.signature, _compile(dd)
    last, nodes, scale, events = sig.maxinst, table.nodes, table.scale, table.events
    result = []
    for masks, num, den in _narratives(table.bits, dd.pprops):
        # (stop index, weight, fluent id, states, instants fired, initial and fired outcomes)
        stack = [(0, num * n, den * scale, g, [], [], [outs])
                 for g, outs, n, _ in reversed(table.initial)]
        while stack:
            k, num, den, f, states, fired, outs = stack.pop()
            for k in range(k, len(events)):
                node = nodes[f].get(masks[i := events[k]]) or table.node(f, masks[i])
                states.append(node[0])
                if i == last or len(targets := node[1] or table.step(f, node, i)) > 1:
                    break
                (f, o, _, _), = targets  # one target has the rule's whole weight
                if o:
                    fired.append(i)
                    outs.append(o)
            if i < last:
                stack += [(k + 1, num * n, den * scale, g, states[:], fired + [i], outs + [o])
                          for g, o, n, _ in reversed(targets)]
                continue
            result.append(w := object.__new__(WeightedWorld))
            w.__dict__["_raw"] = sig, events, states, num, den, fired, outs
    return result


def _narratives(bits: Mapping[str, int], pprops):
    """Each occurrence pattern of ``pprops`` with its narrative factor: the
    mask (by ``bits``) of the actions occurring at each instant, exactly
    the occurring (action, instant) pairs (the closed world assumption),
    and the product of P over them and of 1-P over the rest, as unreduced
    numerator and denominator.  Probability-1 occurrences are forced."""
    for on in itertools.product(*[(True,) if p.prob == 1 else (True, False) for p in pprops]):
        masks, num, den = defaultdict(int), 1, 1
        for p, occurs in zip(pprops, on):
            n, d = p.prob.numerator, p.prob.denominator
            num, den = num * (n if occurs else d - n), den * d
            masks[p.instant] |= bits[p.action] if occurs else 0
        yield masks, num, den


def _compile(dd: DomainDescription) -> _Table:
    """The node table of a domain, built from a copy (so it dies with the
    domain) and kept in its ``__dict__``: racing cold calls share one."""
    return dd.__dict__.get("_table") or dd.__dict__.setdefault("_table", _Table(replace(dd)))


class _Table:
    """A domain interned into nodes, filled in as they are reached.

    Each reached fluent state gets an int id once: ``fluents[id]`` is its
    dict.  A node, a fluent id under a mask of occurring actions
    (``bits``), is ``nodes[id][mask] = [total state, successors]``, the
    successors filled at its first step: one ``(next id, outcomes in head
    order, summed weight over scale, _cut of the running total)`` per
    target, in order of first appearance, or ``((id, (), scale, 1.0),)``
    when no rule fires; a clash raises at each reach.  ``initial`` lists
    the initial choices alike; ``patterns[i]`` the ``(mask, numerator)`` of
    each occurrence pattern at instant i, one tuple for equal lists
    (``none`` where nothing occurs), with no denominator, as the answer is
    a share of the carried mass; ``events``, built once, the schedule that
    ``stops`` merges a walker's instants into: their instants and ``maxinst``
    in order, the only instants where a rule can fire when every rule body
    entails an action, else ``range(maxinst + 1)``; ``queries`` the compiled
    form of the first ``_QUERIES`` queries asked.  It refuses a narrative the
    validator would (bar an occurrence at ``maxinst``), is kept on its domain
    and reads a copy.  Ids are assigned under a lock and every other entry is
    published by one store, so calls may share a table."""

    def __init__(self, dd: DomainDescription):
        sig, self.rules, self.lock = dd.signature, dd, allocate_lock()
        self.names, self.idle = sig.fluents, dict.fromkeys(sig.actions, FALSE)
        self.bits = {a: 1 << k for k, a in enumerate(sig.actions)}
        self.scale = math.lcm(*(o.weight.denominator for c in (*dd.cprops, dd.iprop)
                                for o in c.head))
        self.ids, self.fluents, self.nodes = {}, [], []
        self.queries = {}  # phi -> compiled form
        self.initial = self.targets({}, dd.iprop.head)
        occurring = defaultdict(dict)  # instant -> action -> its occurrence
        for p in dd.pprops:  # the validator's checks, but maxinst is an instant like any
            if p.action not in self.bits:
                raise SignatureError(f"unknown action {p.action}")
            if p.action in (here := occurring[_window(p.instant, sig.maxinst)]):
                raise PecError(f"duplicate occurrence of {p.action} at instant {p.instant}")
            if not 0 < p.prob.numerator <= p.prob.denominator:
                raise PecError(f"occurrence probability {fraction_text(p.prob)} outside (0,1]")
            here[p.action] = p
        self.none, self.patterns = ((0, 1),), {}  # the pattern list of no occurrence
        lists = {self.none: self.none}  # equal pattern lists are one tuple
        for i, ps in occurring.items():
            ps = tuple([(masks.get(i, 0), num)
                        for masks, num, _ in _narratives(self.bits, ps.values())])
            self.patterns[i] = lists.setdefault(ps, ps)
        self.events = tuple(sorted({*self.patterns, sig.maxinst}))
        if not all(any(herbrand_entails(c.body, Lit(a, TRUE)) for a in sig.actions)
                   for c in dd.cprops):  # a rule may fire where nothing occurs
            self.events = range(sig.maxinst + 1)

    def query(self, phi: IFormula) -> tuple:
        """Phi compiled once (a RangeError stores nothing): ``progression``'s
        ``at`` and step, ``stops(at)``, phi's last instant, and the forward
        pass's rows by slot and key (see ``marginal``), its steps' only memo."""
        if (known := self.queries.get(phi)) is None:
            at, progress = progression(phi, self.rules.signature.maxinst)
            known = at, progress, self.stops(at), max(at), {}
            known = self.queries.setdefault(phi, known) if len(self.queries) < _QUERIES else known
        return known

    def stops(self, instants):
        """The events with ``instants`` merged in (``events`` if it has them all)."""
        events = self.events
        return events if all(i in events for i in instants) else tuple(sorted({*events, *instants}))

    def fluent_id(self, fluents: Mapping[str, str]) -> int:
        key = tuple([fluents[f] for f in self.names])
        with self.lock:
            if key not in self.ids:
                self.fluents.append(dict(zip(self.names, key)))
                self.nodes.append({0: [{**self.fluents[-1], **self.idle}, None]})
                self.ids[key] = len(self.nodes) - 1
            return self.ids[key]

    def node(self, fid: int, mask: int) -> list:
        acting = dict.fromkeys([a for a, bit in self.bits.items() if mask & bit], TRUE)
        return self.nodes[fid].setdefault(mask, [{**self.nodes[fid][0][0], **acting}, None])

    def step(self, fid: int, node: list, instant: int | None) -> tuple:
        c = activated_cprop(self.rules, node[0], instant)
        node[1] = self.targets(self.fluents[fid], c.head) if c else ((fid, (), self.scale, 1.0),)
        return node[1]

    def targets(self, base: Mapping[str, str], outcomes) -> tuple:
        """The outcomes applied to ``base``, grouped by target fluent id."""
        found: dict[int, list] = {}
        for o in outcomes:
            found.setdefault(self.fluent_id({**base, **o.effect}), []).append(o)
        weights = [sum(o.weight.numerator * (self.scale // o.weight.denominator) for o in outs)
                   for outs in found.values()]
        return tuple((g, tuple(outs), n, _cut(t, self.scale)) for (g, outs), n, t
                     in zip(found.items(), weights, itertools.accumulate(weights)))

    def moves(self, state: Mapping[str, str]) -> tuple:
        """The successors of the node of a total state dict."""
        fid = self.fluent_id(state)
        node = self.node(fid, sum(bit for a, bit in self.bits.items() if state[a] == TRUE))
        return node[1] or self.step(fid, node, None)


def _cut(n: int, d: int) -> float:
    """A float c with ``r < c`` exactly when ``r < n / d`` for each ``r =
    random.random()``: r is k / 2**53 for an integer k, and k / 2**53 <
    n / d exactly when k < ceil(n * 2**53 / d), a bound that over 2**53
    (capped at 1) is an exact float."""
    return min(-(-n * 2**53 // d), 2**53) / 2**53


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
    product over instants, so the mass of the worlds alike so far is one
    integer per key (fluent id, residual: what is left of phi once its
    literals so far are put in).  The weights sum to 1, so the answer is
    the share of the carried mass on residual True, fixed at phi's last
    instant; from there the keys go on with mass 0, so a later clash still
    raises and no integer grows.  It steps at the table's ``stops`` of
    phi's instants.  A key's row (its next keys, weights summed over
    patterns and targets) is built on first reach, a clash storing nothing,
    and kept by slot: the instant where phi reads and at ``maxinst``, else
    the interned pattern list, so idle instants share one row per key.  A
    repeated call only sums rows."""
    last, table = dd.signature.maxinst, _compile(dd)
    at, progress, stops, decided, rows = table.query(phi)
    nodes, mass = table.nodes, {(g, phi): n for g, _, n, _ in table.initial}
    for i in stops:
        patterns, reads = table.patterns.get(i, table.none), i in at
        slot = i if reads or i == last else patterns
        memo, after = rows.get(slot) or rows.setdefault(slot, {}), {}
        for key, m in mass.items():
            if (row := memo.get(key)) is None:  # first reach of this key in this slot
                (f, rest), sums = key, defaultdict(int)
                for mask, num in patterns:
                    node = nodes[f].get(mask) or table.node(f, mask)
                    rest_i = progress(rest, i, node[0]) if reads else rest
                    for g, _, n, _ in ((f, (), 1, 1.0),) if i == last else \
                            node[1] or table.step(f, node, i):
                        sums[g, rest_i] += num * n
                row = memo.setdefault(key, tuple(sums.items()))
            for nxt, w in row:
                after[nxt] = after.get(nxt, 0) + m * w
        mass = after
        if i == decided:  # phi is read no more
            share = Fraction(sum(m for (_, rest), m in mass.items() if rest is True),
                             sum(mass.values()))
            mass = dict.fromkeys(mass, 0) if i < last else mass
    return share


def entails(dd: DomainDescription, h: HProposition) -> bool:
    """Exact test that the query's probability equals the stated one."""
    return marginal(dd, h.query) == h.prob


def conditional(dd: DomainDescription, phi: IFormula,
                psi: IFormula) -> Fraction:
    """P(phi | psi) = P(phi and psi) / P(psi); ConditionZero if P(psi)=0.

    Windows are checked first, phi's first.  Both probabilities come from
    ``marginal``'s forward pass; the worlds are enumerated only as the clash
    check, which reports the clash the depth-first walk reaches, and not
    the earliest one the pass would."""
    for f in (phi, psi):
        _compile(dd).query(f)
    enumerate_worlds(dd)
    if (p_psi := marginal(dd, psi)) == 0:
        raise ConditionZero("conditioning formula has probability 0")
    return marginal(dd, And(phi, psi)) / p_psi


# ---------------------------------------------------------------------------
# Transition function


def tset(dd: DomainDescription, state: Mapping[str, str],
         target: Mapping[str, str]) -> list[Outcome]:
    """Outcomes of the activated rule that move ``state`` to ``target``.

    With no activated rule the only transition is staying put, with the
    unit outcome; anything else is impossible.
    """
    table = _compile(dd)
    return [o for g, outs, *_ in table.moves(state)
            if table.fluents[g] == target for o in outs or [Outcome({}, Fraction(1))]]


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
    sig, table = dd.signature, _compile(dd)
    fluents = table.fluents
    edges, reached, idle = [], set(), []
    for state in sig.total_states():
        acts = tuple(a for a in sig.actions if state[a] == TRUE)
        f, targets = table.fluent_id(state), table.moves(state)
        if targets[0][1]:
            reached |= {f, *(g for g, *_ in targets)}
            edges += [TransitionEdge(dict(fluents[f]), acts, dict(fluents[g]),
                                     Fraction(n, table.scale)) for g, _, n, _ in targets]
        elif acts:
            idle.append((f, acts))
    return edges + [TransitionEdge(dict(fluents[f]), acts, dict(fluents[f]), Fraction(1))
                    for f, acts in idle if f in reached]


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
    """Draw one world; well-behaved by construction, fixed per seed, kept at
    the table's events and filled in between them by ``_filled``."""
    sig, events = dd.signature, _compile(dd).events
    return FiniteWorld(sig, _filled(sig, events, _draws(dd, events, 1, seed)[1]))


def sample_frequency(dd: DomainDescription, phi: IFormula, count: int,
                     seed: int) -> Fraction:
    """Empirical frequency of ``phi`` over ``count`` sampled worlds.

    A draw stops where the forward pass for phi does, and keeps the table's
    node dicts (alive as long as the table) at phi's instants, all phi's
    truth depends on: so ``satisfies`` folds phi once per distinct tuple of
    them, and later draws through the same nodes reuse its verdict (for the
    first ``_VERDICTS`` tuples).  Instants outside the window are not kept,
    so the first ``satisfies`` reports them, after the first draw."""
    if count <= 0:
        raise ValueError("sample count must be positive")
    last, reads = dd.signature.maxinst, {}
    fold(phi, lambda il: 0 <= il.instant <= last and reads.setdefault(il.instant), _NO_VALUE)
    return Fraction(_draws(dd, sorted(reads), count, seed, phi)[0], count)


def _draws(dd: DomainDescription, keep, count: int, seed: int, phi=None) -> tuple:
    """The draws of one call, in one loop: how many of ``count`` worlds
    satisfy ``phi`` (when given), and the last one's node state dicts at
    the sorted instants ``keep``.  Each choice is a single ``random()`` of
    the seeded stream compared against the ``_cut`` of a probability or
    running total, which decides as the exact ``Fraction`` would (the last
    choice when none exceeds it); certain occurrences and single-target
    steps draw nothing.  A draw steps at the table's ``stops(keep)``, by a
    plan of ``(stop index, kept?, instant)``, and moves out of every stop
    but the last, ``maxinst``."""
    last, table = dd.signature.maxinst, _compile(dd)
    nodes, initial, stops, wanted = table.nodes, table.initial, table.stops(keep), {*keep}
    at = {i: k for k, i in enumerate(stops)}
    *plan, (end, kept_end, _) = [(k, i in wanted, i) for k, i in enumerate(stops)]
    sure = [0] * len(stops)
    for p in dd.pprops:
        sure[at[p.instant]] |= table.bits[p.action] if p.prob == 1 else 0
    occurs = [(table.bits[p.action], at[p.instant], _cut(p.prob.numerator, p.prob.denominator))
              for p in dd.pprops if p.prob != 1]
    draw_random, verdicts, hits = random.Random(seed).random, {}, 0
    for _ in range(count):
        on, states = sure[:], []
        for bit, k, cut in occurs:
            if draw_random() < cut:
                on[k] |= bit
        r = draw_random()
        for g, _, _, cut in initial:  # the first cut above r, else the last
            if r < cut:
                break
        for k, kept, i in plan:  # every stop but the last, maxinst
            node = nodes[g].get(on[k]) or table.node(g, on[k])
            if kept:
                states.append(node[0])
            if len(steps := node[1] or table.step(g, node, i)) > 1:
                r = draw_random()
                for g, _, _, cut in steps:
                    if r < cut:
                        break
            else:
                g = steps[0][0]
        if kept_end:  # maxinst, under its own occurrences: no move leaves it
            states.append((nodes[g].get(on[end]) or table.node(g, on[end]))[0])
        if phi is not None:  # the node tuple's verdict, folded on its first draw
            if (verdict := verdicts.get(key := tuple(map(id, states)))) is None:
                verdict = satisfies(dict(zip(keep, states)), phi, last)
                if len(verdicts) < _VERDICTS:
                    verdicts[key] = verdict
            hits += verdict
    return hits, states

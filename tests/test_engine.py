"""Semantics engine: enumeration, world checking, queries, transitions."""

import collections
import contextlib
import copy
import functools
import gc
import hashlib
import itertools
import pickle
import random
import re
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest

import pec.engine

from pec import (
    And,
    ConcurrentActivation,
    ConditionZero,
    CProp,
    DomainSignature,
    FALSE,
    FiniteWorld,
    HProposition,
    ILit,
    IProp,
    Lit,
    Not,
    Or,
    Outcome,
    PProp,
    PecError,
    RangeError,
    SignatureError,
    TRUE,
    Trace,
    VProp,
    WeightedWorld,
    activated_cprop,
    at_instant,
    check_world,
    conditional,
    entails,
    enumerate_worlds,
    eval_formula,
    indistinguishable_up_to,
    marginal,
    narrative_eval,
    parse_domain,
    parse_query,
    render,
    replace,
    restrict,
    sample_frequency,
    sample_world,
    trace_eval,
    transition,
    transition_graph,
    tset,
    update,
)
from pec.engine import _cut
from conftest import load_domain
from helpers import (OracleClash, all_worlds, alternating, canonical_trace, covering_iformula,
                     forward_marginal, micro_domain, random_domain, random_formula,
                     random_iformula, reference_sample)


# two rules fire together wherever both actions occur
CLASH = parse_domain("maxinst 2\nfluent F takes-values {a, b}\n"
                     "action A1\naction A2\n"
                     "initially-one-of {({F=a}, 1)}\n"
                     "A1 causes-one-of {({F=b}, 1)}\n"
                     "A2 causes-one-of {({F=a}, 1)}\n")


def coin_world(sig, *pairs):
    return FiniteWorld(sig, tuple(
        {"Coin": c, "Toss": TRUE if t else FALSE} for c, t in pairs))


@pytest.fixture()
def coin_worlds(coin):
    sig = coin.signature
    w1 = coin_world(sig, ("Heads", False), ("Heads", True),
                    ("Tails", False), ("Tails", False))
    w2 = coin_world(sig, ("Tails", False), ("Heads", False),
                    ("Tails", True), ("Tails", True))
    w3 = coin_world(sig, ("Heads", False), ("Heads", True),
                    ("Heads", False), ("Heads", False))
    return w1, w2, w3


class TestActivation:
    def test_toss_rule_activated(self, coin):
        state = {"Coin": "Heads", "Toss": TRUE}
        assert activated_cprop(coin, state) is coin.cprops[0]

    def test_no_activation_without_action(self, coin):
        assert activated_cprop(coin, {"Coin": "Heads", "Toss": FALSE}) is None

    def test_no_rule_for_absent_bacteria(self, antibiotic):
        state = {"Bacteria": "Absent", "Rash": "Present", "TakesMedicine": TRUE}
        assert activated_cprop(antibiotic, state) is None

    def test_concurrent_activation_raises(self):
        dd = CLASH
        state = {"F": "a", "A1": TRUE, "A2": TRUE}
        with pytest.raises(ConcurrentActivation):
            activated_cprop(dd, state)
        # and through enumeration, where both occurrences are forced
        clash = replace(dd, pprops=(PProp("A1", 0, Fraction(1)),
                                    PProp("A2", 0, Fraction(1))))
        with pytest.raises(ConcurrentActivation):
            enumerate_worlds(clash)


class TestEvaluations:
    def test_narrative_eval_keys(self, keys):
        picked, forgot = enumerate_worlds(keys)
        if not picked.world.satisfies(ILit("PickupKeys", TRUE, 1)):
            picked, forgot = forgot, picked
        assert narrative_eval(keys, picked.world) == Fraction(99, 100)
        assert narrative_eval(keys, forgot.world) == Fraction(1, 100)

    def test_narrative_eval_certain(self, coin):
        for w in enumerate_worlds(coin):
            assert narrative_eval(coin, w.world) == 1

    def test_trace_eval(self, coin):
        worlds = {w.weight: w for w in enumerate_worlds(coin)}
        stayed = worlds[Fraction(51, 100)]
        assert sorted(trace_eval(t) for t in stayed.traces) == \
            [Fraction(1, 50), Fraction(49, 100)]

    def test_trace_eval_empty_domain(self, coin):
        tr = Trace(coin.iprop.head[0], {})
        assert trace_eval(tr) == coin.iprop.head[0].weight


class TestEnumerate:
    def test_coin_worlds(self, coin, coin_worlds):
        w1, _, w3 = coin_worlds
        result = {w.world.key(): w for w in enumerate_worlds(coin)}
        assert len(result) == 2
        assert result[w1.key()].weight == Fraction(49, 100)
        assert len(result[w1.key()].traces) == 1
        assert result[w3.key()].weight == Fraction(51, 100)
        assert len(result[w3.key()].traces) == 2

    def test_keys_worlds(self, keys):
        weights = sorted(w.weight for w in enumerate_worlds(keys))
        assert weights == [Fraction(1, 100), Fraction(99, 100)]

    def test_empty_narrative_gives_constant_worlds(self, antibiotic):
        silent = restrict(antibiotic, "empty")
        worlds = enumerate_worlds(silent)
        assert sorted(w.weight for w in worlds) == \
            [Fraction(1, 10), Fraction(9, 10)]
        for w in worlds:
            first = w.world.fluent_state(0)
            assert all(w.world.fluent_state(i) == first
                       for i in range(1, 5))

    def test_weights_sum_to_one_on_random_domains(self):
        rng = random.Random(71)
        for _ in range(25):
            dd = random_domain(rng)
            assert sum(w.weight for w in enumerate_worlds(dd)) == 1

    def test_fluents_persist_without_occurrences(self):
        rng = random.Random(19)
        quiet_worlds = 0
        for _ in range(25):
            dd = random_domain(rng)
            for w in enumerate_worlds(dd):
                if not w.traces[0].effects:
                    quiet_worlds += 1
                    first = w.world.fluent_state(0)
                    assert all(w.world.fluent_state(i) == first
                               for i in range(1, dd.signature.maxinst + 1))
        assert quiet_worlds > 0

    def test_long_window(self):
        # one simulation step per instant, without recursion
        dd = parse_domain(
            "maxinst 1500\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A causes-one-of {({F=b}, 1/2)}\nA performed-at 1\n")
        worlds = enumerate_worlds(dd)
        assert sorted(w.weight for w in worlds) == [Fraction(1, 2)] * 2
        assert all(len(w.world.states) == 1501 for w in worlds)

    def test_long_window_costs_linear_time(self):
        # a path is copied only where it branches, so a long window costs
        # time linear in maxinst: copying the path at every instant took
        # 0.65 s on a 2-core x86-64 VM (Python 3.11), the walk 0.05 s
        dd = parse_domain(
            "maxinst 12000\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A causes-one-of {({F=b}, 1/2)}\nA performed-at 1\n")
        start = time.process_time()
        worlds = enumerate_worlds(dd)
        elapsed = time.process_time() - start
        assert sorted(w.weight for w in worlds) == [Fraction(1, 2)] * 2
        assert all(len(w.world.states) == 12001 for w in worlds)
        assert elapsed < 0.3, f"enumeration took {elapsed:.2f} s"

    def test_a_firing_at_every_instant_costs_linear_time(self):
        # a single-target rule fires at each of 20,000 instants: it is
        # recorded in place, without copying the path (0.05-0.15 s on a
        # 2-core x86-64 VM, Python 3.11), where rebuilding a tuple of the
        # states at every instant took 1.0-1.2 s
        n = 20000
        dd = parse_domain(
            f"maxinst {n}\nfluent F takes-values {{a, b}}\naction A\n"
            "initially-one-of {({F=a}, 1)}\nA causes-one-of {({F=b}, 1)}\n"
            + "".join(f"A performed-at {i}\n" for i in range(n)))
        start = time.process_time()
        worlds = enumerate_worlds(dd)
        elapsed = time.process_time() - start
        assert [w.weight for w in worlds] == [1]
        (trace,) = worlds[0].traces
        assert list(trace.effects) == list(range(n))
        assert all(o.effect == {"F": "b"} for o in trace.effects.values())
        assert len(worlds[0].world.states) == n + 1
        assert elapsed < 0.6, f"enumeration took {elapsed:.2f} s"

    def test_deterministic_order(self, antibiotic):
        first = enumerate_worlds(antibiotic)
        second = enumerate_worlds(antibiotic)
        assert [w.world for w in first] == [w.world for w in second]
        assert [w.weight for w in first] == [w.weight for w in second]

    def test_traces_are_built_on_first_read(self, coin, monkeypatch):
        built, make = [], pec.engine.Trace
        monkeypatch.setattr(pec.engine, "Trace", lambda *args: built.append(args) or make(*args))
        worlds = enumerate_worlds(coin)
        assert built == []
        assert all("traces" not in w.__dict__ for w in worlds)
        first = [w.traces for w in worlds]
        assert len(built) == sum(map(len, first)) == 3
        assert all(w.traces is traces for w, traces in zip(worlds, first))
        assert len(built) == 3

    def test_records_compare_pickle_and_replace_as_before(self, coin, antibiotic):
        for dd in (coin, antibiotic):
            worlds, read = enumerate_worlds(dd), enumerate_worlds(dd)
            traces = [w.traces for w in read]  # built on one side only
            assert worlds == read
            for w, w2, expected in zip(worlds, read, traces):
                for twin in (w, w2):
                    for again in (pickle.loads(pickle.dumps(twin)), replace(twin)):
                        assert again == w
                        assert again.traces == expected
                with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                    hash(w)  # outcome effects are dicts, as they were in the traces
                assert replace(w, weight=w.weight / 2) != w


def result_of(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def test_lazy_worlds_equal_their_eager_records(walk_pool):
    fields = WeightedWorld._fields
    orders = list(itertools.permutations(fields))
    trips = [lambda w, p=p: pickle.loads(pickle.dumps(w, p))
             for p in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.copy, copy.deepcopy, replace]
    for dd in walk_pool:
        batches = [enumerate_worlds(dd) for _ in range(len(trips) + 6)]
        nodes = {id(node[0]) for per in pec.engine._compile(dd).nodes for node in per.values()}
        # each twin of a world is unread until the check that reads it first
        for k, (w, hashed, left, right, shown, matched, *tripped) in enumerate(zip(*batches)):
            order = orders[k % len(orders)]
            read = [getattr(w, name) for name in order]
            eager = WeightedWorld(w.world, w.weight, w.choices)
            assert read == [getattr(eager, name) for name in order]
            assert not nodes & set(map(id, w.world.states))  # fresh dicts, no node's
            assert result_of(lambda: hash(hashed)) == result_of(lambda: hash(eager))
            assert left == eager and eager == right and repr(shown) == repr(eager)
            match matched:
                case WeightedWorld(world, weight, choices):
                    assert (world, weight, choices) == (eager.world, eager.weight, eager.choices)
                case _:
                    pytest.fail(f"{matched!r} matches no WeightedWorld pattern")
            for trip, twin in zip(trips, tripped):
                again = trip(twin)
                assert type(again) is WeightedWorld and again == eager
                assert set(vars(again)) == set(fields)  # no raw path, so no node dict
                assert not nodes & set(map(id, again.world.states))
            assert w.traces == eager.traces


@pytest.fixture(scope="module")
def walk_pool(coin, antibiotic, keys):
    rng = random.Random(8)
    return [coin, antibiotic, keys] + [random_domain(rng) for _ in range(300)]


@pytest.fixture(scope="module")
def late_pool():
    """100 API-built domains with one more occurrence, at ``maxinst``, which
    a parsed narrative cannot hold: some certain, some uncertain."""
    rng, late = random.Random(37), []
    while len(late) < 100:
        dd = random_domain(rng)
        sig = dd.signature
        if sig.actions:
            prob = rng.choice([Fraction(1), Fraction(1, 2), Fraction(3, 10)])
            late.append(replace(dd, pprops=dd.pprops + (
                PProp(rng.choice(sig.actions), sig.maxinst, prob),)))
    return late


def clash_twins(count, **bounds):
    """Random domains plus one rule whose body is a single literal, so
    some reachable states activate two rules."""
    rng = random.Random(31)
    twins = []
    while len(twins) < count:
        dd = random_domain(rng, **bounds)
        sig = dd.signature
        if not sig.actions:
            continue
        subject = rng.choice(sig.symbols)
        body = Lit(subject, rng.choice(sig.values_of(subject)))
        f = sig.fluents[0]
        head = (Outcome({f: sig.vals[f][0]}, Fraction(1, 2)),
                Outcome({}, Fraction(1, 2)))
        twins.append(replace(dd, cprops=dd.cprops + (CProp(body, head),)))
    return twins


def reachable_clashes(dd):
    """(instant, total state) pairs where two rule bodies hold, over all
    states reachable with positive weight: a forward search of the
    definitions that shares no code with the enumerator."""
    sig = dd.signature
    choices = [(True,) if p.prob == 1 else (True, False) for p in dd.pprops]
    clashes = set()
    for bits in itertools.product(*choices):
        on = {(p.action, p.instant) for p, b in zip(dd.pprops, bits) if b}
        frontier = {tuple(sorted(ic.effect.items())) for ic in dd.iprop.head}
        for i in sig.instants:
            acts = {a: TRUE if (a, i) in on else FALSE for a in sig.actions}
            following = set()
            for fluents in frontier:
                state = {**dict(fluents), **acts}
                fired = [c for c in dd.cprops if eval_formula(state, c.body)]
                if len(fired) > 1:
                    clashes.add((i, tuple(sorted(state.items()))))
                heads = fired[0].head if len(fired) == 1 else [Outcome({}, 1)]
                following |= {tuple(sorted(update(dict(fluents), o.effect).items()))
                              for o in heads}
            frontier = following if i < sig.maxinst else set()
    return clashes


def head_index(dd, world, trace):
    """A trace as the head positions of its chosen outcomes, in time order."""
    states = world.states
    return (dd.iprop.head.index(trace.initial),) + tuple(
        activated_cprop(dd, states[i]).head.index(o)
        for i, o in sorted(trace.effects.items()))


class TestGroupedWalk:
    def test_each_world_once_with_factored_weight(self, walk_pool, late_pool):
        # the long sparse windows are walked at their events alone: the
        # oracle judges the states filled in between them
        rng = random.Random(42)
        sparse = [random_domain(rng, max_maxinst=40, max_pprops=3) for _ in range(40)]
        for dd in walk_pool + sparse + late_pool:
            worlds = enumerate_worlds(dd)
            assert len({w.world.key() for w in worlds}) == len(worlds)
            for w in worlds:
                assert check_world(dd, w.world).well_behaved()
                assert w.weight == narrative_eval(dd, w.world) * sum(
                    (trace_eval(t) for t in w.traces), Fraction(0))
                order = [head_index(dd, w.world, t) for t in w.traces]
                assert order == sorted(set(order))

    def test_clash_twins_raise_where_a_clash_is_reachable(self):
        raised = 0
        for dd in clash_twins(200):
            clashes = reachable_clashes(dd)
            try:
                worlds = enumerate_worlds(dd)
            except ConcurrentActivation as exc:
                raised += 1
                assert (exc.instant, tuple(sorted(exc.state.items()))) in clashes
            else:
                assert not clashes
                assert sum(w.weight for w in worlds) == 1
        assert raised > 20

    def test_queries_equal_sums_over_worlds(self, walk_pool, late_pool):
        rng = random.Random(12)
        for dd in walk_pool + late_pool:
            worlds = enumerate_worlds(dd)
            for _ in range(4):
                phi = random_iformula(rng, dd.signature)
                psi = random_iformula(rng, dd.signature)
                mass = sum((w.weight for w in worlds if w.world.satisfies(phi)),
                           Fraction(0))
                assert marginal(dd, phi) == mass
                given = sum((w.weight for w in worlds if w.world.satisfies(psi)),
                            Fraction(0))
                if given == 0:
                    with pytest.raises(ConditionZero):
                        conditional(dd, phi, psi)
                    continue
                both = sum((w.weight for w in worlds
                            if w.world.satisfies(And(phi, psi))), Fraction(0))
                assert conditional(dd, phi, psi) == both / given

    def test_query_errors(self, coin):
        heads = ILit("Coin", "Heads", 2)
        unknown = And(heads, ILit("Nope", "x", 1))
        never = ILit("Coin", "Tails", 0)
        with pytest.raises(SignatureError, match="state does not assign 'Nope'"):
            marginal(coin, unknown)
        # Coin=Heads holds at 0 in every world, so the residual is decided
        # there; the literal at 1 is still read
        with pytest.raises(SignatureError, match="state does not assign 'Nope'"):
            marginal(coin, Or(ILit("Coin", "Heads", 0), ILit("Nope", "x", 1)))
        with pytest.raises(SignatureError, match="state does not assign 'Nope'"):
            conditional(coin, unknown, heads)
        with pytest.raises(SignatureError, match="state does not assign 'Nope'"):
            conditional(coin, heads, unknown)
        # phi is evaluated only in worlds where the condition holds
        with pytest.raises(ConditionZero):
            conditional(coin, unknown, never)
        with pytest.raises(RangeError, match="instant 4 outside the window 0..3"):
            conditional(coin, heads, ILit("Coin", "Heads", 4))

    def test_marginal_raises_concurrent_activation_as_enumeration_does(self):
        # the forward pass walks instant by instant, so it reports the
        # earliest reachable clash; the depth-first walk may report a later one
        raised = later = 0
        for dd in clash_twins(200):
            f = dd.signature.fluents[0]
            phi = ILit(f, dd.signature.vals[f][0], 0)
            try:
                enumerate_worlds(dd)
            except ConcurrentActivation as exc:
                with pytest.raises(ConcurrentActivation) as err:
                    marginal(dd, phi)
                clashes = reachable_clashes(dd)
                first = min(i for i, _ in clashes)
                assert err.value.instant == first
                assert (first, tuple(sorted(err.value.state.items()))) in clashes
                raised += 1
                later += exc.instant > first
            else:
                marginal(dd, phi)
        assert raised > 20 and later > 0
        # no move leaves maxinst, so a clash there is reached by neither
        b = Lit("F", "b")
        late = replace(CLASH, signature=replace(CLASH.signature, maxinst=1), cprops=(
            CProp(Lit("F", "a"), (Outcome({"F": "b"}, 1),)),
            CProp(b, (Outcome({}, 1),)), CProp(b, (Outcome({}, 1),))))
        assert [w.weight for w in enumerate_worlds(late)] == [1]
        assert marginal(late, ILit("F", "b", 1)) == marginal(late, ILit("F", "a", 0)) == 1

    def test_conditional_raises_the_clash_enumeration_raises(self):
        # where the depth-first walk reaches a later clash than the forward
        # pass, conditional reports the walk's, warm and cold
        later = 0
        for dd in clash_twins(200):
            f = dd.signature.fluents[0]
            phi, psi = ILit(f, dd.signature.vals[f][0], 0), ILit(f, dd.signature.vals[f][-1], 1)
            try:
                enumerate_worlds(dd)
            except ConcurrentActivation as exc:
                with pytest.raises(ConcurrentActivation) as early:
                    marginal(dd, phi)
                if exc.instant == early.value.instant:
                    continue
                later += 1
                for copy in (dd, replace(dd)):
                    with pytest.raises(ConcurrentActivation) as err:
                        conditional(copy, phi, psi)
                    assert (str(err.value), err.value.instant) == (str(exc), exc.instant)
        assert later > 0

    @pytest.mark.parametrize("k", [8, 12, 50])
    def test_marginal_on_long_toss_narratives(self, k):
        # the coin tossed at instants 1..k, each with probability p = 1/2:
        # P([Coin=Heads]@k+1) = 1/2 + 1/2 (1 - 49/50 p)^k, over 3^k worlds
        dd = parse_domain(
            f"maxinst {k + 1}\nfluent Coin takes-values {{Heads, Tails}}\n"
            "action Toss\ninitially-one-of {({Coin=Heads}, 1)}\n"
            "Toss causes-one-of {({Coin=Heads}, 0.49), ({Coin=Tails}, 0.49), "
            "({}, 0.02)}\n"
            + "".join(f"Toss performed-at {i} with-prob 1/2\n" for i in range(1, k + 1)))
        p = Fraction(1, 2)
        start = time.process_time()
        value = marginal(dd, ILit("Coin", "Heads", k + 1))
        elapsed = time.process_time() - start
        assert value == Fraction(1, 2) + Fraction(1, 2) * (1 - Fraction(49, 50) * p) ** k
        assert elapsed < 1.0, f"marginal took {elapsed:.2f} s"

    @pytest.mark.parametrize("k, bound", [(16, 0.05), (50, 1.0)])
    def test_disjunction_over_every_toss_costs_polynomial_time(self, k, bound):
        # a fair coin tossed at instants 1..k, each with probability 1/2,
        # lands Tails at some instant with probability 1 - (3/4)^k; the pass
        # carries one residual per fluent state (under 5 ms at k = 16 and
        # 20 ms at k = 50 on a 2-core x86-64 VM, Python 3.11), where a bit
        # per literal gave one key per reachable mask (0.70 s at k = 14)
        dd = parse_domain(
            f"maxinst {k + 1}\nfluent Coin takes-values {{Heads, Tails}}\n"
            "action Toss\ninitially-one-of {({Coin=Heads}, 1)}\n"
            "Toss causes-one-of {({Coin=Heads}, 1/2), ({Coin=Tails}, 1/2)}\n"
            + "".join(f"Toss performed-at {i} with-prob 1/2\n" for i in range(1, k + 1)))
        phi = functools.reduce(Or, [ILit("Coin", "Tails", i) for i in range(1, k + 2)])
        start = time.process_time()
        value = marginal(dd, phi)
        elapsed = time.process_time() - start
        assert value == 1 - Fraction(3, 4) ** k
        assert elapsed < bound, f"marginal took {elapsed:.3f} s"

    def test_an_occurrence_at_every_instant_costs_linear_time(self):
        # a fair flip certain at each of 8,000 instants: the pass reads the
        # occurrences of an instant from a table built once (0.10 s on a
        # 2-core x86-64 VM, Python 3.11), where filtering every occurrence
        # at every instant took 1.4 s
        n = 8000
        dd = parse_domain(
            f"maxinst {n}\nfluent F takes-values {{On, Off}}\naction A\n"
            "initially-one-of {({F=On}, 1)}\nA causes-one-of {({F=On}, 1/2), ({F=Off}, 1/2)}\n"
            + "".join(f"A performed-at {i}\n" for i in range(n)))
        start = time.process_time()
        value = marginal(dd, ILit("F", "Off", n))
        elapsed = time.process_time() - start
        assert value == Fraction(1, 2)
        assert elapsed < 0.5, f"marginal took {elapsed:.2f} s"

    def test_a_decided_query_carries_no_growing_mass(self):
        # an uncertain occurrence at each of 10,000 instants, phi read at 10:
        # past it the pass carries mass 0, so a warm call sums rows over
        # short integers (18-20 ms on a 2-core x86-64 VM, Python 3.11, where
        # multiplying the masses on to maxinst took 92-190 ms)
        n = 10000
        dd = parse_domain(
            f"maxinst {n}\nfluent F takes-values {{a, b}}\naction A\n"
            "initially-one-of {({F=a}, 1)}\nA causes-one-of {({F=a}, 1/3), ({F=b}, 2/3)}\n"
            + "".join(f"A performed-at {i} with-prob 1/2\n" for i in range(n)))
        phi = ILit("F", "a", 10)
        assert marginal(dd, phi) == Fraction(171, 512)
        elapsed = []
        for _ in range(3):
            start = time.process_time()
            assert marginal(dd, phi) == Fraction(171, 512)
            elapsed.append(time.process_time() - start)
        assert min(elapsed) < 0.06, f"a warm marginal took {min(elapsed) * 1000:.0f} ms"

    def test_a_clash_after_the_last_read_instant_still_raises(self):
        # phi is decided at instant 0, 1 or 3; both rules fire at 3 in either
        # fluent state, and the message names the state the pass reaches first
        dd = parse_domain(
            "maxinst 5\nfluent F takes-values {a, b}\naction A1\naction A2\n"
            "initially-one-of {({F=a}, 1/3), ({F=b}, 2/3)}\n"
            "A1 causes-one-of {({F=b}, 1/2), ({F=a}, 1/2)}\nA2 causes-one-of {({F=a}, 1)}\n"
            "A1 performed-at 0 with-prob 1/2\nA1 performed-at 3 with-prob 1/3\n"
            "A2 performed-at 3 with-prob 1/2\n")
        message = "more than one causal rule is activated at instant 3 in state {A1=true, A2=true, F=b}"
        for q in ("[F=b]@1", "[F=a]@0 | [A1]@2", "[F=b]@3"):
            phi = parse_query(q, dd.signature)
            for each in (replace(dd), replace(dd), dd, dd):  # cold, then warm on dd
                with pytest.raises(ConcurrentActivation) as err:
                    marginal(each, phi)
                assert (str(err.value), err.value.instant) == (message, 3)

    def test_marginal_jumps_between_events(self):
        # the one-occurrence text of test_long_window_costs_linear_time: only
        # instants 0, 1 and 12000 hold an occurrence or a literal, and the
        # rule's body entails A, so the pass jumps from event to event
        # (0.1-0.3 ms of CPU on a 2-core x86-64 VM, Python 3.11, where
        # stepping every idle instant took 38-68 ms)
        dd = parse_domain(
            "maxinst 12000\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A causes-one-of {({F=b}, 1/2)}\nA performed-at 1\n")
        start = time.process_time()
        value = marginal(dd, And(ILit("F", "a", 0), ILit("F", "b", 12000)))
        elapsed = time.process_time() - start
        assert value == Fraction(1, 2)
        assert elapsed < 0.01, f"marginal took {elapsed * 1000:.1f} ms"

    def test_enumeration_steps_only_at_events(self):
        # only instants 1 and 10**6 are events, so the walk and the clash
        # check of conditional never visit the gaps (stepping every instant
        # took 0.76-0.82 s of CPU on a 2-core x86-64 VM, Python 3.11), and
        # the weights are read without filling in any world
        dd = parse_domain(
            "maxinst 1000000\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\nA causes-one-of {({F=b}, 1/2), ({F=a}, 1/2)}\n"
            "A performed-at 1 with-prob 1/2\n")
        phi, psi = ILit("F", "b", 1000000), ILit("A", TRUE, 1)
        for call, expected in ((lambda d: conditional(d, phi, psi), Fraction(1, 2)),
                               (lambda d: [w.weight for w in enumerate_worlds(d)],
                                [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])):
            elapsed = []
            for each in (replace(dd), replace(dd), replace(dd)):  # each cold
                start = time.process_time()
                assert call(each) == expected
                elapsed.append(time.process_time() - start)
            assert min(elapsed) < 0.05, f"a cold call took {min(elapsed):.2f} s"

    def test_a_rule_without_an_action_compiles_a_huge_window_at_once(self):
        # a domain built through the API whose rule fires with nothing
        # occurring has every instant as an event: a range, so compiling
        # its table allocates nothing per instant (a set of them raised
        # MemoryError)
        dd = parse_domain(
            "maxinst 1000000000\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\nA causes-one-of {({F=b}, 1/2), ({F=a}, 1/2)}\n")
        dd = replace(dd, cprops=(CProp(Lit("F", "a"), dd.cprops[0].head),))
        start = time.process_time()
        assert transition(dd, {"F": "a", "A": FALSE}, {"F": "b"}) == Fraction(1, 2)
        elapsed = time.process_time() - start
        assert pec.engine._compile(dd).events == range(1000000001)
        assert elapsed < 0.05, f"transition took {elapsed:.2f} s"

    def test_transitions_sum_outcomes_by_target(self, walk_pool):
        # keys (index 2) has clashing states, so its graph raises
        for dd in walk_pool[:2] + walk_pool[3:60]:
            sig = dd.signature
            graph = {(tuple(sorted(e.source.items())), e.actions,
                      tuple(sorted(e.target.items()))): e.weight
                     for e in transition_graph(dd)}
            for state in sig.total_states():
                fluents = sig.fluent_part(state)
                rule = activated_cprop(dd, state)
                heads = rule.head if rule else [Outcome({}, 1)]
                acts = tuple(a for a in sig.actions if state[a] == TRUE)
                for target in sig.total_fluent_states():
                    chosen = [o for o in heads if update(fluents, o.effect) == target]
                    weight = sum((o.weight for o in chosen), Fraction(0))
                    assert transition(dd, state, target) == weight
                    assert sorted(o.weight for o in tset(dd, state, target)) == \
                        sorted(o.weight for o in chosen)
                    key = (tuple(sorted(fluents.items())), acts,
                           tuple(sorted(target.items())))
                    if rule and weight:
                        assert graph[key] == weight


class TestCheckWorld:
    def test_w1_well_behaved(self, coin, coin_worlds):
        report = check_world(coin, coin_worlds[0])
        assert (report.cwa, report.initial, report.justified) == \
            (True, True, True)
        assert len(report.traces) == 1

    def test_w2_fails_everything(self, coin, coin_worlds):
        report = check_world(coin, coin_worlds[1])
        assert (report.cwa, report.initial, report.justified) == \
            (False, False, False)
        assert report.traces == ()

    def test_w3_two_traces(self, coin, coin_worlds):
        report = check_world(coin, coin_worlds[2])
        assert report.well_behaved()
        assert len(report.traces) == 2

    def test_agrees_with_enumeration_on_micro_domains(self):
        rng = random.Random(13)
        for _ in range(10):
            dd = micro_domain(rng)
            expected = {}
            for w in enumerate_worlds(dd):
                expected[w.world.key()] = (
                    w.weight, {canonical_trace(t) for t in w.traces})
            found = {}
            for world in all_worlds(dd.signature):
                report = check_world(dd, world)
                if report.well_behaved():
                    weight = narrative_eval(dd, world) * sum(
                        (trace_eval(t) for t in report.traces), Fraction(0))
                    found[world.key()] = (
                        weight, {canonical_trace(t) for t in report.traces})
            assert found == expected


class TestQueries:
    @pytest.mark.parametrize("query,expected", [
        ("[Coin=Heads]@2", Fraction(51, 100)),
        ("[Coin=Tails]@0", Fraction(0)),
        ("[Toss]@1", Fraction(1)),
        ("[Coin=Heads]@1 & [Coin=Tails]@3", Fraction(49, 100)),
        ("[Coin=Heads]@0", Fraction(1)),
    ])
    def test_coin_marginals(self, coin, query, expected):
        assert marginal(coin, parse_query(query, coin.signature)) == expected

    @pytest.mark.parametrize("query,expected", [
        ("[Bacteria=Weak]@0", Fraction(9, 10)),
        ("[Bacteria=Weak & Rash=Absent]@0", Fraction(0)),
        ("[Bacteria=Resistant]@2", Fraction(27, 100)),
        ("[Rash=Absent]@4", Fraction(477, 650)),
        ("[Bacteria=Absent & Rash=Absent]@4", Fraction(423, 650)),
    ])
    def test_antibiotic_marginals(self, antibiotic, query, expected):
        assert marginal(antibiotic,
                        parse_query(query, antibiotic.signature)) == expected

    def test_entails(self, coin, antibiotic):
        sig = coin.signature
        assert entails(coin, HProposition(
            parse_query("[Coin=Heads]@0", sig), Fraction(1)))
        assert not entails(coin, HProposition(
            parse_query("[Coin=Heads]@2", sig), Fraction(1, 2)))
        assert entails(antibiotic, HProposition(
            parse_query("[Bacteria=Weak]@0", antibiotic.signature),
            Fraction(9, 10)))

    def test_conditional(self, antibiotic):
        sig = antibiotic.signature
        value = conditional(antibiotic,
                            parse_query("[Bacteria=Absent]@4", sig),
                            parse_query("[Rash=Absent]@4", sig))
        assert value == Fraction(47, 53)

    def test_conditional_on_tautology_is_marginal(self, coin):
        sig = coin.signature
        phi = parse_query("[Coin=Tails]@3", coin.signature)
        tautology = parse_query("[Coin=Heads]@0 | ![Coin=Heads]@0", sig)
        assert conditional(coin, phi, tautology) == marginal(coin, phi)

    def test_conditional_brute_force(self, coin):
        sig = coin.signature
        phi = parse_query("[Coin=Tails]@3", sig)
        psi = parse_query("[Coin=Heads]@2", sig)
        worlds = enumerate_worlds(coin)
        num = sum((w.weight for w in worlds
                   if w.world.satisfies(And(phi, psi))), Fraction(0))
        den = sum((w.weight for w in worlds
                   if w.world.satisfies(psi)), Fraction(0))
        assert conditional(coin, phi, psi) == num / den

    def test_one_fold_per_distinct_valuation(self, monkeypatch):
        # six uncertain tosses give 729 worlds; both probabilities come from
        # the forward pass, so conditional folds no formula over worlds
        dd = parse_domain(
            "maxinst 7\nfluent Coin takes-values {Heads, Tails}\n"
            "action Toss\ninitially-one-of {({Coin=Heads}, 1)}\n"
            "Toss causes-one-of {({Coin=Heads}, 0.49), ({Coin=Tails}, 0.49), ({}, 0.02)}\n"
            + "".join(f"Toss performed-at {i} with-prob 1/2\n" for i in range(1, 7)))
        phi = parse_query("[Coin=Heads]@7 | [Toss]@3 & [Coin=Tails]@5", dd.signature)
        psi = parse_query("[Coin=Tails]@4 -> [Toss]@2 | ![Coin=Heads]@6", dd.signature)
        worlds = enumerate_worlds(dd)
        assert len(worlds) == 729
        given = [w for w in worlds if w.world.satisfies(psi)]
        expected = sum(w.weight for w in given if w.world.satisfies(phi)) / sum(
            w.weight for w in given)
        calls, counted = [], pec.engine.satisfies
        monkeypatch.setattr(pec.engine, "satisfies",
                            lambda states, f: calls.append(f) or counted(states, f))
        assert conditional(dd, phi, psi) == expected
        assert calls == []

    def test_condition_zero(self, coin):
        sig = coin.signature
        with pytest.raises(ConditionZero):
            conditional(coin, parse_query("[Coin=Heads]@1", sig),
                        parse_query("[Coin=Tails]@0", sig))

    def test_deep_alternating_query(self, coin):
        # evaluated without recursion, at the default recursion limit
        phi = alternating(ILit("Coin", "Heads", 2), ILit("Coin", "Tails", 0), 1000)
        assert marginal(coin, phi) == Fraction(51, 100)

    def test_marginal_rejects_out_of_window_instants(self, coin):
        from pec import RangeError
        with pytest.raises(RangeError):
            marginal(coin, ILit("Coin", "Heads", 9))

    def test_window_checked_before_any_world(self):
        # the first draw of this domain clashes: marginal and conditional
        # check the window before enumerating, the sampler only when
        # satisfies reaches the literal, after the draw
        dd = replace(CLASH, pprops=(PProp("A1", 0, Fraction(1)),
                                    PProp("A2", 0, Fraction(1))))
        early = ILit("F", "a", -1)
        with pytest.raises(RangeError, match=r"^instant -1 outside the window 0\.\.2$"):
            marginal(dd, early)
        with pytest.raises(RangeError, match="instant 3 outside"):
            conditional(dd, ILit("F", "a", 3), early)
        with pytest.raises(ConcurrentActivation) as err:
            sample_frequency(dd, early, 10, 1)
        assert str(err.value) == ("more than one causal rule is activated at "
                                  "instant 0 in state {A1=true, A2=true, F=a}")

    def test_sampler_reports_the_leftmost_bad_literal(self, coin):
        # satisfies checks each literal as its fold reaches it
        late, unknown = ILit("Coin", "Heads", 4), ILit("Nope", "x", 1)
        with pytest.raises(SignatureError, match="state does not assign 'Nope'"):
            sample_frequency(coin, And(unknown, late), 10, 1)
        with pytest.raises(RangeError, match="instant -1 outside"):
            sample_frequency(coin, And(ILit("Coin", "Heads", -1), late), 10, 1)
        with pytest.raises(RangeError, match="instant 4 outside"):
            marginal(coin, And(unknown, late))

    # what the validator refuses in a parsed narrative every walker refuses
    # in an API-built one, and stores no table; maxinst, which no parsed
    # occurrence can name, is an instant like any other (see late_pool)
    @pytest.mark.parametrize("extra,error,message", [
        ((PProp("Nope", 1, Fraction(1)),), SignatureError, "unknown action Nope"),
        ((PProp("Toss", -1, Fraction(1)),), RangeError, "instant -1 outside the window 0..3"),
        ((PProp("Toss", 5, Fraction(1, 2)),), RangeError, "instant 5 outside the window 0..3"),
        ((PProp("Toss", 2, Fraction(1, 2)),) * 2, PecError,
         "duplicate occurrence of Toss at instant 2"),
        ((PProp("Toss", 1, Fraction(1, 2)),), PecError,
         "duplicate occurrence of Toss at instant 1"),
        ((PProp("Toss", 2, Fraction(3, 2)),), PecError,
         "occurrence probability 3/2 outside (0,1]"),
        ((PProp("Toss", 2, Fraction(0)),), PecError, "occurrence probability 0 outside (0,1]"),
    ], ids=["action", "before", "after", "twice", "again", "above", "zero"])
    def test_a_narrative_off_the_schedule_is_refused(self, coin, extra, error, message):
        phi, psi = ILit("Coin", "Heads", 3), ILit("Toss", TRUE, 1)
        walkers = [lambda d: marginal(d, phi), lambda d: conditional(d, phi, psi),
                   enumerate_worlds, lambda d: sample_frequency(d, phi, 10, 1),
                   lambda d: sample_world(d, 1), transition_graph]
        warm = replace(coin, pprops=coin.pprops + extra)  # met by each walker after the last
        for walker in walkers:
            for dd in (replace(coin, pprops=coin.pprops + extra), warm):
                with pytest.raises(PecError) as err:
                    walker(dd)
                assert (type(err.value), str(err.value)) == (error, message)
                assert "_table" not in vars(dd)


class TestTransitions:
    def test_tset_merging_targets(self, antibiotic):
        state = {"Rash": "Absent", "Bacteria": "Weak", "TakesMedicine": TRUE}
        target = {"Rash": "Absent", "Bacteria": "Resistant"}
        outcomes = tset(antibiotic, state, target)
        assert sorted(o.weight for o in outcomes) == \
            [Fraction(1, 10), Fraction(1, 5)]
        assert transition(antibiotic, state, target) == Fraction(3, 10)

    def test_tset_identity(self, coin):
        state = {"Coin": "Heads", "Toss": FALSE}
        outcomes = tset(coin, state, {"Coin": "Heads"})
        assert len(outcomes) == 1
        assert outcomes[0].effect == {} and outcomes[0].weight == 1

    def test_tset_unreachable(self, coin):
        assert tset(coin, {"Coin": "Heads", "Toss": FALSE},
                    {"Coin": "Tails"}) == []

    @pytest.mark.parametrize("source,target,expected", [
        ("Heads", "Heads", Fraction(51, 100)),
        ("Heads", "Tails", Fraction(49, 100)),
        ("Tails", "Heads", Fraction(49, 100)),
    ])
    def test_coin_transitions(self, coin, source, target, expected):
        state = {"Coin": source, "Toss": TRUE}
        assert transition(coin, state, {"Coin": target}) == expected

    def test_antibiotic_rare_recovery(self, antibiotic):
        state = {"Rash": "Present", "Bacteria": "Resistant",
                 "TakesMedicine": TRUE}
        assert transition(antibiotic, state,
                          {"Rash": "Absent", "Bacteria": "Absent"}) == \
            Fraction(1, 13)

    def test_rows_sum_to_one(self, coin, antibiotic, keys):
        for dd in (coin, antibiotic):
            targets = list(dd.signature.total_fluent_states())
            for state in dd.signature.total_states():
                assert sum((transition(dd, state, t) for t in targets),
                           Fraction(0)) == 1

    def test_coin_graph(self, coin):
        edges = {(e.source["Coin"], e.actions, e.target["Coin"], e.weight)
                 for e in transition_graph(coin)}
        assert edges == {
            ("Heads", ("Toss",), "Heads", Fraction(51, 100)),
            ("Heads", ("Toss",), "Tails", Fraction(49, 100)),
            ("Tails", ("Toss",), "Tails", Fraction(51, 100)),
            ("Tails", ("Toss",), "Heads", Fraction(49, 100)),
        }

    def test_antibiotic_graph(self, antibiotic):
        edges = transition_graph(antibiotic)
        assert len(edges) == 10
        nodes = {tuple(sorted(e.source.items())) for e in edges} | \
                {tuple(sorted(e.target.items())) for e in edges}
        assert len(nodes) == 5
        # the rash-present / bacteria-absent state is inert and stays out
        assert (("Bacteria", "Absent"), ("Rash", "Present")) not in nodes

    def test_actionless_domain_has_empty_graph(self):
        dd = parse_domain("maxinst 1\nfluent F takes-values {a, b}\n"
                          "initially-one-of {({F=a}, 1)}\n")
        assert transition_graph(dd) == []


class TestRestriction:
    def test_truncating_recovers_original(self, coin):
        extended = replace(
            coin, pprops=coin.pprops + (PProp("Toss", 2, Fraction(1)),))
        assert restrict(extended, "lt", 2) == coin

    def test_empty(self, antibiotic):
        assert restrict(antibiotic, "empty").pprops == ()

    def test_leq_drops_later_treatment(self, antibiotic):
        kept = restrict(antibiotic, "leq", 1).pprops
        assert [p.instant for p in kept] == [1]

    def test_second_toss_world_has_two_traces(self, coin):
        # tossing again at instant 2: the world that stays heads and then
        # flips has exactly two histories, both choosing tails at 2
        extended = replace(
            coin, pprops=coin.pprops + (PProp("Toss", 2, Fraction(1)),))
        target = None
        for w in enumerate_worlds(extended):
            flu = [w.world.fluent_state(i)["Coin"] for i in range(4)]
            if flu == ["Heads", "Heads", "Heads", "Tails"]:
                target = w
        assert target is not None
        assert target.weight == Fraction(2499, 10000)  # 0.51 * 0.49
        assert len(target.traces) == 2
        assert all(tr.effects[2].effect == {"Coin": "Tails"}
                   for tr in target.traces)
        assert sorted(tr.effects[1].effect.get("Coin", "none")
                      for tr in target.traces) == ["Heads", "none"]
        # the truncated domain's unique indistinguishable-up-to-2 world
        # is the heads-everywhere one
        matches = [rw for rw in enumerate_worlds(restrict(extended, "lt", 2))
                   if indistinguishable_up_to(target.world, rw.world, 2)]
        assert len(matches) == 1
        assert matches[0].world.fluent_state(3) == {"Coin": "Heads"}

    @pytest.mark.parametrize("mode,instant,message", [
        ("before", 2, "mode must be 'leq', 'lt' or 'empty', not 'before'"),
        ("lt", None, "mode 'lt' needs an instant"),
    ])
    def test_bad_arguments(self, coin, mode, instant, message):
        with pytest.raises(ValueError) as err:
            restrict(coin, mode, instant)
        assert str(err.value) == message

    def test_actions_before_the_instant_distinguish(self, coin):
        tossed = coin_world(coin.signature, ("Heads", True), ("Heads", False))
        idle = coin_world(coin.signature, ("Heads", False), ("Heads", False))
        assert indistinguishable_up_to(tossed, idle, 0)
        assert not indistinguishable_up_to(tossed, idle, 1)

    def test_indistinguishability(self, coin, coin_worlds):
        w1, w2, w3 = coin_worlds
        w_prime = coin_world(coin.signature, ("Heads", False), ("Heads", True),
                             ("Heads", True), ("Tails", False))
        assert indistinguishable_up_to(w_prime, w3, 2)
        assert not indistinguishable_up_to(w_prime, w3, 3)
        assert indistinguishable_up_to(w1, w1, 3)
        assert not indistinguishable_up_to(w1, w2, 0)


class TestSampling:
    def test_seed_determinism(self, antibiotic):
        assert sample_world(antibiotic, 42) == sample_world(antibiotic, 42)

    def test_worlds_hash_by_their_states(self, coin):
        assert len({w.world for w in enumerate_worlds(coin)}) == 2
        first, again = sample_world(coin, 1), sample_world(coin, 1)
        assert first == again and first is not again
        assert hash(first) == hash(again) == hash(first.key())

    def test_silent_domain_samples_constant_world(self, antibiotic):
        world = sample_world(restrict(antibiotic, "empty"), 3)
        first = world.fluent_state(0)
        assert all(world.fluent_state(i) == first for i in range(1, 5))

    def test_frequency_approaches_marginal(self, coin):
        phi = parse_query("[Coin=Heads]@2", coin.signature)
        freq = sample_frequency(coin, phi, 20000, 7)
        assert abs(freq - Fraction(51, 100)) < Fraction(2, 100)

    # pinned, so the seeded stream (one draw per uncertain occurrence, per
    # initial choice and per step with more than one target) cannot move
    # unnoticed
    def test_seeded_frequencies_pinned(self, coin, antibiotic):
        heads = parse_query("[Coin=Heads]@2", coin.signature)
        assert sample_frequency(coin, heads, 2000, 9) == Fraction(1041, 2000)
        cured = parse_query("[Bacteria=Absent]@4", antibiotic.signature)
        assert sample_frequency(antibiotic, cured, 2000, 9) == Fraction(1517, 2000)

    def test_seeded_world_pinned(self, antibiotic):
        world = sample_world(antibiotic, 42)
        assert [(world.fluent_state(i)["Bacteria"], world.fluent_state(i)["Rash"])
                for i in range(5)] == [("Weak", "Present")] * 2 + [("Absent", "Absent")] * 3

    def test_samples_are_enumerated_worlds(self, walk_pool):
        for dd in walk_pool:
            weights = {w.world.key(): w.weight for w in enumerate_worlds(dd)}
            for seed in range(20):
                assert weights.get(sample_world(dd, seed).key(), 0) > 0

    def test_samples_match_the_exact_reference(self, walk_pool, late_pool):
        for dd in walk_pool + late_pool:
            for seed in range(20):
                assert sample_world(dd, seed) == reference_sample(dd, random.Random(seed))

    # one stream across all draws of a call: a sampler that drew out of
    # order between samples, or carried state wrongly from one to the next,
    # would part from the reference here though each world alone agrees
    def test_frequencies_match_the_reference_over_one_stream(self, walk_pool, late_pool):
        rng = random.Random(17)
        for dd in walk_pool + late_pool:
            sig = dd.signature
            single = at_instant(random_formula(rng, sig), rng.randint(0, sig.maxinst))
            for phi in (single, random_iformula(rng, sig)):
                seed, count = rng.randrange(2**31), rng.randint(1, 40)
                stream = random.Random(seed)
                hits = sum(reference_sample(dd, stream).satisfies(phi) for _ in range(count))
                assert sample_frequency(dd, phi, count, seed) == Fraction(hits, count)

    # the verdict memoised per node tuple must be the fold of phi on every
    # draw, over multi-instant queries with !, -> and action literals too,
    # also once the memo is full
    @pytest.mark.parametrize("kept", [pec.engine._VERDICTS, 1])
    def test_frequency_equals_a_fold_per_draw(self, walk_pool, kept, monkeypatch):
        monkeypatch.setattr(pec.engine, "_VERDICTS", kept)
        rng = random.Random(23)
        shipped = [  # walk_pool starts with coin, antibiotic and keys
            ["[Coin=Heads]@2", "[Toss]@1 -> ![Coin=Heads]@3 | [Coin=Tails]@2"],
            ["[Bacteria=Resistant]@2 | [Rash=Absent]@4",
             "![TakesMedicine]@1 -> ([Bacteria=Absent]@4 & ![Rash=Present]@3)"],
            ["[LockedOut]@3", "[PickupKeys]@1 -> ([LockedOut]@3 | ![HasKeys]@2)"]]
        for k, dd in enumerate(walk_pool):
            sig = dd.signature
            single = at_instant(random_formula(rng, sig), rng.randint(0, sig.maxinst))
            queries = [parse_query(q, sig) for q in shipped[k]] if k < len(shipped) else []
            for phi in queries + [single, random_iformula(rng, sig), covering_iformula(rng, sig)]:
                seed, count = rng.randrange(2**31), 500 if phi in queries else rng.randint(1, 60)
                stream = random.Random(seed)
                hits = sum(reference_sample(dd, stream).satisfies(phi) for _ in range(count))
                assert sample_frequency(dd, phi, count, seed) == Fraction(hits, count)

    def test_one_fold_per_distinct_node_tuple(self, coin, monkeypatch):
        phi = parse_query("[Coin=Heads]@2", coin.signature)
        expected, calls = sample_frequency(coin, phi, 10000, 7), []
        fold = pec.engine.satisfies
        monkeypatch.setattr(pec.engine, "satisfies",
                            lambda states, phi, last=None: calls.append(phi) or fold(
                                states, phi, last))
        assert sample_frequency(coin, phi, 10000, 7) == expected
        assert 1 <= len(calls) <= 2  # coin reaches instant 2 as Heads or as Tails

    # every rule body entails an action, so no rule fires where nothing
    # occurs: a draw steps its node only at the occurrences and the
    # instants read, never in the gaps between them nor out of maxinst
    def test_a_draw_steps_only_at_its_stops(self, monkeypatch):
        dd = load_domain("coin.pec")  # its table starts cold
        stepped, step = set(), pec.engine._Table.step
        monkeypatch.setattr(pec.engine._Table, "step", lambda table, fid, node, i: (
            stepped.add(i) or step(table, fid, node, i)))
        phi = parse_query("[Coin=Heads]@2", dd.signature)
        assert sample_frequency(dd, phi, 1000, 7) == Fraction(524, 1000)
        assert stepped == {1, 2}  # the toss at 1, the read at 2

    # the sampler's float cuts are exact only because random() draws from
    # the lattice k / 2**53; a Python whose random() left it would fail here
    def test_random_draws_lie_on_the_lattice(self):
        for seed in (0, 1, 7, 2**40):
            rng = random.Random(seed)
            for _ in range(2500):
                k = rng.random() * 2**53
                assert k.is_integer() and 0 <= k < 2**53

    def test_cut_is_exact(self):
        rng = random.Random(11)
        xs = [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(1, 2**53),
              Fraction(2**53 - 1, 2**53)]
        for _ in range(3000):
            d = rng.choice([rng.randint(1, 100), rng.randint(2**53, 2**80),
                            2**rng.randint(0, 60)])
            xs.append(Fraction(rng.randint(1, d), d))
        for x in xs:
            threshold = -(-x.numerator * 2**53 // x.denominator)
            for k in (threshold - 1, threshold, threshold + 1):
                assert (k / 2**53 < _cut(x.numerator, x.denominator)) == (
                    Fraction(k, 2**53) < x), (x, k)

    def test_positive_count_required(self, coin):
        phi = parse_query("[Coin=Heads]@2", coin.signature)
        with pytest.raises(ValueError):
            sample_frequency(coin, phi, 0, 1)


def outcome(call):
    """What a call returns, or the message, instant and state of its clash."""
    try:
        return repr(call())
    except ConcurrentActivation as exc:
        return str(exc), exc.instant, sorted(exc.state.items())


class TestStepTable:
    """One compiled step table serves every call on a domain while it lives."""

    @pytest.mark.parametrize("name", ["coin.pec", "antibiotic.pec", "keys.pec"])
    def test_mutated_results_leave_the_table_alone(self, name):
        dd, cold = load_domain(name), load_domain(name)
        f = dd.signature.fluents[0]
        phi = ILit(f, dd.signature.vals[f][-1], dd.signature.maxinst)
        calls = [transition_graph, enumerate_worlds, lambda d: marginal(d, phi),
                 lambda d: sample_world(d, 5), lambda d: sample_frequency(d, phi, 50, 5)]
        expected = [outcome(lambda: call(cold)) for call in calls]
        handed_out = [s for w in enumerate_worlds(dd) for s in w.world.states]
        handed_out += sample_world(dd, 5).states
        with contextlib.suppress(ConcurrentActivation):  # keys clashes off its narrative
            handed_out += [s for e in transition_graph(dd) for s in (e.source, e.target)]
        for state in handed_out:
            for key in state:
                state[key] = "XXX"  # the records are frozen, their dicts are not
        assert [outcome(lambda: call(dd)) for call in calls] == expected

    def test_mutated_worlds_change_no_later_answer(self, walk_pool):
        rng = random.Random(31)
        for dd in walk_pool:
            phi, psi = (random_iformula(rng, dd.signature) for _ in range(2))
            calls = [enumerate_worlds, lambda d: marginal(d, phi),
                     lambda d: conditional(d, phi, psi), lambda d: sample_world(d, 7)]
            before = [repr(result_of(lambda: call(dd))) for call in calls]
            handed_out = [s for w in enumerate_worlds(dd) for s in w.world.states]
            for state in handed_out + list(sample_world(dd, 7).states):
                for key in state:
                    state[key] = "XXX"  # a node dict handed out would change the table
            assert [repr(result_of(lambda: call(dd))) for call in calls] == before

    def test_domain_is_not_kept_alive(self):
        dd = load_domain("antibiotic.pec")
        phi = parse_query("[Bacteria=Absent]@4", dd.signature)
        marginal(dd, phi)
        conditional(dd, phi, phi)
        sample_frequency(dd, phi, 10, 1)
        transition_graph(dd)
        ref, table = weakref.ref(dd), weakref.ref(pec.engine._compile(dd))
        del dd
        gc.collect()
        assert ref() is None
        assert table() is None  # the table dies with its domain

    @pytest.mark.parametrize("name", ["coin.pec", "antibiotic.pec", "keys.pec"])
    def test_pickled_and_copied_domains_start_cold(self, name):
        dd = load_domain(name)
        f = dd.signature.fluents[-1]
        phi = ILit(f, dd.signature.vals[f][0], dd.signature.maxinst)
        psi = ILit(f, dd.signature.vals[f][-1], 1)
        calls = [lambda d: marginal(d, phi), lambda d: conditional(d, phi, psi),
                 lambda d: sample_frequency(d, phi, 50, 3), transition_graph]
        expected = [answer(lambda: call(dd)) for call in calls]  # fills dd's table
        table = pec.engine._compile(dd)
        assert table.queries and len(table.fluents) > 1
        twins = [pickle.loads(pickle.dumps(dd, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
        for again in twins + [copy.copy(dd), copy.deepcopy(dd)]:
            assert again == dd and again is not dd
            assert [answer(lambda: call(again)) for call in calls] == expected
            assert pec.engine._compile(again) is not table
            assert pec.engine._compile(dd) is table
        for w in enumerate_worlds(dd):
            traces = w.traces
            for again in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
                assert "traces" not in again.__dict__  # built again on first read
                assert again == w and again.traces == traces

    def test_warm_table_activates_nothing(self, monkeypatch):
        dd = load_domain("antibiotic.pec")
        phi = parse_query("[Bacteria=Absent]@4 | [Rash=Present]@2", dd.signature)
        first = marginal(dd, phi), sample_frequency(dd, phi, 200, 4)
        calls = []
        counted = pec.engine.activated_cprop
        monkeypatch.setattr(pec.engine, "activated_cprop",
                            lambda *args: calls.append(args) or counted(*args))
        assert (marginal(dd, phi), sample_frequency(dd, phi, 200, 4)) == first
        assert calls == []
        marginal(replace(dd), phi)  # an equal copy starts cold, and is counted
        assert calls

    def test_concurrent_calls_on_a_cold_domain(self):
        # four threads fill one cold table at once, the interpreter switching
        # between them as often as it can, and every result must equal the
        # serial result on an equal cold copy.  A counter reaches 34 fluent
        # states, so ids are assigned while other threads read them; with
        # the id lock removed, most rounds part from serial.
        k = 16
        counts = ", ".join(f"n{j}" for j in range(k + 1))
        text = (f"maxinst {k}\nfluent N takes-values {{{counts}}}\n"
                "fluent S takes-values {up, down}\naction Tick\n"
                "initially-one-of {({N=n0, S=up}, 1)}\n"
                + "".join(f"Tick & N=n{j} causes-one-of {{({{N=n{j + 1}, S=up}}, 1/2), "
                          f"({{S=down}}, 1/2)}}\n" for j in range(k))
                + "".join(f"Tick performed-at {i} with-prob 3/4\n" for i in range(k)))
        serial = parse_domain(text)
        queries = [parse_query(q, serial.signature) for q in (
            f"[N=n8]@{k}", "[S=down]@5 -> [N=n3]@9", "[Tick]@4 & [N=n6]@12")]
        calls = [functools.partial(marginal, phi=phi) for phi in queries] + [
            functools.partial(sample_frequency, phi=phi, count=300, seed=seed)
            for seed, phi in enumerate(queries)]
        expected = [call(serial) for call in calls]
        interval = sys.getswitchinterval()
        for _ in range(4):
            dd, results, barrier = parse_domain(text), [None] * 4, threading.Barrier(4, timeout=60)

            def run(t):
                barrier.wait()
                results[t] = [call(dd) for call in calls[t:] + calls[:t]]

            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected[t:] + expected[:t] for t in range(4)]

    def test_clashes_raise_alike_on_a_warm_table(self):
        raised = 0
        for dd in clash_twins(200):
            f = dd.signature.fluents[0]
            phi = ILit(f, dd.signature.vals[f][0], 0)
            calls = [lambda d: marginal(d, phi), enumerate_worlds,
                     lambda d: sample_world(d, 3), lambda d: sample_frequency(d, phi, 50, 3)]
            # an equal copy has its own table, cold at its first call
            first = [outcome(lambda: call(replace(dd))) for call in calls]
            for call, expected in zip(calls * 2, first * 2):
                assert outcome(lambda: call(dd)) == expected
            raised += isinstance(first[1], tuple)
        assert raised > 20


# The digests below were computed with the engine whose forward pass built
# a total-state dict per key and keyed its step table by those dicts, before
# the pass, the enumerator and the sampler walked interned node ids.  They
# pin every value, world, weight and trace, every clash (message, instant
# and state) and every seeded count, so any change to what the interned walk
# computes, or to the random stream, moves them.
PARITY_DIGEST = "842cfd75f059318e2c079e57f8278f0d93f88a7bdfca7d8dfd4ba489c878a1af"
WORLDS_DIGEST = "9aa7d60a6eb1ce79ea789d21aed8edb9654028c5e426d11fa40cc2571739be15"


def test_outcomes_match_the_dict_keyed_pass(walk_pool):
    rng = random.Random(21)
    long = {"max_maxinst": 30, "max_pprops": 5}
    long_windows = [random_domain(rng, **long) for _ in range(40)] + clash_twins(40, **long)
    lines = []
    for dd in walk_pool + clash_twins(200) + long_windows:
        sig = dd.signature
        for _ in range(3):
            phi = random_iformula(rng, sig)
            lines.append(outcome(lambda: marginal(dd, phi)))
        phi, seed = random_iformula(rng, sig), rng.randrange(2**31)
        lines.append(outcome(lambda: sample_frequency(dd, phi, 40, seed)))
    digest = hashlib.sha256(repr(lines).encode()).hexdigest()
    assert digest == PARITY_DIGEST


def test_worlds_match_the_dict_keyed_walk(walk_pool):
    rng = random.Random(22)
    long = {"max_maxinst": 8, "max_pprops": 4}
    pool = walk_pool + clash_twins(200) + [random_domain(rng, **long) for _ in range(30)]
    lines = [outcome(lambda: [(w.world.key(), w.weight, [canonical_trace(t) for t in w.traces])
                              for w in enumerate_worlds(dd)])
             for dd in pool + clash_twins(30, **long)]
    digest = hashlib.sha256(repr(lines).encode()).hexdigest()
    assert digest == WORLDS_DIGEST


def answer(call):
    """What a call returns, or the kind and message of the error it raises."""
    try:
        return repr(call())
    except PecError as exc:
        return type(exc).__name__, str(exc)


# Computed with the conditional that summed the weights of the worlds
# core.satisfier accepted, one Fraction add per world: it pins every value
# and every error, and which one comes first, over the 203-domain acceptance
# pool, the 50 micro domains and 40 clash twins, for random phi and psi with
# action literals, zero-probability psi, unknown symbols and bad instants.
CONDITIONAL_DIGEST = "122984bd8ae35614e750c6ada03812c6d6460d27269062a182cea302ba089b48"


def test_conditionals_match_the_sums_over_accepted_worlds(coin, antibiotic, keys):
    pool, micro = random.Random(20240501), random.Random(4242)
    domains = [coin, antibiotic, keys] + [random_domain(pool) for _ in range(200)]
    domains += [micro_domain(micro) for _ in range(50)] + clash_twins(40)
    rng, lines = random.Random(26), []
    for dd in domains:
        sig = dd.signature
        f = rng.choice(sig.fluents)
        late, unknown = ILit(f, sig.vals[f][0], sig.maxinst + 1), ILit("Nope", "x", 0)
        pairs = [(random_iformula(rng, sig), random_iformula(rng, sig)) for _ in range(3)]
        phi, psi = covering_iformula(rng, sig), covering_iformula(rng, sig)
        pairs += [(phi, psi), (phi, And(psi, Not(psi))), (And(phi, unknown), psi),
                  (phi, Or(psi, unknown)), (phi, Or(psi, late)), (late, unknown)]
        lines += [answer(lambda: conditional(dd, phi, psi)) for phi, psi in pairs]
    kinds = collections.Counter(line[0] if type(line) is tuple else "value" for line in lines)
    assert min(kinds.values()) > 20 and len(kinds) == 5, kinds
    assert hashlib.sha256(repr(lines).encode()).hexdigest() == CONDITIONAL_DIGEST


@pytest.fixture(scope="module")
def query_pool(coin, antibiotic, keys):
    """The 203-domain acceptance pool and the 50 micro domains."""
    pool, micro = random.Random(20240501), random.Random(4242)
    return ([coin, antibiotic, keys] + [random_domain(pool) for _ in range(200)]
            + [micro_domain(micro) for _ in range(50)])


# Computed with the engine that compiled a query afresh on every call: it
# pins every value and every error of the warm-query test below.
ANSWERS_DIGEST = "b4ac26133814e67176371104a14275afbfda9a9c9fcaa49eefa248d76f6bd94b"


class TestCompiledQueries:
    """A domain's table keeps each query's compiled form, up to _QUERIES."""

    def test_a_warm_query_equals_a_cold_one(self, query_pool, monkeypatch):
        compiled, progression = [], pec.engine.progression
        monkeypatch.setattr(pec.engine, "progression",
                            lambda *args: compiled.append(args) or progression(*args))
        rng, lines = random.Random(27), []
        for dd in map(replace, query_pool + clash_twins(40)):  # each copy starts cold
            sig, table = dd.signature, pec.engine._compile(dd)
            f = rng.choice(sig.fluents)
            late, unknown = ILit(f, sig.vals[f][0], sig.maxinst + 1), ILit("Nope", "x", 0)
            phi, psi = random_iformula(rng, sig), covering_iformula(rng, sig)
            for q in (phi, psi, Or(phi, late), And(psi, unknown)):
                first = answer(lambda: marginal(dd, q))
                compiled.clear()
                assert answer(lambda: marginal(dd, q)) == first
                # an out-of-window query is never stored, so it compiles again
                assert len(compiled) == (first[0] == "RangeError") == (q not in table.queries)
                assert answer(lambda: marginal(replace(dd), q)) == first
                lines.append(first)
            for q, given in ((phi, psi), (psi, phi), (phi, And(psi, unknown)), (late, phi)):
                first = answer(lambda: conditional(dd, q, given))
                assert answer(lambda: conditional(dd, q, given)) == first
                assert answer(lambda: conditional(replace(dd), q, given)) == first
                lines.append(first)
        kinds = collections.Counter(line[0] if type(line) is tuple else "value" for line in lines)
        assert min(kinds.values()) > 20 and len(kinds) == 5, kinds
        assert hashlib.sha256(repr(lines).encode()).hexdigest() == ANSWERS_DIGEST

    def test_equal_stop_lists_are_one_tuple(self, coin):
        # coin's events are its occurrence at 1 and maxinst 3: a query that
        # reads only those instants steps at the events themselves, and any
        # other gets its own sorted tuple
        dd = replace(coin)
        table, sig = pec.engine._compile(dd), dd.signature
        phi, psi = (parse_query(q, sig) for q in ("[Coin=Heads]@3", "[Toss]@1 & ![Coin=Tails]@3"))
        conditional(dd, phi, psi)  # compiles phi, psi and phi & psi
        first, second = (parse_query(q, sig)
                         for q in ("[Coin=Heads]@2", "[Coin=Tails]@0 | [Coin=Tails]@2"))
        marginal(dd, first), marginal(dd, second)
        stops = {q: table.queries[q][2] for q in (phi, psi, And(phi, psi), first, second)}
        assert table.events == (1, 3) and "stops" not in vars(table)
        assert stops[phi] is stops[psi] is stops[And(phi, psi)] is table.events
        assert stops[first] == (1, 2, 3) and stops[second] == (0, 1, 2, 3)
        assert stops[first] is not stops[second]

    @pytest.mark.parametrize("kept", [pec.engine._QUERIES, 2])
    def test_the_memo_stays_at_its_limit(self, antibiotic, kept, monkeypatch):
        monkeypatch.setattr(pec.engine, "_QUERIES", kept)
        dd, rng, queries = replace(antibiotic), random.Random(28), {}
        while len(queries) < kept + 20:
            queries.setdefault(random_iformula(rng, dd.signature))
        table = pec.engine._compile(dd)
        for _ in range(2):  # past the limit a query is compiled, answered and dropped
            for phi in queries:
                assert marginal(dd, phi) == marginal(replace(dd), phi)
            assert list(table.queries) == list(queries)[:kept]


# P(phi) + P(!phi) = 1 and P(phi | psi) P(psi) = P(phi & psi), each pair
# asked twice so that the second answer comes from the warm table
def test_complement_and_product_relations(query_pool):
    rng = random.Random(29)
    for dd in query_pool:
        sig = dd.signature
        for phi, psi in [(random_iformula(rng, sig), random_iformula(rng, sig)),
                         (covering_iformula(rng, sig), random_iformula(rng, sig))]:
            for _ in range(2):
                assert marginal(dd, phi) + marginal(dd, Not(phi)) == 1
                if (p_psi := marginal(dd, psi)) == 0:
                    with pytest.raises(ConditionZero):
                        conditional(dd, phi, psi)
                else:
                    assert conditional(dd, phi, psi) * p_psi == marginal(dd, And(phi, psi))


def disjoint_union(a, b):
    """A ⊎ B of two random domains, with A and B as the union keeps them:
    B's symbols renamed apart, only A's occurrences at even instants and
    B's at odd ones (every rule body reads an action, so no rule of one
    fires where a rule of the other does), the initial outcomes multiplied
    and the larger ``maxinst``."""
    b = parse_domain(re.sub(r"\b([FA]\d+)\b", r"B\1", render(b)))
    a, b = (replace(dd, pprops=tuple(p for p in dd.pprops if p.instant % 2 == odd))
            for dd, odd in ((a, 0), (b, 1)))
    sa, sb = a.signature, b.signature
    union = replace(
        a, signature=DomainSignature(sa.fluents + sb.fluents, sa.actions + sb.actions,
                                     {**sa.vals, **sb.vals}, max(sa.maxinst, sb.maxinst)),
        vprops=a.vprops + b.vprops, cprops=a.cprops + b.cprops, pprops=a.pprops + b.pprops,
        iprop=IProp(tuple(Outcome({**x.effect, **y.effect}, x.weight * y.weight)
                          for x in a.iprop.head for y in b.iprop.head)))
    return parse_domain(render(union)), a, b  # the union is a valid domain


# P_A⊎B(phi_A & phi_B) = P_A(phi_A) P_B(phi_B) when A and B share no symbol
# and their rules never fire at one instant; each asked twice, warm the second
def test_a_disjoint_union_multiplies_marginals(query_pool):
    rng, shares = random.Random(39), collections.Counter()
    pool = query_pool[3:]  # the random and micro domains, whose symbols are F1.. and A1..
    for left, right in zip(pool[::2], pool[1::2]):
        union, a, b = disjoint_union(left, right)
        for phi_a, phi_b in [(random_iformula(rng, a.signature), random_iformula(rng, b.signature)),
                             (covering_iformula(rng, a.signature), covering_iformula(rng, b.signature))]:
            p_a, p_b = marginal(a, phi_a), marginal(b, phi_b)
            for _ in range(2):
                assert marginal(union, And(phi_a, phi_b)) == p_a * p_b
            shares[0 < p_a < 1, 0 < p_b < 1] += 1
    assert len(shares) == 4 and min(shares.values()) > 15, shares


def rows_of(table):
    """How many rows the forward pass keeps over all of a table's queries."""
    return sum(len(memo) for *_, rows in table.queries.values() for memo in rows.values())


class TestRows:
    """The forward pass sums each (fluent state, residual) key's row once
    per slot, and a warm marginal only adds rows up."""

    def test_a_warm_marginal_steps_nothing(self, query_pool, monkeypatch):
        calls, progression = collections.Counter(), pec.engine.progression

        def counted(name, fn):
            return lambda *args: calls.update([name]) or fn(*args)

        def counted_progression(phi, maxinst):
            at, step = progression(phi, maxinst)
            return at, counted("progress", step)

        monkeypatch.setattr(pec.engine, "progression", counted_progression)
        for name in ("step", "node"):
            monkeypatch.setattr(pec.engine._Table, name, counted(name, getattr(pec.engine._Table, name)))
        rng, cold = random.Random(32), collections.Counter()
        for dd in map(replace, query_pool):  # each copy starts cold
            sig = dd.signature
            for phi in (random_iformula(rng, sig), covering_iformula(rng, sig)):
                first = marginal(dd, phi)
                cold += calls
                calls.clear()
                assert marginal(dd, phi) == first
                assert calls == {}, calls
        assert min(cold["step"], cold["node"], cold["progress"]) > 200, cold

    def test_a_clash_raises_at_each_call_and_stores_no_row(self, monkeypatch):
        steps, step = [], pec.engine._Table.step

        def recorded(table, fid, node, i):
            steps.append("raised")
            node = step(table, fid, node, i)
            steps[-1] = "stepped"
            return node

        monkeypatch.setattr(pec.engine._Table, "step", recorded)
        rng, clashes = random.Random(33), 0
        for dd in clash_twins(40):
            sig, table = dd.signature, pec.engine._compile(dd)
            phi = covering_iformula(rng, sig)
            first = outcome(lambda: marginal(dd, phi))
            if type(first) is not tuple:
                continue
            clashes, rows = clashes + 1, rows_of(table)
            for _ in range(2):
                steps.clear()
                assert outcome(lambda: marginal(dd, phi)) == first
                # every row before the clash is warm; the clashing one was
                # never stored, so it is built again and raises again
                assert steps == ["raised"] and rows_of(table) == rows
        assert clashes > 5

    def test_rows_do_not_grow_with_the_window(self):
        counts = []
        for n in (500, 2000):
            dd = parse_domain(
                f"maxinst {n}\nfluent F takes-values {{a, b}}\naction A\n"
                "initially-one-of {({F=a}, 1)}\nA causes-one-of {({F=b}, 1/2), ({F=a}, 1/2)}\n"
                + "".join(f"A performed-at {i} with-prob 1/2\n" for i in range(n)))
            for q in ("[F=a]@10", "[F=b]@5 & [F=a]@400", f"[F=a]@0 | [F=b]@{n}"):
                assert 0 < marginal(dd, parse_query(q, dd.signature)) <= 1
            counts.append(rows_of(pec.engine._compile(dd)))
        assert counts[0] == counts[1] < 40


def test_every_stored_row_conserves_mass(query_pool):
    # a row's weights sum to its slot's pattern numerators times scale, or
    # times 1 at maxinst, where nothing moves: the answer is a share of the
    # carried mass, so a leak would show here and not in P(phi) + P(!phi) = 1
    rng, checked = random.Random(40), collections.Counter()
    long = [random_domain(rng, max_maxinst=30, max_pprops=5) for _ in range(40)]
    for dd in map(replace, query_pool + long):  # each copy starts cold
        sig, table = dd.signature, pec.engine._compile(dd)
        for phi in (random_iformula(rng, sig), covering_iformula(rng, sig)):
            outcome(lambda: marginal(dd, phi))  # keys clashes, storing the rows before it
        for *_, rows in table.queries.values():
            for slot, memo in rows.items():
                kind = "idle" if type(slot) is tuple else "last" if slot == sig.maxinst else "read"
                patterns = table.patterns.get(slot, table.none) if kind != "idle" else slot
                expected = sum(num for _, num in patterns) * (table.scale if kind != "last" else 1)
                for row in memo.values():
                    assert sum(w for _, w in row) == expected
                    checked[kind] += 1
    assert min(checked.values()) > 500, checked


def test_a_parsed_domain_steps_only_at_its_occurrences(query_pool):
    # parsing rejects a rule body that entails no action, so no rule fires
    # where nothing occurs: the pass and the sampler stop at the occurrence
    # instants and maxinst alone, however long the window
    rng = random.Random(41)
    long = [random_domain(rng, max_maxinst=30, max_pprops=5) for _ in range(40)]
    for dd in query_pool + long:  # the shipped examples first
        expected = {p.instant for p in dd.pprops} | {dd.signature.maxinst}
        assert set(pec.engine._compile(dd).events) == expected


# Metamorphic relations: a change to a domain that cannot change its answers
# leaves every answer equal, each query asked twice so that warm rows are
# judged too.
def test_an_idle_tail_changes_no_answer(query_pool):
    rng, compared = random.Random(34), collections.Counter()
    # both rules fire at maxinst, which the pass never steps from
    late = replace(CLASH, pprops=(PProp("A1", 2, Fraction(1)), PProp("A2", 2, Fraction(1, 2))))
    for dd in query_pool + clash_twins(40) + [late]:
        sig = dd.signature
        longer = replace(dd, signature=replace(sig, maxinst=sig.maxinst + 1))
        for phi in (random_iformula(rng, sig), covering_iformula(rng, sig)):
            for _ in range(2):
                before, after = answer(lambda: marginal(dd, phi)), answer(lambda: marginal(longer, phi))
                # a clash at the old maxinst becomes reachable in the longer window
                if type(before) is not tuple and type(after) is not tuple:
                    assert after == before
                compared[type(before) is tuple, type(after) is tuple] += 1
    assert compared[False, False] > 800 and compared[False, True] > 0, compared
    assert compared[True, False] == 0  # a clash in the old window stays


def test_a_redundant_body_changes_no_answer(query_pool):
    rng, kinds = random.Random(35), collections.Counter()
    for k, dd in enumerate(query_pool + clash_twins(40)):
        redundant = (lambda b: And(b, b)) if k % 2 else (lambda b: Not(Not(b)))
        twin = replace(dd, cprops=tuple(replace(c, body=redundant(c.body)) for c in dd.cprops))
        for phi in (random_iformula(rng, dd.signature), covering_iformula(rng, dd.signature)):
            for _ in range(2):
                first = outcome(lambda: marginal(dd, phi))
                assert outcome(lambda: marginal(twin, phi)) == first
                kinds[type(first) is tuple] += 1
    assert kinds[False] > 400 and kinds[True] > 10, kinds


def verdict(call):
    """What a call returns, or the kind and instant of its error: a clash
    message prints the whole state, which a dead symbol changes."""
    try:
        return repr(call())
    except PecError as exc:
        return type(exc).__name__, getattr(exc, "instant", None)


def with_dead_symbols(rng, dd):
    """``dd`` plus a fluent that no body or query reads, written in every
    initial outcome and in about half the rule outcomes, and two actions
    that no body reads, each occurring with probability 1/2 or 1/3 at up
    to two instants.  The new symbols come first in the signature."""
    sig, values, idle = dd.signature, ("d0", "d1", "d2"), ("Idle1", "Idle2")

    def write(o, always=False):
        return Outcome({**o.effect, "Dead": rng.choice(values)}, o.weight) \
            if always or rng.random() < 0.5 else o

    occurs = tuple(PProp(a, i, rng.choice((Fraction(1, 2), Fraction(1, 3)))) for a in idle
                   for i in rng.sample(range(sig.maxinst), min(2, sig.maxinst)))
    signature = replace(sig, fluents=("Dead",) + sig.fluents, actions=idle + sig.actions,
                        vals={"Dead": values, **sig.vals})
    return replace(dd, signature=signature, vprops=(VProp("Dead", values),) + dd.vprops,
                   cprops=tuple(replace(c, head=tuple(map(write, c.head))) for c in dd.cprops),
                   pprops=occurs + dd.pprops,
                   iprop=IProp(tuple(write(o, True) for o in dd.iprop.head)))


def test_a_dead_symbol_changes_no_answer(query_pool):
    rng, kinds = random.Random(36), collections.Counter()
    for dd in query_pool + clash_twins(40):
        twin = with_dead_symbols(rng, dd)
        for phi in (random_iformula(rng, dd.signature), covering_iformula(rng, dd.signature)):
            for _ in range(2):
                first = verdict(lambda: marginal(dd, phi))
                assert verdict(lambda: marginal(twin, phi)) == first
                kinds[type(first) is tuple] += 1
    assert kinds[False] > 400 and kinds[True] > 10, kinds


def test_a_split_outcome_changes_no_answer(query_pool):
    rng, kinds = random.Random(37), collections.Counter()

    def split(head):  # duplicate effects: validation would refuse them, replace does not
        k = rng.randrange(len(head))
        half = Outcome(head[k].effect, head[k].weight / 2)
        return head[:k] + (half, half) + head[k + 1:]

    for dd in query_pool + clash_twins(40):
        twin = replace(dd, cprops=tuple(replace(c, head=split(c.head)) for c in dd.cprops),
                       iprop=IProp(split(dd.iprop.head)))
        for phi in (random_iformula(rng, dd.signature), covering_iformula(rng, dd.signature)):
            for _ in range(2):
                first = outcome(lambda: marginal(dd, phi))
                assert outcome(lambda: marginal(twin, phi)) == first
                kinds[type(first) is tuple] += 1
    assert kinds[False] > 400 and kinds[True] > 10, kinds


def rich_domain(rng):
    """A random domain whose rule bodies are drawn with ``!``, ``|`` and
    ``->`` over every symbol, most behind an action literal, so some fire
    with nothing occurring and some states activate two rules."""
    dd = random_domain(rng, max_values=4, max_maxinst=5, max_cprops=3, max_pprops=5)
    sig = dd.signature

    def body():
        drawn = random_formula(rng, sig, 2)
        return And(Lit(rng.choice(sig.actions), TRUE), drawn) if rng.random() < 0.7 else drawn

    return replace(dd, cprops=tuple(replace(c, body=body()) for c in dd.cprops))


def test_marginal_equals_a_forward_recurrence_without_the_table():
    rng, kinds, seen = random.Random(38), collections.Counter(), collections.Counter()
    for _ in range(400):
        dd = rich_domain(rng)
        sig = dd.signature
        for c in dd.cprops:
            seen.update(type(n).__name__ for n in (c.body, getattr(c.body, "right", None)))
        seen["uncertain"] += any(p.prob < 1 for p in dd.pprops)
        seen["many values"] += max(map(len, sig.vals.values())) > 2
        for phi in (random_iformula(rng, sig), covering_iformula(rng, sig)):
            try:
                expected = forward_marginal(dd, phi)
            except OracleClash as clash:
                with pytest.raises(ConcurrentActivation) as err:
                    marginal(dd, phi)
                assert err.value.instant == clash.instant
                assert tuple(sorted(err.value.state.items())) in clash.states
                kinds["clash"] += 1
            else:
                assert marginal(dd, phi) == expected
                kinds["value"] += 1
    assert min(kinds["value"], kinds["clash"]) > 20, kinds
    assert min(seen[k] for k in ("Not", "Or", "Implies", "uncertain", "many values")) > 20, seen


def firing_domains(rng, count, **bounds):
    """Random domains with rules, each body cut to its fluent literal, so
    a rule fires with nothing occurring and every instant is an event."""
    found = []
    while len(found) < count:
        if (dd := random_domain(rng, **bounds)).cprops:
            found.append(replace(dd, cprops=tuple(replace(c, body=c.body.right)
                                                  for c in dd.cprops)))
    return found


# Computed with the sampler that stepped every instant of every draw and
# recorded every state: it pins each seeded world and frequency, and each
# error (a clash, a bad instant, an unknown subject) with the draw it follows.
SAMPLES_DIGEST = "93ce78699a4c48b75eabd37ef1b0ab08ab92dc5e51db2e485366d400a0690817"


def test_samples_match_the_walk_of_every_instant(walk_pool):
    rng = random.Random(30)
    long = {"max_maxinst": 30, "max_pprops": 5}
    firing = firing_domains(rng, 40) + firing_domains(rng, 40, **long)
    pool = walk_pool + clash_twins(40) + [random_domain(rng, **long) for _ in range(40)] + firing
    lines = []
    for dd in pool:
        sig = dd.signature
        f = rng.choice(sig.fluents)
        late, unknown = ILit(f, sig.vals[f][0], sig.maxinst + 1), ILit("Nope", "x", 0)
        lines += [answer(lambda: sample_world(dd, seed).key()) for seed in range(5)]
        single = at_instant(random_formula(rng, sig), rng.randint(0, sig.maxinst))
        for phi in (single, random_iformula(rng, sig), Or(single, late), And(unknown, single)):
            seed = rng.randrange(2**31)
            lines.append(answer(lambda: sample_frequency(dd, phi, 200, seed)))
    kinds = collections.Counter(line[0] if type(line) is tuple else "value" for line in lines)
    assert min(kinds.values()) > 20 and len(kinds) == 4, kinds
    assert all(set(pec.engine._compile(dd).events) == set(range(dd.signature.maxinst + 1))
               for dd in firing)
    assert hashlib.sha256(repr(lines).encode()).hexdigest() == SAMPLES_DIGEST

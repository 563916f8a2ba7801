"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import itertools
import math
import random
import time
import timeit
from fractions import Fraction

import pytest

from pec import (
    And,
    ConcurrentActivation,
    FALSE,
    FiniteWorld,
    Not,
    Or,
    TRUE,
    check_world,
    emit,
    enumerate_worlds,
    indistinguishable_up_to,
    marginal,
    narrative_eval,
    parse_query,
    replace,
    restrict,
    sample_frequency,
    trace_eval,
    transition,
    transition_graph,
)
from conftest import GOLDEN
from helpers import (
    all_worlds,
    canonical_trace,
    covering_iformula,
    micro_domain,
    random_domain,
    random_iformula,
)

ONE = Fraction(1)


def _pass(number, text):
    print(f"criterion {number:2d} PASS  {text}")


@pytest.fixture(scope="module")
def random_domains():
    rng = random.Random(20240501)
    return [random_domain(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def domain_pool(coin, antibiotic, keys, random_domains):
    return [coin, antibiotic, keys] + random_domains


@pytest.fixture(scope="module")
def enumerated_pool(domain_pool):
    return [(dd, enumerate_worlds(dd)) for dd in domain_pool]


def test_criterion_1_coin_entailments(coin):
    sig = coin.signature
    cases = [
        ("[Coin=Heads]@0 | ![Coin=Heads]@0", ONE),          # tautology
        ("[Coin=Tails]@0", Fraction(0)),
        ("[Toss]@1", ONE),
        ("[Coin=Heads]@2", Fraction(51, 100)),
        ("[Coin=Heads]@1 & [Coin=Tails]@3", Fraction(49, 100)),
    ]
    queries = [(parse_query(q, sig), expected) for q, expected in cases]

    def batch():
        for phi, expected in queries:
            assert marginal(coin, phi) == expected

    batch()  # correctness first
    best = min(timeit.repeat(batch, timer=time.process_time, number=1, repeat=5))
    assert best < 0.001, f"coin query batch took {best * 1e3:.3f} ms"
    _pass(1, f"coin marginals exact ({best * 1e6:.0f} us)")


def test_criterion_2_antibiotic_entailments(antibiotic):
    sig = antibiotic.signature
    assert marginal(antibiotic, parse_query("[Bacteria=Weak]@0", sig)) == \
        Fraction(9, 10)
    assert marginal(antibiotic,
                    parse_query("[Bacteria=Weak & Rash=Absent]@0", sig)) == 0
    assert marginal(antibiotic,
                    parse_query("[Bacteria=Resistant]@2", sig)) == \
        Fraction(27, 100)

    rash_absent = marginal(antibiotic, parse_query("[Rash=Absent]@4", sig))
    cured = marginal(antibiotic,
                     parse_query("[Bacteria=Absent & Rash=Absent]@4", sig))
    assert abs(rash_absent - Fraction("0.733846")) <= Fraction(5, 10**7)
    assert abs(cured - Fraction("0.650769")) <= Fraction(5, 10**7)

    conditional = cured / rash_absent
    assert conditional == Fraction(423, 650) / Fraction(477, 650)
    assert abs(conditional - Fraction("0.887")) <= Fraction(5, 10**4)
    _pass(2, "antibiotic marginals and conditional match to 6 digits")


def test_criterion_3_keys_entailments(keys):
    sig = keys.signature
    # instants encode the morning clock: 1 = 7:40 AM, 3 = 8:00 AM, 9 = 9 AM
    assert marginal(keys, parse_query("[LockedOut]@3", sig)) == Fraction(1, 100)
    assert marginal(keys, parse_query("[HasKeys]@9", sig)) == Fraction(99, 100)
    assert marginal(keys, parse_query("[PickupKeys]@1", sig)) == \
        Fraction(99, 100)
    _pass(3, "keys marginals exact")


def test_criterion_4_probability_function(enumerated_pool):
    rng = random.Random(77)
    for dd, worlds in enumerated_pool:
        assert sum(w.weight for w in worlds) == ONE

        def mass(phi):
            return sum((w.weight for w in worlds if w.world.satisfies(phi)),
                       Fraction(0))

        for _ in range(20):
            phi = random_iformula(rng, dd.signature)
            psi = And(random_iformula(rng, dd.signature), Not(phi))
            assert mass(Or(phi, psi)) == mass(phi) + mass(psi)
    _pass(4, f"normalization and additivity on {len(enumerated_pool)} domains")


@pytest.fixture(scope="module")
def enumerated_micro():
    rng = random.Random(4242)
    return [(dd, enumerate_worlds(dd)) for dd in (micro_domain(rng) for _ in range(50))]


def test_forward_pass_equals_enumeration(enumerated_pool, enumerated_micro):
    # marginal's forward pass against the summed weight of the enumerated
    # worlds satisfying the query, on the pool and the 50 micro domains
    rng = random.Random(15)
    for dd, worlds in enumerated_pool + enumerated_micro:
        for _ in range(5):
            phi = covering_iformula(rng, dd.signature)
            assert marginal(dd, phi) == sum(
                (w.weight for w in worlds if w.world.satisfies(phi)), Fraction(0))


def test_world_weights_factor_exactly(enumerated_pool, enumerated_micro):
    # each weight is the narrative factor times the summed trace evaluations,
    # whatever order the walk multiplies them in, and is one reduced Fraction
    for dd, worlds in enumerated_pool + enumerated_micro:
        for w in worlds:
            assert type(w.weight) is Fraction
            assert math.gcd(w.weight.numerator, w.weight.denominator) == 1
            assert w.weight == narrative_eval(dd, w.world) * sum(
                trace_eval(t) for t in w.traces)
        assert sum(w.weight for w in worlds) == 1


def test_criterion_5_lemma_suites(domain_pool):
    skipped = 0
    for dd in domain_pool:
        sig = dd.signature
        targets = list(sig.total_fluent_states())
        for state in sig.total_states():
            # the transition row lemma presumes a unique activated rule;
            # states activating two rules (possible in the keys domain,
            # never reached by its narrative) are outside its scope
            try:
                row = sum((transition(dd, state, t) for t in targets),
                          Fraction(0))
            except ConcurrentActivation:
                skipped += 1
                continue
            assert row == ONE

        for instant in sig.instants:
            at_instant = [p for p in dd.pprops if p.instant == instant]
            uncertain = [p for p in at_instant if p.prob != 1]
            narrative_only = replace(dd, pprops=tuple(at_instant))
            total = Fraction(0)
            for bits in itertools.product((True, False),
                                          repeat=len(uncertain)):
                on = {(p.action, p.instant) for p in at_instant if p.prob == 1}
                on |= {(p.action, p.instant)
                       for p, b in zip(uncertain, bits) if b}
                states = tuple(
                    {**{f: sig.vals[f][0] for f in sig.fluents},
                     **{a: (TRUE if (a, i) in on else FALSE)
                        for a in sig.actions}}
                    for i in sig.instants)
                total += narrative_eval(narrative_only,
                                        FiniteWorld(sig, states))
            assert total == ONE
    assert skipped <= 8  # only the keys clash states
    _pass(5, f"transition rows and narrative sums over {len(domain_pool)} "
             f"domains ({skipped} non-unique-activation states skipped)")


def test_criterion_6_decomposition(coin, antibiotic):
    checked = 0
    for dd in (coin, antibiotic):
        for w in enumerate_worlds(dd):
            occ = sorted(w.traces[0].effects)
            if not occ:
                continue
            last = occ[-1]
            truncated = restrict(dd, "lt", last)
            matches = [rw for rw in enumerate_worlds(truncated)
                       if indistinguishable_up_to(w.world, rw.world, last)]
            assert len(matches) == 1
            w_prime = matches[0]
            after = w.world.fluent_state(last + 1)
            assert all(w.world.fluent_state(i) == after
                       for i in range(last + 1, dd.signature.maxinst + 1))
            ratio = narrative_eval(dd, w.world) / \
                narrative_eval(truncated, w_prime.world)
            assert w.weight == ratio * w_prime.weight * \
                transition(dd, w.world.states[last], after)
            checked += 1
    assert checked >= 6
    _pass(6, f"recursive weight decomposition on {checked} worlds")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(4242)
    for _ in range(50):
        dd = micro_domain(rng)
        expected = {
            w.world.key(): (w.weight, {canonical_trace(t) for t in w.traces})
            for w in enumerate_worlds(dd)
        }
        found = {}
        for world in all_worlds(dd.signature):
            report = check_world(dd, world)
            if report.well_behaved():
                weight = narrative_eval(dd, world) * sum(
                    (trace_eval(t) for t in report.traces), Fraction(0))
                found[world.key()] = (
                    weight, {canonical_trace(t) for t in report.traces})
        assert found == expected
    _pass(7, "brute-force world filtering reproduces enumeration on 50 "
             "micro domains")


def test_criterion_8_golden_programs(coin, antibiotic):
    coin_text = emit(coin, with_axioms=True)
    assert coin_text == (GOLDEN / "coin.lp").read_text()
    for shape in (
        "fluent(coin).",
        "possVal(coin, heads).",
        "belongsTo((coin,heads), id_0_1).",
        "initialCondition((id_0_1, 1)).",
        "belongsTo((coin,heads), id_1_1).",
        "causesOutcome((id_1_1, 49/100), I) :- holds(((toss,true), I)).",
        "performed(toss,1,1).",
    ):
        assert shape in coin_text

    antibiotic_text = emit(antibiotic, with_axioms=True)
    assert antibiotic_text == (GOLDEN / "antibiotic.lp").read_text()
    for shape in (
        "possVal(bacteria, weak).",
        "belongsTo((bacteria,weak), id_0_1).",
        "initialCondition((id_0_1, 9/10)).",
        "belongsTo((bacteria,absent), id_2_1).",
        "performed(takesMedicine,3,1).",
    ):
        assert shape in antibiotic_text
    _pass(8, "emitted programs byte-match the goldens")


def test_criterion_9_transition_graphs(coin, antibiotic):
    def edge_set(dd):
        return {
            (tuple(sorted(e.source.items())), e.actions,
             tuple(sorted(e.target.items())), e.weight)
            for e in transition_graph(dd)
        }

    heads = (("Coin", "Heads"),)
    tails = (("Coin", "Tails"),)
    assert edge_set(coin) == {
        (heads, ("Toss",), heads, Fraction(51, 100)),
        (heads, ("Toss",), tails, Fraction(49, 100)),
        (tails, ("Toss",), tails, Fraction(51, 100)),
        (tails, ("Toss",), heads, Fraction(49, 100)),
    }

    def ab(bacteria, rash):
        return (("Bacteria", bacteria), ("Rash", rash))

    tm = ("TakesMedicine",)
    assert edge_set(antibiotic) == {
        (ab("Weak", "Present"), tm, ab("Absent", "Absent"), Fraction(7, 10)),
        (ab("Weak", "Present"), tm, ab("Resistant", "Absent"), Fraction(1, 10)),
        (ab("Weak", "Present"), tm, ab("Resistant", "Present"), Fraction(2, 10)),
        (ab("Weak", "Absent"), tm, ab("Absent", "Absent"), Fraction(7, 10)),
        (ab("Weak", "Absent"), tm, ab("Resistant", "Absent"), Fraction(3, 10)),
        (ab("Resistant", "Present"), tm, ab("Absent", "Absent"), Fraction(1, 13)),
        (ab("Resistant", "Present"), tm, ab("Resistant", "Present"), Fraction(12, 13)),
        (ab("Resistant", "Absent"), tm, ab("Absent", "Absent"), Fraction(1, 13)),
        (ab("Resistant", "Absent"), tm, ab("Resistant", "Absent"), Fraction(12, 13)),
        (ab("Absent", "Absent"), tm, ab("Absent", "Absent"), ONE),
    }
    _pass(9, "coin and antibiotic graphs match the reference figures")


def test_criterion_10_monte_carlo(coin):
    phi = parse_query("[Coin=Heads]@2", coin.signature)
    # CPU time of this process: bounds the sampler's own cost, not the
    # load that other processes put on the machine
    start = time.process_time()
    frequency = sample_frequency(coin, phi, 100_000, 7)
    elapsed = time.process_time() - start
    assert abs(frequency - Fraction(51, 100)) < Fraction(1, 100)
    assert elapsed < 5.0, f"sampling took {elapsed:.2f} s"
    # determinism of the seeded sampler (smaller run, same seed)
    assert sample_frequency(coin, phi, 2_000, 9) == \
        sample_frequency(coin, phi, 2_000, 9)
    _pass(10, f"100k samples in {elapsed:.2f} s of CPU, frequency "
              f"{float(frequency):.4f}")

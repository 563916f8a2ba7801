"""DNF conversion and answer-set-program generation."""

import gc
import itertools
import random
import re
from fractions import Fraction

import pytest

from pec import (
    And,
    CProp,
    DomainSignature,
    Lit,
    Not,
    Or,
    Outcome,
    TRUE,
    TranslationError,
    VProp,
    domain_independent,
    emit,
    parse_domain,
    render,
    replace,
    to_dnf,
    translate,
)
from pec import core
from conftest import GOLDEN, EXAMPLES
from helpers import random_formula, reference_dnf, table_atoms, table_eval


def dnf_eval(disjuncts, row):
    return any(all(row[lit] == positive for lit, positive in conj)
               for conj in disjuncts)


class TestToDnf:
    def test_conjunction_passes_through(self):
        body = And(Lit("A", TRUE), Lit("F", "a"))
        assert to_dnf(body) == [[(Lit("A", TRUE), True), (Lit("F", "a"), True)]]

    def test_distribution_order(self):
        body = And(Lit("A", TRUE), Or(Lit("F", "a"), Lit("F", "b")))
        assert to_dnf(body) == [
            [(Lit("A", TRUE), True), (Lit("F", "a"), True)],
            [(Lit("A", TRUE), True), (Lit("F", "b"), True)],
        ]

    def test_double_negation(self):
        assert to_dnf(Not(Not(Lit("A", TRUE)))) == [[(Lit("A", TRUE), True)]]

    def test_contradictions_dropped(self):
        lit = Lit("A", TRUE)
        assert to_dnf(And(lit, Not(lit))) == []

    def test_equivalent_under_every_assignment(self):
        rng = random.Random(311)
        sig = DomainSignature(("F", "G"), ("A",),
                              {"F": ("a", "b"), "G": ("a", "b")}, 1)
        for _ in range(60):
            phi = random_formula(rng, sig, depth=4)
            atoms = table_atoms(phi)
            disjuncts = to_dnf(phi)
            for bits in itertools.product((False, True), repeat=len(atoms)):
                row = dict(zip(atoms, bits))
                assert dnf_eval(disjuncts, row) == table_eval(phi, row)

    def test_matches_product_expansion(self):
        # the same list as a product expansion, disjunct order, duplicate
        # disjuncts and dropped contradictions included
        rng = random.Random(1201)
        sig = DomainSignature(("F", "G"), ("A",),
                              {"F": ("a", "b", "c"), "G": ("a", "b")}, 1)
        for _ in range(1000):
            phi = random_formula(rng, sig, depth=rng.randint(1, 6))
            assert to_dnf(phi) == reference_dnf(phi)


class TestTranslate:
    def test_coin_clauses(self, coin):
        clauses = translate(coin)
        assert "#const maxinst=3." in clauses
        assert "fluent(coin)." in clauses
        assert "action(toss)." in clauses
        assert "instant(0..maxinst)." in clauses
        assert "possVal(coin, heads)." in clauses
        assert "belongsTo((coin,heads), id_0_1)." in clauses
        assert "initialCondition((id_0_1, 1))." in clauses
        assert "belongsTo((coin,heads), id_1_1)." in clauses
        assert ("causesOutcome((id_1_1, 49/100), I) :- "
                "holds(((toss,true), I))." in clauses)
        assert "performed(toss,1,1)." in clauses

    def test_empty_effect_has_no_membership_facts(self, coin):
        clauses = translate(coin)
        assert not any("belongsTo" in c and "id_1_3" in c for c in clauses)
        assert any(c.startswith("causesOutcome((id_1_3,") for c in clauses)

    def test_antibiotic_clauses(self, antibiotic):
        clauses = translate(antibiotic)
        assert "belongsTo((bacteria,weak), id_0_1)." in clauses
        assert "initialCondition((id_0_1, 9/10))." in clauses
        assert "belongsTo((bacteria,absent), id_2_1)." in clauses
        assert "performed(takesMedicine,1,1)." in clauses
        assert "performed(takesMedicine,3,1)." in clauses

    def test_keys_occurrence_probability(self, keys):
        clauses = translate(keys)
        assert "performed(pickupKeys,1,99/100)." in clauses
        assert "performed(goOut,2,1)." in clauses

    def test_outcome_ids_are_distinct_and_complete(self, antibiotic):
        clauses = translate(antibiotic)
        ids = re.findall(r"id_\d+_\d+", " ".join(clauses))
        distinct = set(ids)
        expected = {f"id_0_{j+1}" for j in range(len(antibiotic.iprop.head))}
        for n, c in enumerate(antibiotic.cprops, start=1):
            expected |= {f"id_{n}_{j+1}" for j in range(len(c.head))}
        assert distinct == expected

    def test_clause_accounting(self, coin, antibiotic, keys):
        for dd in (coin, antibiotic, keys):
            clauses = translate(dd)
            n_belongs = sum(1 for c in clauses if c.startswith("belongsTo"))
            outcome_sizes = sum(len(o.effect) for o in dd.iprop.head)
            outcome_sizes += sum(len(o.effect)
                                 for c in dd.cprops for o in c.head)
            assert n_belongs == outcome_sizes
            rules = [c for c in clauses if c.startswith("causesOutcome")]
            disjunct_count = sum(c.count(";") + 1 for c in rules)
            expected = sum(len(c.head) * len(to_dnf(c.body))
                           for c in dd.cprops)
            assert disjunct_count == expected

    def test_disjunctive_body(self):
        dd = parse_domain(
            "maxinst 2\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A & (F=a | F=b) causes-one-of {({F=b}, 1)}\n")
        rule = [c for c in translate(dd)
                if c.startswith("causesOutcome")][0]
        assert rule == ("causesOutcome((id_1_1, 1), I) :- "
                        "holds(((a,true), I)), holds(((f,a), I)); "
                        "holds(((a,true), I)), holds(((f,b), I)).")

    def test_negated_literal_renders_as_default_negation(self):
        dd = parse_domain(
            "maxinst 2\nfluent F takes-values {a, b, c}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A & !F=a causes-one-of {({F=a}, 1)}\n")
        rule = [c for c in translate(dd)
                if c.startswith("causesOutcome")][0]
        assert "not holds(((f,a), I))" in rule

    def test_identifier_collision(self):
        dd = parse_domain(
            "maxinst 2\nfluent Coin takes-values {a, b}\naction coin\n"
            "initially-one-of {({Coin=a}, 1)}\n")
        with pytest.raises(TranslationError) as err:
            translate(dd)
        assert str(err.value) == "coin and Coin collide as coin"

    def test_value_collision(self):
        dd = parse_domain("maxinst 2\nfluent F takes-values {a, A}\n"
                          "initially-one-of {({F=a}, 1)}\n")
        with pytest.raises(TranslationError) as err:
            translate(dd)
        assert str(err.value) == "values A and a of F collide as a"

    def test_body_that_never_holds_gets_no_rule(self):
        dd = parse_domain(
            "maxinst 2\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A & !(A) causes-one-of {({F=b}, 1)}\n")
        clauses = translate(dd)
        assert "belongsTo((f,b), id_1_1)." in clauses
        assert not any(c.startswith("causesOutcome") for c in clauses)

    def test_values_come_from_the_signature(self, coin):
        # an API-built domain whose signature widens a fluent: the program
        # declares what the engine reasons over
        vals = {"Coin": ("Heads", "Tails", "Edge")}
        wide = replace(coin, signature=replace(coin.signature, vals=vals))
        assert [c for c in translate(wide) if c.startswith("possVal")] == [
            "possVal(coin, heads).", "possVal(coin, tails).", "possVal(coin, edge)."]

    def test_vprops_are_not_read(self, coin):
        dd = replace(coin, vprops=(VProp("Coin", ("Heads", "Tails", "Edge")),))
        assert emit(dd, with_axioms=True) == emit(coin, with_axioms=True)
        assert render(dd) == render(coin)

    def test_a_weight_past_the_digit_limit_prints(self, coin):
        tiny = Fraction(1, 10**5000)
        rule = CProp(coin.cprops[0].body, (Outcome({"Coin": "Heads"}, tiny),
                                           Outcome({}, 1 - tiny)))
        dd = replace(coin, cprops=(rule,))
        assert (f"causesOutcome((id_1_1, {core.fraction_text(tiny)}), I) :- "
                "holds(((toss,true), I)).") in emit(dd).splitlines()
        assert (f"Toss causes-one-of {{({{Coin=Heads}}, {core.fraction_text(tiny)}), "
                f"({{}}, {core.fraction_text(1 - tiny)})}}") in render(dd).splitlines()

    def test_actionless_domain(self):
        dd = parse_domain("maxinst 1\nfluent F takes-values {a, b}\n"
                          "initially-one-of {({F=a}, 1)}\n")
        assert not any(c.startswith("performed")
                       for c in translate(dd))


class TestEmit:
    def test_deterministic(self, antibiotic):
        assert emit(antibiotic, with_axioms=True) == \
            emit(antibiotic, with_axioms=True)

    def test_axioms_appended_only_on_request(self, coin):
        assert "fluentOrAction" not in emit(coin)
        assert "fluentOrAction" in emit(coin, with_axioms=True)

    @pytest.mark.parametrize("name", ["coin", "antibiotic", "keys"])
    def test_matches_golden(self, name):
        dd = parse_domain((EXAMPLES / f"{name}.pec").read_text())
        assert emit(dd, with_axioms=True) == \
            (GOLDEN / f"{name}.lp").read_text()

    def test_intern_table_keeps_no_node_of_a_dropped_domain(self):
        text = ("maxinst 3\nfluent Door takes-values {open, shut}\n"
                "fluent Lamp takes-values {on, off}\naction Push\naction Flick\n"
                "initially-one-of {({Door=shut, Lamp=off}, 1)}\n"
                "Push & (Door=shut | !Lamp=on) causes-one-of "
                "{({Door=open}, 1/2), ({}, 1/2)}\n"
                "Flick & (Lamp=off -> Door=open) & !Push causes-one-of "
                "{({Lamp=on}, 1)}\n"
                "Push performed-at 0\nFlick performed-at 1 with-prob 1/3\n")

        while gc.collect():
            pass
        before = len(core._NODES)
        gc.disable()  # a node that outlives its domain only through a cycle counts
        try:
            assert "causesOutcome((id_1_1, 1/2), I)" in emit(parse_domain(text))
        finally:
            gc.enable()
        assert len(core._NODES) == before


class TestDomainIndependent:
    def test_world_generator_choice_rule(self):
        clauses = domain_independent()
        assert ("1{ holds(((X,V),I)) : iLiteral(((X,V),I)) }1 :- "
                "instant(I), fluentOrAction(X).") in clauses

    def test_cwa_constraint(self):
        assert any("not possiblyPerformed(A,I)" in c
                   for c in domain_independent())

    def test_persistence_guard(self):
        assert any("not inOcc(I)" in c and c.startswith(":-")
                   for c in domain_independent())

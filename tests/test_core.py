"""Core algebra: state update, evaluation, satisfaction, entailment."""

import copy
import pickle
import random
import sys
import time
import weakref
from fractions import Fraction

import pytest

from pec import (
    And,
    DomainSignature,
    FALSE,
    ILit,
    IProp,
    Issue,
    Lit,
    Not,
    Or,
    Implies,
    Outcome,
    PecError,
    PProp,
    RangeError,
    Record,
    SignatureError,
    TRUE,
    ValidationReport,
    VProp,
    at_instant,
    enumerate_worlds,
    eval_formula,
    format_decimal,
    herbrand_entails,
    outcomes_weight,
    replace,
    satisfies,
    transition_graph,
    update,
)
from pec import core, marginal, parse_domain, parse_query
from pec.core import format_state, fraction_text, int_text
from helpers import alternating, table_entails, random_formula


def W(*fluent_action_pairs):
    """Coin-domain world: (Coin value, Toss up?) per instant."""
    return tuple({"Coin": coin, "Toss": TRUE if toss else FALSE}
                 for coin, toss in fluent_action_pairs)


# the three worlds discussed throughout the coin scenario, on 0..3
W1 = W(("Heads", False), ("Heads", True), ("Tails", False), ("Tails", False))
W2 = W(("Tails", False), ("Heads", False), ("Tails", True), ("Tails", True))
W3 = W(("Heads", False), ("Heads", True), ("Heads", False), ("Heads", False))


class TestUpdate:
    def test_overrides_mentioned_fluent(self):
        assert update({"Coin": "Heads"}, {"Coin": "Tails"}) == {"Coin": "Tails"}

    def test_empty_delta_is_identity(self):
        base = {"Rash": "Present", "Bacteria": "Weak"}
        assert update(base, {}) == base

    def test_multi_fluent_delta(self):
        # the weak-bacteria treatment success step
        assert update(
            {"Rash": "Present", "Bacteria": "Weak"},
            {"Bacteria": "Absent", "Rash": "Absent"},
        ) == {"Rash": "Absent", "Bacteria": "Absent"}

    def test_unknown_fluent_rejected(self):
        with pytest.raises(SignatureError):
            update({"Coin": "Heads"}, {"Rash": "Absent"})

    def test_idempotent_and_persistent(self):
        rng = random.Random(11)
        values = ["a", "b", "c"]
        for _ in range(100):
            base = {f: rng.choice(values) for f in "FGH"}
            delta = {f: rng.choice(values) for f in "FG" if rng.random() < 0.7}
            once = update(base, delta)
            assert update(once, delta) == once
            for f in base:
                if f not in delta:
                    assert once[f] == base[f]
                else:
                    assert once[f] == delta[f]


class TestEvalFormula:
    def test_negated_action_literal(self):
        state = {"Bacteria": "Resistant", "Rash": "Absent",
                 "TakesMedicine": FALSE}
        assert eval_formula(state, Lit("TakesMedicine", FALSE))

    def test_tautology(self):
        state = {"Coin": "Heads", "Toss": FALSE}
        lit = Lit("Coin", "Tails")
        assert eval_formula(state, Or(lit, Not(lit)))

    def test_toss_body(self):
        body = Lit("Toss", TRUE)
        assert eval_formula({"Coin": "Heads", "Toss": TRUE}, body)
        assert not eval_formula({"Coin": "Heads", "Toss": FALSE}, body)

    def test_literal_or_negation_exactly_one(self):
        for state in ({"Coin": "Heads"}, {"Coin": "Tails"}):
            for value in ("Heads", "Tails"):
                lit = Lit("Coin", value)
                assert eval_formula(state, lit) != eval_formula(state, Not(lit))

    def test_unassigned_symbol(self):
        with pytest.raises(SignatureError):
            eval_formula({"Coin": "Heads"}, Lit("Rash", "Absent"))

    def test_deep_alternating_nesting(self):
        # evaluated without recursion, at the default recursion limit
        heads, toss = Lit("Coin", "Heads"), Lit("Toss", TRUE)
        phi = alternating(heads, toss, 1000)
        assert eval_formula({"Coin": "Heads", "Toss": FALSE}, phi)
        assert not eval_formula({"Coin": "Tails", "Toss": FALSE}, phi)
        assert eval_formula({"Coin": "Tails", "Toss": TRUE}, phi)


class TestSatisfies:
    def test_toss_not_attempted_in_w2_at_1(self):
        assert satisfies(W2, ILit("Toss", FALSE, 1))

    def test_heads_at_2_in_w3(self):
        assert satisfies(W3, ILit("Coin", "Heads", 2))
        assert not satisfies(W1, ILit("Coin", "Heads", 2))

    def test_tautology(self):
        leaf = ILit("Coin", "Heads", 0)
        assert satisfies(W2, Not(And(leaf, Not(leaf))))

    def test_instant_out_of_window(self):
        with pytest.raises(RangeError):
            satisfies(W1, ILit("Coin", "Heads", 4))

    @pytest.mark.parametrize("instant", [-1, 4])
    def test_progression_checks_the_window_up_front(self, instant):
        phi = Or(ILit("Coin", "Heads", 0), ILit("Coin", "Heads", instant))
        with pytest.raises(RangeError) as err:
            core.progression(phi, 3)
        assert str(err.value) == f"instant {instant} outside the window 0..3"

    def test_progression_merges_residuals(self):
        # whatever F is at 0, both disjuncts leave the same interned node
        fa, gb = ILit("F", "a", 0), ILit("G", "b", 1)
        phi = Or(And(fa, gb), And(Not(fa), gb))
        at, step = core.progression(phi, 1)
        assert {i: list(lits) for i, lits in at.items()} == {0: [fa], 1: [gb]}
        for f in ("a", "c"):
            rest = step(phi, 0, {"F": f, "G": "c"})
            assert rest is gb
            assert step(rest, 1, {"F": f, "G": "b"}) is True
            assert step(rest, 1, {"F": f, "G": "c"}) is False
        with pytest.raises(RangeError, match=r"^instant 2 outside the window 0\.\.1$"):
            core.progression(Or(ILit("G", "b", 2), phi), 1)

    def test_stamping_matches_pointwise_evaluation(self):
        rng = random.Random(23)
        from pec import DomainSignature
        sig = DomainSignature(("Coin",), ("Toss",),
                              {"Coin": ("Heads", "Tails")}, 3)
        for _ in range(200):
            theta = random_formula(rng, sig)
            i = rng.randint(0, 3)
            assert satisfies(W1, at_instant(theta, i)) == \
                eval_formula(W1[i], theta)

    def test_implication_distributes(self):
        phi = at_instant(Implies(Lit("Coin", "Heads"), Lit("Toss", TRUE)), 3)
        assert phi == Implies(ILit("Coin", "Heads", 3), ILit("Toss", TRUE, 3))


class TestHerbrandEntails:
    def test_reflexive(self):
        rng = random.Random(5)
        from pec import DomainSignature
        sig = DomainSignature(("F", "G"), ("A",),
                              {"F": ("a", "b"), "G": ("a", "b")}, 1)
        for _ in range(50):
            theta = random_formula(rng, sig)
            assert herbrand_entails(theta, theta)

    def test_conjunction_entails_conjunct(self):
        theta = And(Lit("Toss", TRUE), Lit("Coin", "Heads"))
        assert herbrand_entails(theta, Lit("Toss", TRUE))
        assert not herbrand_entails(Lit("Toss", TRUE), theta)

    def test_treatment_rule_bodies_incomparable(self):
        weak = And(Lit("TakesMedicine", TRUE), Lit("Bacteria", "Weak"))
        resistant = And(Lit("TakesMedicine", TRUE), Lit("Bacteria", "Resistant"))
        assert not herbrand_entails(weak, resistant)
        assert not herbrand_entails(resistant, weak)

    def test_no_value_exclusivity(self):
        # F=a and F=b are independent atoms here, so F=a does not rule
        # out F=b
        assert not herbrand_entails(Lit("F", "a"), Not(Lit("F", "b")))

    def test_agrees_with_truth_table_and_is_transitive(self):
        rng = random.Random(97)
        from pec import DomainSignature
        sig = DomainSignature(("F", "G"), ("A",),
                              {"F": ("a", "b", "c"), "G": ("a", "b")}, 1)
        triples = [tuple(random_formula(rng, sig, rng.randint(1, 4))
                         for _ in range(3)) for _ in range(60)]
        for a, b, c in triples:
            ab, bc, ac = (herbrand_entails(a, b), herbrand_entails(b, c),
                          herbrand_entails(a, c))
            assert ab == table_entails(a, b)
            if ab and bc:
                assert ac

    @pytest.mark.parametrize("n", [20, 40, 1500])
    def test_long_conjunction(self, n):
        # 2**n truth-table rows, but the tableau for a conjunction has at
        # most n branches, each closed or opened in one pass over the chain
        lits = [Lit(f"X{i}", TRUE) for i in range(n)]
        chain = lits[0]
        for lit in lits[1:]:
            chain = And(chain, lit)
        start = time.perf_counter()
        assert herbrand_entails(chain, lits[-1])
        assert not herbrand_entails(lits[-1], chain)
        assert not herbrand_entails(chain, Lit("Y", TRUE))
        assert time.perf_counter() - start < 1

    def test_conjuncts_expand_before_disjunctions_fork(self):
        # 2**20 branches if each (F=a | F=a) forked where it was reached;
        # Go closes the tableau before any of them forks
        body = Lit("Go", TRUE)
        for _ in range(20):
            body = And(Or(Lit("F", "a"), Lit("F", "a")), body)
        start = time.perf_counter()
        assert herbrand_entails(body, Lit("Go", TRUE))
        assert not herbrand_entails(body, Lit("Stop", TRUE))
        assert time.perf_counter() - start < 0.1

    def test_conjunct_atoms_are_on_every_branch(self):
        # and each is a conjunct: the formula entails its literal, signed
        # as the branches sign it
        rng = random.Random(22)
        sig = DomainSignature(("F", "G"), ("A",),
                              {"F": ("a", "b"), "G": ("a", "b")}, 1)
        assert core.conjunct_atoms(Not(Implies(Lit("A", TRUE), Or(
            Lit("F", "a"), Lit("G", "b"))))) == {("A", TRUE), ("F", "a"), ("G", "b")}
        for _ in range(500):
            phi = random_formula(rng, sig, rng.randint(1, 4))
            atoms = core.conjunct_atoms(phi)
            for branch in core.open_branches(phi):
                signs = {(lit.subject, lit.value): sign for lit, sign in branch.items()}
                assert atoms <= signs.keys()
                for atom in atoms:
                    lit = Lit(*atom)
                    assert herbrand_entails(phi, lit if signs[atom] else Not(lit))

    def test_tableau_builds_no_formula_node(self):
        # the tableau reads each node with a sign, so deciding entailment
        # or listing a DNF interns no node (no NNF copy, no Not(literal))
        sig = parse_domain("maxinst 2\nfluent F takes-values {a, b}\n"
                           "fluent G takes-values {true, false}\naction A\n"
                           "initially-one-of {({F=a, G}, 1)}\n").signature
        bodies = [parse_query(text, sig) for text in (
            "[A]@0 & !([F=a]@0 -> ([G]@1 | ![F=b]@1 & [A]@1))",
            "!(([F=a]@1 | [G]@0) & !([A]@1 -> !![F=b]@0))",
            "([F=b]@0 -> [G]@1) | (!([A]@0 | [F=a]@1) & ([G]@0 -> ![A]@1))",
            "![G]@1",
        )]
        before = len(core._NODES)
        for theta in bodies:
            assert list(core.open_branches(theta))
            for theta_prime in bodies:
                herbrand_entails(theta, theta_prime)
        assert len(core._NODES) == before


class TestInterning:
    def test_equal_formulas_are_one_object(self):
        assert Lit("F", "a") is Lit("F", "a")
        assert ILit("F", "a", 1) is ILit("F", "a", 1)
        assert (Implies(Lit("F", "a"), Not(Lit("G", TRUE)))
                is Implies(Lit("F", "a"), Not(Lit("G", TRUE))))
        assert And(Lit("F", "a"), Lit("G", TRUE)) is not Or(Lit("F", "a"),
                                                             Lit("G", TRUE))
        assert ILit("F", "a", 1) is not ILit("F", "a", 2)

    def test_pickle_and_copy_return_the_same_node(self):
        phi = Or(Not(ILit("F", "a", 1)), And(ILit("G", TRUE, 0),
                                             ILit("F", "b", 2)))
        assert pickle.loads(pickle.dumps(phi)) is phi
        assert copy.deepcopy(phi) is phi
        assert copy.copy(phi) is phi

    def test_deepcopy_of_a_deep_chain_is_the_chain(self):
        chain = Lit("X0", TRUE)
        for i in range(1, 1500):
            chain = And(chain, Lit(f"X{i}", TRUE))
        assert copy.deepcopy(chain) is chain
        assert copy.deepcopy([chain])[0] is chain

    def test_pickle_of_a_deep_chain_is_the_chain(self):
        chain = ILit("X0", TRUE, 0)
        for i in range(1, 1500):
            chain = And(chain, ILit(f"X{i}", TRUE, i % 3))
        assert pickle.loads(pickle.dumps(chain)) is chain
        shared = Or(Not(chain), Implies(chain, chain))
        assert pickle.loads(pickle.dumps([shared, chain])) == [shared, chain]

    def test_pickled_domain_answers_the_same(self, antibiotic):
        body = " & ".join(["A"] + ["F=a", "!F=b"] * 750)  # 1,501 literals deep
        deep = parse_domain("maxinst 2\nfluent F takes-values {a, b}\naction A\n"
                            "initially-one-of {({F=a}, 1/2), ({F=b}, 1/2)}\n"
                            f"{body} causes-one-of {{({{F=b}}, 3/4), ({{}}, 1/4)}}\n"
                            "A performed-at 0 with-prob 1/3\n")
        for dd, query in ((antibiotic, "[Bacteria=Absent]@4 & ![Rash=Present]@2"),
                          (deep, "[F=b]@1 | [A]@0")):
            again = pickle.loads(pickle.dumps(dd))
            assert again == dd and again is not dd
            phi = parse_query(query, dd.signature)
            assert pickle.loads(pickle.dumps(phi)) is phi
            assert marginal(again, phi) == marginal(dd, phi)

    def test_nodes_are_immutable(self):
        phi = And(Lit("F", "a"), Lit("G", TRUE))
        with pytest.raises(AttributeError):
            phi.left = Lit("F", "b")
        with pytest.raises(AttributeError):
            del phi.left
        assert phi.left is Lit("F", "a")

    @pytest.mark.parametrize("build", [
        lambda: Lit("F"), lambda: Lit("F", "a", 1), lambda: ILit("F", "a"),
        lambda: Not(), lambda: And(Lit("F", "a")),
        lambda: Or(Lit("F", "a"), Lit("F", "a"), Lit("F", "a")),
    ])
    def test_wrong_arity_raises(self, build):
        with pytest.raises(TypeError):
            build()

    def test_repr_is_concrete_syntax(self):
        assert repr(Lit("Toss", TRUE)) == "Lit('Toss')"
        assert (repr(Implies(And(Lit("F", "a"), Not(Lit("G", TRUE))),
                             Lit("G", FALSE)))
                == "Implies('F=a & !G=true -> !G')")
        assert (repr(Or(ILit("F", "a", 1), Not(ILit("G", FALSE, 2))))
                == "Or('[F=a]@1 | ![!G]@2')")


class TestOutcomes:
    def test_weight_of_set(self):
        outcomes = [Outcome({"Coin": "Heads"}, Fraction(49, 100)),
                    Outcome({}, Fraction(2, 100))]
        assert outcomes_weight(outcomes) == Fraction(51, 100)

    @pytest.mark.parametrize("weight", [Fraction(0), Fraction(3, 2)])
    def test_weight_bounds(self, weight):
        with pytest.raises(PecError):
            Outcome({}, weight)

    @pytest.mark.parametrize("weight", ["1/2", 0.5, Fraction(1, 2)])
    def test_weight_stored_as_fraction(self, weight):
        stored = Outcome({}, weight).weight
        assert type(stored) is Fraction and stored == Fraction(1, 2)

    def test_fraction_weight_kept(self):
        weight = Fraction(1, 3)
        assert Outcome({}, weight).weight is weight

    @pytest.mark.parametrize("weight,message", [
        ("3/2", "probability 3/2 outside [0,1]"),
        (-1, "probability -1 outside [0,1]"),
        (0, "probability must be strictly positive"),
        (Fraction(3, 2), "probability 3/2 outside [0,1]"),
        (Fraction(-1), "probability -1 outside [0,1]"),
        (Fraction(0), "probability must be strictly positive"),
        pytest.param(Fraction(10**5000 + 1, 10**5000),
                     "probability 1" + "0" * 4999 + "1/1" + "0" * 5000 + " outside [0,1]",
                     id="past-the-digit-limit"),
    ])
    def test_weight_messages(self, weight, message):
        with pytest.raises(PecError) as err:
            Outcome({}, weight)
        assert str(err.value) == message


class TestFormatDecimal:
    @pytest.mark.parametrize("value,digits,expected", [
        (Fraction(51, 100), 6, "0.510000"),
        (Fraction(477, 650), 6, "0.733846"),
        (Fraction(423, 650), 6, "0.650769"),
        (Fraction(47, 53), 3, "0.887"),
        (Fraction(1, 8), 2, "0.12"),   # ties to even
        (Fraction(3, 8), 2, "0.38"),
        (Fraction(1), 6, "1.000000"),
        (Fraction(0), 2, "0.00"),
        (Fraction(-1, 3000), 2, "0.00"),   # no sign on a rounded zero
        (Fraction(-1, 150), 2, "-0.01"),
    ])
    def test_rounding(self, value, digits, expected):
        assert format_decimal(value, digits) == expected

    @pytest.mark.parametrize("value,expected", [
        (Fraction(5, 2), "2"), (Fraction(7, 2), "4"), (Fraction(-5, 2), "-2"),
        (Fraction(-1, 3), "0"), (Fraction(-1, 2), "0"), (Fraction(-3, 2), "-2"),
    ])
    def test_zero_digits(self, value, expected):
        assert format_decimal(value, 0) == expected

    def test_negative_digits(self):
        with pytest.raises(ValueError, match="digits must be non-negative"):
            format_decimal(Fraction(1, 2), -1)

    def test_past_the_interpreter_digit_limit(self):
        # int_text converts by halves, so the limit is read, never lifted
        rng = random.Random(5)
        values = [0, -7, 10**4300, 10**4299 - 1, -(3**30000)] + [
            rng.randrange(-10**rng.randrange(1, 20000), 10**rng.randrange(1, 20000))
            for _ in range(30)]
        texts = [int_text(n) for n in values]
        fractions = [fraction_text(Fraction(n, 10**4500 + 1)) for n in values[:5]]
        decimal = format_decimal(Fraction(1, 3), 5000)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert texts == [str(n) for n in values]
            assert fractions == [str(Fraction(n, 10**4500 + 1)) for n in values[:5]]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert decimal == "0." + "3" * 5000


class TestSignature:
    @pytest.mark.parametrize("fluents,actions,vals,maxinst,message", [
        ((), ("A",), {}, 1, "a signature needs at least one fluent"),
        (("F",), ("F",), {"F": ("a",)}, 1, "fluents and actions overlap: ['F']"),
        (("F",), (), {"F": ()}, 1, "fluent F has no declared values"),
        (("F",), (), {"F": ("a",)}, 0, "maxinst must be at least 1"),
    ])
    def test_rejects(self, fluents, actions, vals, maxinst, message):
        with pytest.raises(SignatureError) as err:
            DomainSignature(fluents, actions, vals, maxinst)
        assert str(err.value) == message

    def test_values_of(self):
        sig = DomainSignature(("F",), ("A",), {"F": ("a", "b")}, 1)
        assert sig.values_of("F") == ("a", "b")
        assert sig.values_of("A") == (TRUE, FALSE)
        with pytest.raises(SignatureError, match="unknown symbol 'G'"):
            sig.values_of("G")

    def test_format_state_sorts_without_braces(self):
        assert format_state({"G": "w", "F": "v"}) == "F=v, G=w"


class TestRecords:
    """The value classes behave as the frozen dataclasses they replace."""

    def test_repr_matches_the_dataclass_form(self, coin):
        # strings taken from the dataclass versions of these classes
        assert (repr(VProp("Coin", ("Heads", "Tails")))
                == "VProp(fluent='Coin', values=('Heads', 'Tails'))")
        assert repr(Issue("bad", 2, 5)) == "Issue(message='bad', line=2, col=5, condition=None)"
        assert (repr(Issue("bad", 2, 5, condition="(i)"))
                == "Issue(message='bad', line=2, col=5, condition='(i)')")
        assert (repr(PProp("Toss", 1, Fraction(1, 2)))
                == "PProp(action='Toss', instant=1, prob=Fraction(1, 2))")
        assert (repr(Outcome({"Coin": "Heads"}, "49/100"))
                == "Outcome(effect={'Coin': 'Heads'}, weight=Fraction(49, 100))")
        assert (repr(enumerate_worlds(coin)[0].traces[0])
                == "Trace(initial=Outcome(effect={'Coin': 'Heads'}, weight=Fraction(1, 1)), "
                   "effects={1: Outcome(effect={'Coin': 'Heads'}, weight=Fraction(49, 100))})")
        assert (repr(transition_graph(coin)[0])
                == "TransitionEdge(source={'Coin': 'Heads'}, actions=('Toss',), "
                   "target={'Coin': 'Heads'}, weight=Fraction(51, 100))")

    def test_equality_needs_the_same_class(self):
        class Other(Record):
            head: tuple

        assert IProp(()) == IProp(()) and IProp(()) != IProp((Outcome({}, 1),))
        assert IProp(()) != ValidationReport(()) and IProp(()) != Other(())
        assert Other(()) == Other(()) and IProp(()).__eq__(()) is NotImplemented

    def test_equal_records_hash_alike(self):
        pairs = [(VProp("F", ("a", "b")), VProp("F", ("a", "b"))),
                 (PProp("A", 1, Fraction(1, 2)), PProp("A", 1, Fraction(2, 4))),
                 (Issue("m", 1, 2), Issue("m", 1, 2, None))]
        for one, other in pairs:
            assert one == other and hash(one) == hash(other)
        assert len({one for one, _ in pairs} | {other for _, other in pairs}) == 3

    def test_fields_cannot_be_assigned_or_deleted(self, coin):
        for record, name in [(coin, "pprops"), (coin.signature, "maxinst"),
                             (coin.iprop.head[0], "weight"), (Issue("m", 1, 2), "condition")]:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
            assert getattr(record, name) is before

    def test_replace_rebuilds_through_init(self, coin):
        with pytest.raises(SignatureError, match="maxinst must be at least 1"):
            replace(coin.signature, maxinst=0)
        assert replace(coin.iprop.head[0], weight="1/2").weight == Fraction(1, 2)
        later = replace(coin, pprops=())
        assert later.pprops == () and later.cprops is coin.cprops and coin.pprops
        assert replace(coin) == coin and replace(coin) is not coin
        with pytest.raises(TypeError):
            replace(coin, narrative=())

    @pytest.mark.parametrize("build", [
        lambda: PProp("A", 1), lambda: PProp("A", 1, 1, 1), lambda: Issue("m", 1),
        lambda: Issue("m", 1, 2, line=3), lambda: Issue("m", 1, 2, where="here"),
    ])
    def test_wrong_fields_raise(self, build):
        with pytest.raises(TypeError):
            build()

    def test_keywords_and_defaults(self):
        assert Issue(col=2, line=1, message="m") == Issue("m", 1, 2, None)
        assert Issue("m", 1, 2, condition="(i)").condition == "(i)"

    def test_match_takes_the_fields_in_order(self):
        match PProp("Toss", 1, Fraction(1, 2)):
            case PProp(action, instant, prob=Fraction(denominator=2)):
                assert (action, instant) == ("Toss", 1)
            case _:
                pytest.fail("no match")

    def test_mutable_defaults_are_refused(self):
        with pytest.raises(TypeError, match="mutable default"):
            class Shared(Record):
                items: list = []

    def test_deepcopy_of_the_shipped_domains(self, coin, antibiotic, keys):
        for dd, query in [(coin, "[Coin=Heads]@2"), (antibiotic, "[Bacteria=Absent]@4"),
                          (keys, "[LockedOut]@3")]:
            again = copy.deepcopy(dd)
            assert again == dd and again is not dd
            assert again.cprops[0].body is dd.cprops[0].body  # formulas are interned
            assert marginal(again, parse_query(query, again.signature)) == marginal(
                dd, parse_query(query, dd.signature))

    def test_a_domain_can_be_weakly_referenced(self, coin):
        ref = weakref.ref(coin)
        assert ref() is coin

"""Grammar, validation diagnostics, and round-trip rendering."""

import hashlib
import random
import re
import time
from fractions import Fraction

import pytest

from pec import (
    And,
    DomainDescription,
    DomainValidationError,
    FALSE,
    ILit,
    Implies,
    Lit,
    Not,
    Or,
    PecError,
    PecSyntaxError,
    TRUE,
    ValidationReport,
    emit,
    format_formula,
    herbrand_entails,
    marginal,
    parse_domain,
    parse_query,
    render,
    sample_world,
    validate,
)
from pec.core import replace
from helpers import random_domain, random_formula


class TestParseDomain:
    def test_coin(self, coin):
        sig = coin.signature
        assert sig.fluents == ("Coin",)
        assert sig.actions == ("Toss",)
        assert sig.vals["Coin"] == ("Heads", "Tails")
        assert sig.maxinst == 3
        assert len(coin.cprops) == 1
        head = coin.cprops[0].head
        assert [o.weight for o in head] == [Fraction(49, 100),
                                            Fraction(49, 100),
                                            Fraction(1, 50)]
        assert head[2].effect == {}
        assert coin.pprops[0].prob == 1

    def test_certain_occurrences_share_one_prob(self):
        dd = parse_domain(VALID_PREFIX + "A performed-at 0\nA performed-at 1 with-prob 1\n"
                          "A performed-at 2\n")
        assert len({id(p.prob) for p in dd.pprops}) == 1

    def test_antibiotic(self, antibiotic):
        sig = antibiotic.signature
        assert sig.fluents == ("Bacteria", "Rash")
        assert len(antibiotic.cprops) == 2
        assert len(antibiotic.pprops) == 2
        assert [o.weight for o in antibiotic.iprop.head] == \
            [Fraction(9, 10), Fraction(1, 10)]
        assert antibiotic.cprops[1].body == And(
            Lit("TakesMedicine", TRUE), Lit("Bacteria", "Resistant"))

    def test_keys_boolean_shorthand(self, keys):
        assert keys.iprop.head[0].effect == {
            "HasKeys": FALSE, "LockedOut": FALSE, "Location": "Inside"}
        locked_out_body = keys.cprops[0].body
        assert Lit("HasKeys", FALSE) in _conjuncts(locked_out_body)

    def test_empty_input(self):
        report = validate("")
        messages = str(report)
        assert "no i-proposition" in messages
        assert "(ii)" in messages
        with pytest.raises(DomainValidationError):
            parse_domain("")

    def test_decimals_convert_exactly(self):
        dd = parse_domain(
            "maxinst 2\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 0.3), ({F=b}, 0.7)}\n")
        assert [o.weight for o in dd.iprop.head] == \
            [Fraction(3, 10), Fraction(7, 10)]


def _conjuncts(phi):
    if isinstance(phi, And):
        return _conjuncts(phi.left) + _conjuncts(phi.right)
    return [phi]


class TestCompletion:
    def test_implicit_empty_outcome(self):
        dd = parse_domain(
            "maxinst 2\nfluent Coin takes-values {Heads, Tails}\naction Toss\n"
            "initially-one-of {({Coin=Heads}, 1)}\n"
            "Toss causes-one-of {({Coin=Heads}, 49/100), ({Coin=Tails}, 49/100)}\n")
        head = dd.cprops[0].head
        assert len(head) == 3
        assert head[2].effect == {}
        assert head[2].weight == Fraction(1, 50)
        assert sum(o.weight for o in head) == 1

    def test_explicit_empty_disables_completion(self):
        # mirrors the inconsistent treatment rule: 1/13 + 4/13 with an
        # explicit empty outcome must not be silently completed
        report = validate(
            "maxinst 2\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A causes-one-of {({F=b}, 1/13), ({}, 4/13)}\n")
        assert "weights sum to 5/13" in str(report)

    def test_overweight_head(self):
        report = validate(
            "maxinst 2\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A causes-one-of {({F=b}, 3/4), ({}, 1/2)}\n")
        assert "weights sum to 5/4" in str(report)

    def test_weight_sum_too_long_to_print(self):
        # each weight is a short enough token, but their sum has 8,001
        # digits over 8,001: more than one str() call may produce
        d = 10**4000
        report = validate(
            "maxinst 2\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            f"A causes-one-of {{({{F=b}}, 1/{d + 1}), ({{F=a}}, 1/{d + 3}), ({{}}, 1/2)}}\n")
        assert str(report) == ("line 5, col 1: causes-one-of weights sum to a fraction "
                               "of 8001 digits over 8001 digits, expected 1")


VALID_PREFIX = ("maxinst 3\nfluent F takes-values {a, b}\naction A\n"
                "initially-one-of {({F=a}, 1)}\n")

# the implicit ({}, 1) completes the head, so only the weight is at fault
LONE_ZERO_WEIGHT = VALID_PREFIX + "A causes-one-of {({F=b}, 0)}\n"

BAD_DOMAINS = [
    ("duplicate v-prop",
     VALID_PREFIX + "fluent F takes-values {a, b}\n",
     "duplicate value declaration"),
    ("i-prop missing",
     "maxinst 3\nfluent F takes-values {a, b}\n",
     "no i-proposition"),
    ("two i-props",
     VALID_PREFIX + "initially-one-of {({F=b}, 1)}\n",
     "more than one i-proposition"),
    ("i-prop weights",
     "maxinst 3\nfluent F takes-values {a, b}\n"
     "initially-one-of {({F=a}, 1/2), ({F=b}, 1/4)}\n",
     "weights sum to 3/4"),
    ("i-prop not total",
     "maxinst 3\nfluent F takes-values {a, b}\n"
     "fluent G takes-values {c, d}\ninitially-one-of {({F=a}, 1)}\n",
     "must assign every fluent"),
    ("duplicate occurrence",
     VALID_PREFIX + "A performed-at 1\nA performed-at 1 with-prob 1/2\n",
     "duplicate occurrence"),
    ("occurrence at maxinst",
     VALID_PREFIX + "A performed-at 3\n",
     "must be below maxinst"),
    ("body entails no action",
     VALID_PREFIX + "F=a causes-one-of {({F=b}, 1)}\n",
     "does not entail any action"),
    ("body entailment pair",
     VALID_PREFIX + "A causes-one-of {({F=b}, 1)}\n"
     "A & F=a causes-one-of {({F=a}, 1)}\n",
     "entails the body"),
    ("duplicate effects",
     VALID_PREFIX + "A causes-one-of {({F=b}, 1/2), ({F=b}, 1/2)}\n",
     "duplicate effect"),
    ("fluent twice in an effect",
     VALID_PREFIX + "A causes-one-of {({F=a, F=b}, 1)}\n",
     "line 5, col 25: fluent F appears twice in one effect"),
    ("fluent twice in an initial outcome",
     VALID_PREFIX.replace("{F=a}", "{F=a, F=a}"),
     "line 4, col 26: fluent F appears twice in one effect"),
    ("unknown symbol",
     VALID_PREFIX + "A & G=a causes-one-of {({F=b}, 1)}\n",
     "unknown symbol G"),
    ("bad value",
     VALID_PREFIX + "A causes-one-of {({F=c}, 1)}\n",
     "not a possible value"),
    ("action in effect",
     VALID_PREFIX + "A causes-one-of {({A}, 1)}\n",
     "not a fluent"),
    ("occurrence probability zero",
     VALID_PREFIX + "A performed-at 1 with-prob 0/4\n",
     "outside (0,1]"),
    ("zero maxinst",
     "maxinst 0\nfluent F takes-values {a, b}\n"
     "initially-one-of {({F=a}, 1)}\n",
     "maxinst must be at least 1"),
    ("duplicate maxinst",
     VALID_PREFIX + "maxinst 4\n",
     "line 5, col 1: duplicate maxinst statement"),
    ("duplicate value in one declaration",
     VALID_PREFIX.replace("{a, b}", "{a, b, a}"),
     "line 2, col 1: duplicate value a in declaration of F"),
    ("duplicate action",
     VALID_PREFIX + "action A\n",
     "line 5, col 1: duplicate action declaration A"),
    ("fluent and action",
     VALID_PREFIX + "action F\n",
     "line 1, col 1: F is declared as both fluent and action"),
    ("outcome weight zero",
     VALID_PREFIX + "A causes-one-of {({F=b}, 0), ({}, 1)}\n",
     "line 5, col 18: outcome weight 0 outside (0,1]"),
    ("outcome weight above one",
     VALID_PREFIX + "A causes-one-of {({F=b}, 3/2)}\n",
     "line 5, col 18: outcome weight 3/2 outside (0,1]"),
    ("occurrence of a fluent",
     VALID_PREFIX + "F performed-at 1\n",
     "line 5, col 1: F is a fluent, not an action"),
    ("occurrence probability above one",
     VALID_PREFIX + "A performed-at 1 with-prob 3/2\n",
     "line 5, col 1: occurrence probability 3/2 outside (0,1]"),
    ("decimal occurrence probability above one",
     VALID_PREFIX + "A performed-at 1 with-prob 1.5\n",
     "line 5, col 1: occurrence probability 3/2 outside (0,1]"),
    ("initial outcome weight zero",
     VALID_PREFIX.replace("({F=a}, 1)", "({F=a}, 0), ({F=b}, 1)"),
     "line 4, col 19: outcome weight 0 outside (0,1]"),
    ("decimal outcome weight zero",
     VALID_PREFIX + "A causes-one-of {({F=b}, 0.0), ({}, 1)}\n",
     "line 5, col 18: outcome weight 0 outside (0,1]"),
    ("lone zero weight, completed to one",
     LONE_ZERO_WEIGHT, "line 5, col 18: outcome weight 0 outside (0,1]"),
]


class TestValidation:
    @pytest.mark.parametrize("label,text,fragment", BAD_DOMAINS,
                             ids=[b[0] for b in BAD_DOMAINS])
    def test_rejects(self, label, text, fragment):
        report = validate(text)
        assert not report.ok()
        assert fragment in str(report)

    def test_every_issue_has_a_location(self):
        for _, text, _ in BAD_DOMAINS:
            for issue in validate(text).issues:
                assert issue.line >= 1 and issue.col >= 1

    def test_completed_zero_weight_is_one_issue(self):
        assert str(validate(LONE_ZERO_WEIGHT)) == \
            "line 5, col 18: outcome weight 0 outside (0,1]"

    def test_conditions_cited(self):
        report = validate(VALID_PREFIX +
                          "A performed-at 1\nA performed-at 1\n")
        assert "(iv)" in str(report)

    def test_collects_rather_than_failing_fast(self):
        report = validate(
            "maxinst 3\nfluent F takes-values {a, b}\n"
            "A performed-at 5\n")
        text = str(report)
        assert "no i-proposition" in text
        assert "unknown action A" in text

    def test_shipped_domains_are_clean(self, coin, antibiotic, keys):
        from conftest import EXAMPLES
        for name in ("coin.pec", "antibiotic.pec", "keys.pec"):
            assert validate((EXAMPLES / name).read_text()).ok()


class TestSyntaxErrors:
    @pytest.mark.parametrize("text", [
        "fluent takes-values {a}",
        "maxinst x",
        "fluent F takes-values {a, b",
        "initially-one-of {({F=a} 1)}",
        "$",
    ])
    def test_raises_with_location(self, text):
        with pytest.raises(PecSyntaxError) as err:
            parse_domain(text)
        assert "line" in str(err.value)

    @pytest.mark.parametrize("weight,message,col", [
        ("1/0", "zero denominator", 28),
        ("x", "expected a probability", 26),
    ])
    def test_bad_weight(self, weight, message, col):
        with pytest.raises(PecSyntaxError) as err:
            parse_domain(VALID_PREFIX + f"A causes-one-of {{({{F=b}}, {weight})}}\n")
        assert str(err.value) == f"line 5, col {col}: {message}"
        assert (err.value.line, err.value.col) == (5, col)

    def test_location_points_at_the_offending_line(self):
        text = "maxinst 3\nfluent F takes-values {a, b}\n  fluent ? oops\n"
        with pytest.raises(PecSyntaxError) as err:
            parse_domain(text)
        assert err.value.line == 3 and err.value.col == 10


# (label, input kind, text, message, line, col): a tab or a lone '\r' is one
# column, and '\r\n' ends a line like '\n'
LONG = "1" * 5000
POSITIONS = [
    ("comment-lines", "domain", "% header\n% more\nmaxinst x\n",
     "expected an instant bound, found 'x'", 3, 9),
    ("tabs", "domain", "maxinst 3\n\tfluent\tF\ttakes-values\t{a,\t}\n",
     "expected a value name, found '}'", 2, 28),
    ("lone-cr", "domain", "maxinst\r\tx",
     "expected an instant bound, found 'x'", 1, 10),
    ("crlf", "domain", "maxinst 3\r\nmaxinst x\r\n",
     "expected an instant bound, found 'x'", 2, 9),
    ("crlf-comments", "domain",
     "maxinst 3 % bound\r\n%\r\n  fluent F takes-values {a, b}}",
     "expected a literal or '('", 3, 31),
    ("crlf-end-of-input", "domain",
     "maxinst 3\r\nfluent F takes-values {a}\r\naction\r\n",
     "expected an action name, found end of input", 4, 1),
    ("end-of-input", "domain", "maxinst 3\nfluent F takes-values {a, b",
     "expected '}', found end of input", 2, 28),
    ("after-comment", "domain", "maxinst 3 % bound\n$",
     "unexpected character '$'", 2, 1),
    ("vertical-tab-after-comment", "domain", "maxinst 3\n% c\n\x0bfluent",
     "unexpected character '\\x0b'", 3, 1),
    ("lone-dash", "domain", "maxinst 3\nA - B",
     "unexpected character '-'", 2, 3),
    # numbers are ASCII digits only: other Unicode digits are not read as them
    ("arabic-indic-maxinst", "domain", "maxinst ٣\n",
     "unexpected character '٣'", 1, 9),
    ("arabic-indic-weight", "domain",
     "maxinst 3\nfluent F takes-values {a, b}\n"
     "initially-one-of {({F=a}, ٠.٥), ({F=b}, 0.5)}\n",
     "unexpected character '٠'", 3, 27),
    ("arabic-indic-instant", "domain", VALID_PREFIX + "A performed-at ١\n",
     "unexpected character '١'", 5, 16),
    ("issue-on-later-line", "validate",
     VALID_PREFIX + "\n% later\n  A performed-at 7\n",
     "occurrence instant 7 must be below maxinst 3", 7, 3),
    ("crlf-issue-after-tab", "validate",
     VALID_PREFIX + "\r\n\tA performed-at 1\r\n\tA performed-at 1\r\n",
     "duplicate occurrence of A at instant 1 (condition (iv))", 7, 2),
    ("query-action-value", "query", "[Coin=Heads]@1 & [Toss=maybe]@2",
     "maybe is not a possible value of action Toss", 1, 19),
    ("query-later-line", "query", "[Coin=Heads]@1 &\n  [Wind=x]@2",
     "unknown symbol Wind", 2, 4),
    ("query-inside-disjunction", "query",
     "[Coin=Heads]@1 & [Coin=Heads | Coin=Side]@2",
     "Side is not a possible value of Coin", 1, 32),
    ("query-instant-after-tab", "query", "[Coin=Heads]@1 & [\tToss]@7",
     "instant 7 beyond maxinst 3", 1, 20),
    ("query-end-of-input", "query", "[Coin=Heads]@1 & [Coin=Heads]@",
     "expected an instant, found end of input", 1, 31),
    # past the 4,300 digits int() reads: a located error, not a ValueError
    ("long-maxinst", "domain", f"maxinst {LONG}\n",
     "number too long (5000 digits)", 1, 9),
    ("long-occurrence-instant", "domain", VALID_PREFIX + f"A performed-at {LONG}\n",
     "number too long (5000 digits)", 5, 16),
    ("long-query-instant", "query", f"[Coin=Heads]@1 & [Toss]@{LONG}",
     "number too long (5000 digits)", 1, 25),
    ("long-numerator", "domain", VALID_PREFIX + f"A causes-one-of {{({{F=b}}, {LONG}/2)}}",
     "number too long (5000 digits)", 5, 26),
    ("long-denominator", "domain", VALID_PREFIX + f"A causes-one-of {{({{F=b}}, 1/{LONG})}}",
     "number too long (5000 digits)", 5, 28),
    ("long-decimal", "domain", VALID_PREFIX + f"A causes-one-of {{({{F=b}}, 0.{LONG})}}",
     "number too long (5001 digits)", 5, 26),
    # each part is short enough, but their 8,000 digits are not
    ("long-decimal-parts", "domain",
     VALID_PREFIX + f"A causes-one-of {{({{F=b}}, {LONG[:4000]}.{LONG[:4000]})}}",
     "number too long (8000 digits)", 5, 26),
]


@pytest.mark.parametrize("kind,text,message,line,col",
                         [row[1:] for row in POSITIONS],
                         ids=[row[0] for row in POSITIONS])
def test_message_and_position(coin, kind, text, message, line, col):
    if kind == "validate":
        (found,) = validate(text).issues
    else:
        with pytest.raises(PecSyntaxError) as err:
            if kind == "domain":
                parse_domain(text)
            else:
                parse_query(text, coin.signature)
        found = err.value
    assert str(found) == f"line {line}, col {col}: {message}"
    assert (found.line, found.col) == (line, col)


# the lexer's alphabet, plus characters and fragments it must reject
SOUP = ["maxinst", "fluent", "action", "takes-values", "initially-one-of",
        "causes-one-of", "performed-at", "with-prob", "Coin", "Heads", "Toss",
        "F", "a", "true", "0", "1", "3", "0.5", "49/100", "{", "}", "(", ")",
        ",", "=", "!", "&", "|", "@", "[", "]", "/", "->", " ", "\n", "% c\n",
        "\r", "\t", "\x0b", "$", "-"]


def test_arbitrary_text_raises_only_pec_errors(coin):
    # token soups, mutated shipped domains and random ASCII: any other
    # exception (an IndexError past the eof tokens, say) fails the test
    from conftest import EXAMPLES
    rng = random.Random(14)
    shipped = [(EXAMPLES / name).read_text()
               for name in ("coin.pec", "antibiotic.pec", "keys.pec")]
    for k in range(3000):
        if k % 3 == 0:
            text = "".join(rng.choice(SOUP) for _ in range(rng.randint(0, 30)))
        elif k % 3 == 1:
            text = rng.choice(shipped)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(text) + 1)  # cut up to 5 chars, insert one
                text = text[:i] + rng.choice(SOUP) + text[i + rng.randrange(6):]
        else:
            text = "".join(chr(rng.randrange(128)) for _ in range(rng.randint(0, 60)))
        for check in (validate, lambda t: parse_query(t, coin.signature)):
            try:
                check(text)
            except PecError:
                pass


# sha256 of every outcome below, as computed before the lexer kept token
# positions on demand: any change to a message, a line or a column moves it
POSITION_DIGEST = "93a8a76c4f7ba424a3a222be6c5605f88e67d86e8c511427711fff51570abc60"
MUTATION_ALPHABET = SOUP + ["%", "\xff", "é", "\r\n", "1/0", "0.25", "X", "Go"]


def _outcome(run):
    try:
        result = run()
    except PecSyntaxError as err:
        return "syntax", str(err), err.line, err.col
    except DomainValidationError as err:
        return "invalid", [(i.message, i.line, i.col, i.condition)
                           for i in err.report.issues]
    except PecError as err:
        return type(err).__name__, str(err)
    if isinstance(result, ValidationReport):
        return "report", [(i.message, i.line, i.col, i.condition)
                          for i in result.issues]
    return "ok", render(result) if isinstance(result, DomainDescription) \
        else format_formula(result)


def test_position_digest(coin):
    # seeded insertions, deletions and reversals of the shipped domains,
    # random domains and queries, each read as a domain, a report and a query
    from conftest import EXAMPLES
    rng = random.Random(22)
    seeds = [(EXAMPLES / name).read_text()
             for name in ("coin.pec", "antibiotic.pec", "keys.pec")]
    seeds += [render(random_domain(rng)) for _ in range(12)]
    seeds += ["[Coin=Heads]@2 & ![Coin=Tails]@3",
              "[Coin=Heads | Toss]@1 -> !([Coin=Tails]@0 & [!Toss]@2)"]
    digest = hashlib.sha256()
    for _ in range(3000):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            j = min(len(text), i + rng.randint(1, 8))
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
            elif edit == 1:
                text = text[:i] + text[j:]
            else:
                text = text[:i] + text[i:j][::-1] + text[j:]
        for run in (lambda: validate(text), lambda: parse_domain(text),
                    lambda: parse_query(text, coin.signature)):
            digest.update(repr(_outcome(run)).encode())
    assert digest.hexdigest() == POSITION_DIGEST


# sha256 of every report below, as computed before weights were range-checked
# on numerator and denominator and each head was summed once
WEIGHT_DIGEST = "655c582276ba31724a9066275e774adf4fd26b59a24de63e087cfd1be0041b9f"
_WEIGHT = re.compile(r"(?<=, )[0-9./]+(?=\))|(?<=with-prob )[0-9./]+")


def _weight_text(rng, weight):
    """Zero, above one, ``weight`` nudged just above or below, or itself."""
    w = Fraction(weight)
    return rng.choice(["0", "0.0", "3/2", "1.5", "1", str(w), str(w + Fraction(1, 1000)),
                       str(w - Fraction(1, 1000)), str(w + Fraction(1, 10**30))])


def test_weight_report_digest():
    # seeded random domains with some weights, occurrence probabilities and
    # explicit ({}, w) outcomes perturbed: the reports keep their text and order
    rng = random.Random(25)
    digest = hashlib.sha256()
    for _ in range(300):
        text = render(random_domain(rng, max_cprops=3))
        text = _WEIGHT.sub(lambda m: _weight_text(rng, m.group())
                           if rng.random() < 0.3 else m.group(), text)
        text = re.sub("causes-one-of {", lambda m: m.group() + (
            f"({{}}, {_weight_text(rng, Fraction(rng.randint(1, 9), 10))}), "
            if rng.random() < 0.3 else ""), text)
        text = re.sub(r"performed-at \d+$", lambda m: m.group() + (
            f" with-prob {_weight_text(rng, 1)}" if rng.random() < 0.3 else ""),
            text, flags=re.MULTILINE)
        digest.update(str(validate(text)).encode() + b"\0")
    assert digest.hexdigest() == WEIGHT_DIGEST


def _rule_heavy_text(rules=20, maxinst=50):
    """Rule k's body is `A & G=Vk & <extra>`: an action, a guard of its own
    and two X literals of its own joined by `|`, `->` or `!(.. & ..)`; two
    occurrences at every instant."""
    vals = ", ".join(f"V{j}" for j in range(1, rules + 1))
    acts = ("Go", "Stop", "Wait")
    lines = [f"maxinst {maxinst}", f"fluent G takes-values {{{vals}}}"]
    lines += [f"fluent X{i} takes-values {{{vals}}}" for i in range(1, 5)]
    lines += [f"action {a}" for a in acts]
    lines.append("initially-one-of {({G=V1, X1=V1, X2=V1, X3=V1, X4=V1}, 1/3), "
                 "({G=V1, X1=V2, X2=V1, X3=V1, X4=V1}, 2/3)}")
    for k in range(1, rules + 1):
        a, b = f"X{k % 4 + 1}=V{k}", f"X{(k + 1) % 4 + 1}=V{k}"
        extra = (f"({a} | {b})", f"({a} -> {b})", f"!({a} & {b})")[k % 3]
        lines.append(f"{acts[k % 3]} & G=V{k} & {extra} causes-one-of "
                     f"{{({{X1=V{k}, G=V1}}, 9/20), ({{}}, 0.55)}}")
    lines += [f"{a} performed-at {i}" + ("", " with-prob 1/2", " with-prob 0.9")[i % 3]
              for i in range(maxinst) for a in acts[i % 2:][:2]]
    return "\n".join(lines) + "\n"


def test_a_valid_text_computes_no_position(monkeypatch):
    from conftest import EXAMPLES
    from pec import syntax

    def refuse(parser, k):
        raise AssertionError("a token position was computed")
    texts = [(EXAMPLES / name).read_text()
             for name in ("coin.pec", "antibiotic.pec", "keys.pec")]
    texts.append(_rule_heavy_text())
    monkeypatch.setattr(syntax._Parser, "where", refuse)
    for text in texts:
        assert validate(text).ok()
        dd = parse_domain(text)
    assert (len(dd.cprops), len(dd.pprops), dd.signature.maxinst) == (20, 100, 50)
    with pytest.raises(AssertionError, match="position was computed"):
        parse_domain(texts[-1] + "%\n$")


def test_many_issues_are_located_in_linear_time():
    # positions come from offsets scanned once: counting the newlines before
    # each issue's token took 4.4-6.6 s for this text on a 2-core x86-64 VM
    # (Python 3.11), the scan and bisection 0.5 s
    text = VALID_PREFIX + "A performed-at 1\n" * 30000
    start = time.process_time()
    issues = validate(text).issues
    elapsed = time.process_time() - start
    assert len(issues) == 29999
    assert (issues[-1].line, issues[-1].col) == (30004, 1)
    assert elapsed < 1.5, f"validation took {elapsed:.2f} s"


def _entailment_issues(text, bodies, actions):
    """What validation reports about entailment, and what plain
    herbrand_entails says it should, for rule bodies on lines 1.. of text."""
    got = [(i.line, i.message) for i in validate(text).issues if "entail" in i.message]
    expected = []
    for i, body in enumerate(bodies, 1):
        if not any(herbrand_entails(body, Lit(a, TRUE)) for a in actions):
            expected.append((i, "causal rule body does not entail any action"))
        expected += [(i, f"causal rule body entails the body of the rule at line {j}")
                     for j, other in enumerate(bodies, 1)
                     if i != j and herbrand_entails(body, other)]
    return got, sorted(expected)


def _rules_text(bodies, tail):
    return "".join(f"{format_formula(b)} causes-one-of {{({{}}, 1)}}\n"
                   for b in bodies) + tail


def test_entailment_filter_agrees_with_the_tableau():
    # condition (i) and "entails an action", checked pair by pair against
    # the tableau on random bodies that share some literals and not others
    rng = random.Random(23)
    for _ in range(300):
        dd = random_domain(rng, max_cprops=3)
        sig = dd.signature
        bodies = [c.body for c in dd.cprops]
        bodies += [random_formula(rng, sig, depth=rng.randint(1, 3)) for _ in range(3)]
        bodies += [And(random_formula(rng, sig, depth=1), random_formula(rng, sig, depth=2))
                   for _ in range(2)]
        tail = render(replace(dd, cprops=()))  # declarations and narrative
        got, expected = _entailment_issues(_rules_text(bodies, tail), bodies, sig.actions)
        assert got == expected


def test_entailment_filter_special_bodies():
    a, f = Lit("A", TRUE), Lit("F", "a")
    bodies = [And(a, Not(a)),  # unsatisfiable: entails every other body
              And(a, Or(f, Not(f))),  # a tautological conjunct
              And(a, Not(f)),  # a negated conjunct
              And(Lit("B", TRUE), Not(f))]  # mentions no literal of the others
    got, expected = _entailment_issues(_rules_text(bodies, VALID_PREFIX), bodies, "A")
    assert got == expected == [
        (1, "causal rule body entails the body of the rule at line 2"),
        (1, "causal rule body entails the body of the rule at line 3"),
        (1, "causal rule body entails the body of the rule at line 4"),
        (3, "causal rule body entails the body of the rule at line 2"),
        (4, "causal rule body does not entail any action")]


class TestParseQuery:
    def test_single_literal(self, coin):
        assert parse_query("[Coin=Heads]@2", coin.signature) == \
            ILit("Coin", "Heads", 2)

    def test_conjunction(self, coin):
        phi = parse_query("[Coin=Heads]@1 & [Coin=Tails]@3", coin.signature)
        assert phi == And(ILit("Coin", "Heads", 1), ILit("Coin", "Tails", 3))

    def test_stamp_distributes(self, coin):
        phi = parse_query("[Coin=Heads -> Coin=Heads]@0", coin.signature)
        assert phi == Implies(ILit("Coin", "Heads", 0), ILit("Coin", "Heads", 0))

    def test_boolean_shorthand(self, coin):
        assert parse_query("[Toss]@1", coin.signature) == ILit("Toss", TRUE, 1)
        assert parse_query("[!Toss]@1", coin.signature) == ILit("Toss", FALSE, 1)

    @pytest.mark.parametrize("text,fragment", [
        ("[Coin=Heads]@9", "beyond maxinst"),
        ("[Wind=Heads]@1", "unknown symbol"),
        ("[Coin=Sideways]@1", "not a possible value"),
        ("[Coin=Heads]@1 extra", "unexpected input"),
        ("[Coin=Heads]", "expected"),
    ])
    def test_rejects(self, coin, text, fragment):
        with pytest.raises(PecSyntaxError) as err:
            parse_query(text, coin.signature)
        assert fragment in str(err.value)

    def test_action_value_names_the_action(self, coin):
        with pytest.raises(PecSyntaxError) as err:
            parse_query("[Toss=maybe]@1", coin.signature)
        assert "maybe is not a possible value of action Toss" in str(err.value)

    @pytest.mark.parametrize("text", [
        "(" * 600 + "[Coin=Heads]@2" + ")" * 600,
        "[" + "(" * 600 + "Coin=Heads" + ")" * 600 + "]@2",
    ], ids=["around-stamp", "inside-stamp"])
    def test_deep_parentheses(self, coin, text):
        # parsed without recursion, at the default recursion limit
        phi = parse_query(text, coin.signature)
        assert marginal(coin, phi) == Fraction(51, 100)


class TestRender:
    def test_round_trip_shipped(self, coin, antibiotic, keys):
        for dd in (coin, antibiotic, keys):
            assert parse_domain(render(dd)) == dd

    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(25):
            dd = random_domain(rng)  # generator already parses its render
            assert parse_domain(render(dd)) == dd

    def test_reduced_fractions(self, coin):
        text = render(coin)
        assert "49/100" in text
        assert "0.49" not in text

    def test_completed_outcome_is_explicit(self):
        dd = parse_domain(
            "maxinst 2\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A causes-one-of {({F=b}, 3/4)}\n")
        assert "({}, 1/4)" in render(dd)

    def test_formula_printer_round_trips(self):
        # negations, implications and mixed associativity all survive a
        # render/parse cycle when embedded as a rule body
        from pec import DomainSignature, format_formula
        rng = random.Random(53)
        sig = DomainSignature(("F", "G"), ("A",),
                              {"F": ("a", "b"), "G": ("a", "b")}, 2)
        from helpers import random_formula
        for _ in range(60):
            phi = random_formula(rng, sig, depth=4)
            text = ("maxinst 2\nfluent F takes-values {a, b}\n"
                    "fluent G takes-values {a, b}\naction A\n"
                    "initially-one-of {({F=a, G=a}, 1)}\n"
                    f"A & ({format_formula(phi)}) "
                    "causes-one-of {({F=b}, 1)}\n")
            parsed = parse_domain(text)
            assert parsed.cprops[0].body == And(Lit("A", TRUE), phi)

    def test_formula_printer_long_chain(self):
        lits = [Lit(f"X{i}", TRUE) for i in range(1400)]
        chain = lits[0]
        for lit in lits[1:]:
            chain = And(chain, lit)
        assert format_formula(chain) == " & ".join(f"X{i}" for i in range(1400))

    def test_long_body_compares_hashes_and_prints(self):
        # nodes are interned: ==, hash and repr never recurse into a body
        n = 1500
        text = ("maxinst 2\n"
                + "".join(f"fluent X{i} takes-values {{true, false}}\n"
                          for i in range(n))
                + "action A\ninitially-one-of {({"
                + ", ".join(f"X{i}" for i in range(n)) + "}, 1)}\n"
                + "A & " + " & ".join(f"X{i}" for i in range(n))
                + " causes-one-of {({X0}, 1)}\nA performed-at 0\n")
        dd = parse_domain(text)
        assert parse_domain(text) == dd
        body = dd.cprops[0].body
        assert hash(body) == hash(parse_domain(text).cprops[0].body)
        assert repr(body) == f"And({format_formula(body)!r})"
        assert repr(body) in repr(dd)


def _kind(statement):
    first = statement.split()[0]
    if first in ("maxinst", "fluent", "action", "initially-one-of"):
        return first
    return "performed-at" if " performed-at " in statement else "causes-one-of"


def _interleave(rng, statements):
    """The statements in a random order that keeps each kind's order."""
    queues = {}
    for statement in statements:
        queues.setdefault(_kind(statement), []).append(statement)
    queues = list(queues.values())
    out = []
    while queues:
        queue = rng.choice(queues)
        out.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return out


def _statements(dd):
    return [line for line in render(dd).splitlines() if line]


class TestStatementOrder:
    def test_kinds_interleave_freely(self, coin, antibiotic, keys):
        rng = random.Random(71)
        domains = [coin, antibiotic, keys] + [random_domain(rng) for _ in range(30)]
        for dd in domains:
            for _ in range(5):
                mixed = parse_domain("\n".join(_interleave(rng, _statements(dd))))
                assert mixed == dd
                assert render(mixed) == render(dd)
                assert emit(mixed) == emit(dd)

    def test_fluent_order_is_signature_order(self, antibiotic):
        lines = _statements(antibiotic)
        first, second = [i for i, s in enumerate(lines) if _kind(s) == "fluent"]
        lines[first], lines[second] = lines[second], lines[first]
        swapped = parse_domain("\n".join(lines))
        assert swapped.signature.fluents == ("Rash", "Bacteria")
        assert [v.fluent for v in swapped.vprops] == ["Rash", "Bacteria"]

    def test_rule_order_numbers_outcome_constants(self, antibiotic):
        lines = _statements(antibiotic)
        weak, resistant = [i for i, s in enumerate(lines)
                           if _kind(s) == "causes-one-of"]
        program = emit(antibiotic)
        lines[weak], lines[resistant] = lines[resistant], lines[weak]
        swapped = emit(parse_domain("\n".join(lines)))
        assert "causesOutcome((id_1_1, 7/10), I)" in program
        assert "causesOutcome((id_1_1, 1/13), I)" in swapped
        assert "causesOutcome((id_2_1, 7/10), I)" in swapped

    def test_occurrence_order_is_draw_order(self):
        head = ("maxinst 3\nfluent F takes-values {a, b}\naction A\n"
                "initially-one-of {({F=a}, 1)}\nA causes-one-of {({F=b}, 1)}\n")
        early = "A performed-at 1 with-prob 9/10\n"
        late = "A performed-at 2 with-prob 1/10\n"
        forward = parse_domain(head + early + late)
        backward = parse_domain(head + late + early)
        assert [p.instant for p in forward.pprops] == [1, 2]
        assert [p.instant for p in backward.pprops] == [2, 1]
        query = parse_query("[F=b]@3", forward.signature)
        assert marginal(forward, query) == marginal(backward, query)
        # the sampler draws for the occurrences in pprops order
        assert any(sample_world(forward, seed) != sample_world(backward, seed)
                   for seed in range(20))

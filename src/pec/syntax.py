"""Concrete textual grammar for probabilistic event calculus domains.

A domain file declares fluents with their value sets, actions, the
instant window, one initial distribution, causal rules and action
occurrences::

    % coin that lands heads or tails, tossed once
    maxinst 3
    fluent Coin takes-values {Heads, Tails}
    action Toss
    initially-one-of {({Coin=Heads}, 1)}
    Toss causes-one-of {({Coin=Heads}, 49/100), ({Coin=Tails}, 49/100)}
    Toss performed-at 1

Comments run from ``%`` to end of line.  Whitespace is insignificant.
Probabilities are fractions (``49/100``), decimals (``0.49``, converted
exactly) or ``1``.  Bare ``X`` / ``!X`` in formulas and effects
abbreviate ``X=true`` / ``X=false``.  A causal rule whose head weights
sum to ``s < 1`` and which has no explicit empty effect gets an implicit
``({}, 1-s)`` outcome; an explicit empty effect disables completion.

Queries are instant-stamped formulas such as
``[Coin=Heads]@2 & ![Coin=Tails]@3``.

Text becomes a domain in four steps.  One ``findall`` cuts it into two
flat lists, token texts and kinds, with whitespace and comments absorbed
before each token; a token is its index, and its (line, col) is computed
only when an error or an ``Issue`` needs one, from offsets scanned once,
so a valid text computes no position.  The parser files each statement,
with its token index, under its kind (``fluent`` as a ``VProp``, rules
as raw rules); ``_validate_statements`` reports every violated condition
at its location; ``parse_domain`` builds the location-free
``DomainDescription``.  Statements may come in any order; within a kind,
source order is kept.  A weight becomes a ``Fraction`` once per distinct
text, its range is checked on the numerator and denominator, and the
parser sums each head once.

Condition (i) asks whether one rule body entails another.  Literals are
independent Herbrand atoms, so a satisfiable body cannot entail a formula
one of whose conjuncts (a literal on every branch of its tableau) has an
atom the body never mentions: flipping that atom in a model of the body
falsifies the conjunct and keeps the body true.  Only the pairs that this
test does not refute, and unsatisfiable bodies, go to ``herbrand_entails``;
so does "the body entails an action".
"""

from __future__ import annotations

import bisect
import re
from collections.abc import Container, Iterable, Mapping, Sequence
from fractions import Fraction

from .core import (
    And,
    DomainSignature,
    Formula,
    IFormula,
    ILit,
    Implies,
    Lit,
    Not,
    Or,
    Outcome,
    PecError,
    Record,
    TRUE,
    FALSE,
    at_instant,
    conjunct_atoms,
    fold,
    fraction_text,
    herbrand_entails,
    int_text,
    open_branches,
    outcomes_weight,
)

# ---------------------------------------------------------------------------
# Errors and reports


class PecSyntaxError(PecError):
    """Lexical or grammatical error, with source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class Issue(Record):
    """One violated well-formedness condition, tied to a source location."""

    message: str
    line: int
    col: int
    condition: str | None = None

    def __str__(self) -> str:
        tag = f" (condition {self.condition})" if self.condition else ""
        return f"line {self.line}, col {self.col}: {self.message}{tag}"


class ValidationReport(Record):
    issues: tuple[Issue, ...]

    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        return "\n".join(str(i) for i in self.issues)


class DomainValidationError(PecError):
    """Raised by parse_domain when the text is not a valid domain."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


# ---------------------------------------------------------------------------
# Propositions


class VProp(Record):
    fluent: str
    values: tuple[str, ...]


class CProp(Record):
    body: Formula
    head: tuple[Outcome, ...]


class IProp(Record):
    head: tuple[Outcome, ...]


class PProp(Record):
    action: str
    instant: int
    prob: Fraction

    def __post_init__(self):  # anything Fraction accepts, stored as Outcome stores its weight
        if type(prob := self.prob) is not Fraction:
            object.__setattr__(self, "prob", Fraction(prob))


class HProposition(Record):
    """A judgment that a query holds with a given probability."""

    query: IFormula
    prob: Fraction


class DomainDescription(Record):
    signature: DomainSignature
    vprops: tuple[VProp, ...]
    cprops: tuple[CProp, ...]
    pprops: tuple[PProp, ...]
    iprop: IProp


# ---------------------------------------------------------------------------
# Lexer

# Whitespace and comments are absorbed before each token, and a token is a
# keyword, a name, a number, a punctuation mark, any other single character
# or the empty end of input: so the matches tile the text, never backtrack
# into skipped text, and the last one is empty.
_TOKEN_RE = re.compile(r"""(?:[ \t\r\n]+|%[^\n]*)*
    ( (?:takes-values|initially-one-of|causes-one-of|performed-at|with-prob)(?![A-Za-z0-9_-])
    | [A-Za-z][A-Za-z0-9_]* | [0-9]+(?:\.[0-9]+)? | -> | [{}(),=!&|@\[\]/] | . | \Z )""",
    re.VERBOSE | re.DOTALL)
# kind: "id", "nat", "dec", "bad", "eof", or the text of a keyword or punctuation mark
_KINDS = {text: text for text in "takes-values initially-one-of causes-one-of "
          "performed-at with-prob -> { } ( ) , = ! & | @ [ ] /".split()} | {"": "eof"}
_ONE = Fraction(1)  # shared by every certain occurrence and every weight written "1"


# ---------------------------------------------------------------------------
# Statements by kind (pre-validation)


class _RawOutcome(Record):
    literals: list[tuple[str, str, int]]  # subject, value, token index
    weight: Fraction
    loc: int

    def effect(self) -> dict[str, str]:
        return {s: v for s, v, _ in self.literals}


class _RawRule(Record):
    """A causal rule, or the initial distribution when ``body`` is None."""

    outcomes: list[_RawOutcome]
    loc: int
    total: Fraction  # the weights' sum, 1 after an implicit completion
    body: Formula | None = None
    body_lits: Sequence[tuple[str, str, int]] = ()

    def head(self) -> tuple[Outcome, ...]:
        return tuple(Outcome(o.effect(), o.weight) for o in self.outcomes)


class _Statements:
    """A domain text's statements filed by kind, each kind in source order: rules
    as ``_RawRule``s, the rest as (statement, token index) pairs, and ``where``."""

    def __init__(self, where):
        self.where = where
        self.vprops, self.actions, self.maxinsts = [], [], []
        self.iprops, self.cprops, self.pprops = [], [], []


class _Parser:
    def __init__(self, text: str):
        # two more eofs: the parser looks at most two tokens past the current one
        self.texts = texts = _TOKEN_RE.findall(text) + ["", ""]
        kind = dict(_KINDS)
        for t in set(texts).difference(kind):  # names and numbers are ASCII
            c = t[0] if t.isascii() else "?"
            kind[t] = "id" if c.isalpha() else \
                ("dec" if "." in t else "nat") if c.isdigit() else "bad"
        self.kinds = list(map(kind.__getitem__, texts))
        self.text, self.starts, self.pos, self.fractions = text, None, 0, {"1": _ONE}
        if "bad" in kind.values():
            k = self.kinds.index("bad")
            self.error(f"unexpected character {texts[k]!r}", k)

    def where(self, k: int) -> tuple[int, int]:
        """(line, col) of token ``k``, from offsets scanned on first use."""
        if self.starts is None:
            self.starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
            self.breaks = [m.start() for m in re.finditer("\n", self.text)]
        at = self.starts[min(k, len(self.starts) - 1)]
        line = bisect.bisect(self.breaks, at)
        return line + 1, at - (self.breaks[line - 1] if line else -1)

    def expect(self, kind: str, what: str | None = None) -> str:
        """The text of the current token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            found = repr(self.texts[pos]) if self.texts[pos] else "end of input"
            self.error(f"expected {what or repr(kind)}, found {found}")
        self.pos = pos + 1
        return self.texts[pos]

    def error(self, message: str, k: int | None = None):
        raise PecSyntaxError(message, *self.where(self.pos if k is None else k))

    def number(self, kind: str, what: str) -> int | Fraction:
        """The current token, of ``kind``, as an int (``nat``) or a Fraction
        (``dec``): its digits read as one int, so that the value prints."""
        text = self.expect(kind, what)
        try:
            value = int(text.replace(".", ""))
        except ValueError:  # more digits than int() reads: a located error
            self.error(f"number too long ({len(text) - (kind == 'dec')} digits)", self.pos - 1)
        return value if kind == "nat" else Fraction(value, 10 ** (len(text) - 1 - text.index(".")))

    # -- statements --------------------------------------------------------

    def parse_statements(self) -> _Statements:
        found, kinds, texts = _Statements(self.where), self.kinds, self.texts
        while (kind := kinds[k := self.pos]) != "eof":
            text = texts[k]
            if text == "fluent":
                self.pos += 1
                name = self.expect("id", "a fluent name")
                self.expect("takes-values")
                values = self._braced(lambda: self.expect("id", "a value name"))
                found.vprops.append((VProp(name, tuple(values)), k))
            elif text == "action":
                self.pos += 1
                found.actions.append((self.expect("id", "an action name"), k))
            elif text == "maxinst":
                self.pos += 1
                found.maxinsts.append((self.number("nat", "an instant bound"), k))
            elif kind == "initially-one-of":
                self.pos += 1
                outcomes = self._braced(self._outcome)
                found.iprops.append(_RawRule(outcomes, k, outcomes_weight(outcomes)))
            elif kind == "id" and kinds[k + 1] == "performed-at":
                self.pos += 2  # the action name and performed-at
                instant = self.number("nat", "an instant")
                prob = _ONE
                if kinds[self.pos] == "with-prob":
                    self.pos += 1
                    prob = self._prob()
                found.pprops.append((PProp(text, instant, prob), k))
            else:
                found.cprops.append(self._cprop(k))
        return found

    def _cprop(self, loc: int) -> _RawRule:
        lits: list[tuple[str, str, int]] = []
        body = self._formula(lambda: self._body_atom(lits), _BODY_OPERAND)
        self.expect("causes-one-of")
        outcomes = self._braced(self._outcome)
        # Implicit empty outcome: only when weights fall short of 1 and no
        # explicit empty effect is present.
        total = outcomes_weight(outcomes)
        if total.numerator < total.denominator and all(o.literals for o in outcomes):
            outcomes.append(_RawOutcome([], 1 - total, loc))
            total = _ONE
        return _RawRule(outcomes, loc, total, body, lits)

    def _braced(self, item, empty_ok: bool = False) -> list:
        """``{item, item, ...}``, or ``{}`` when ``empty_ok``."""
        self.expect("{")
        items = []
        if not (empty_ok and self.kinds[self.pos] == "}"):
            items.append(item())
            while self.kinds[self.pos] == ",":
                self.pos += 1
                items.append(item())
        self.expect("}")
        return items

    def _outcome(self) -> _RawOutcome:
        start = self.pos
        self.expect("(")
        literals = self._braced(self._literal, empty_ok=True)
        self.expect(",")
        weight = self._prob()
        self.expect(")")
        return _RawOutcome(literals, weight, start)

    def _literal(self) -> tuple[str, str, int]:
        """``X=V``, or ``X`` / ``!X`` for ``X=true`` / ``X=false``."""
        if self.kinds[self.pos] == "!":
            self.pos += 1
            return self.expect("id", "a fluent name"), FALSE, self.pos - 1
        name = self.expect("id", "a fluent name")
        if self.kinds[self.pos] == "=":
            self.pos += 1
            return name, self.expect("id", "a value name"), self.pos - 3
        return name, TRUE, self.pos - 1

    def _prob(self) -> Fraction:
        """A probability, made a ``Fraction`` once per distinct text."""
        pos, kind = self.pos, self.kinds[self.pos]
        if kind not in ("dec", "nat"):
            self.error("expected a probability")
        over = kind == "nat" and self.kinds[pos + 1] == "/"
        key = self.texts[pos] + "/" + self.texts[pos + 2] if over else self.texts[pos]
        if (value := self.fractions.get(key)) is not None:  # a text read before
            self.pos += 3 if over else 1
            return value
        value = self.number(kind, "a probability")
        if over:
            self.pos += 1
            if (den := self.number("nat", "a denominator")) == 0:
                self.error("zero denominator", pos + 2)
        value = self.fractions[key] = Fraction(value, den) if over else Fraction(value)
        return value

    # -- formulas -----------------------------------------------------------
    # Precedence, loosest first: ->  |  &  !  atom.  -> is right-associative.

    def _formula(self, atom, expected: str) -> Formula | IFormula:
        """Operator-precedence parse of one formula, with explicit stacks.

        ``atom()`` parses the literal at the current token, or returns
        None when there is none; ``expected`` names what may start an
        operand, for the error when neither a literal nor '!' / '('
        does.
        """
        operands: list = []
        pending: list[str] = []  # "(", "!" and binary operators
        kinds = self.kinds
        while True:
            leaf = atom()
            if leaf is None:
                if kinds[self.pos] not in ("!", "("):
                    self.error(f"expected {expected}")
                pending.append(kinds[self.pos])
                self.pos += 1
                continue
            operands.append(leaf)
            while True:
                kind = kinds[self.pos]
                # A binary operator completes the pending ones that bind at
                # least as tightly (an earlier '->' stays: it is
                # right-associative); any other token completes them all,
                # back to the innermost '('.
                prec = _OPS[kind][0] + (kind == "->") if kind in _BINARY else 0
                while pending and pending[-1] != "(" and _OPS[pending[-1]][0] >= prec:
                    op, right = pending.pop(), operands.pop()
                    operands.append(Not(right) if op == "!"
                                    else _OPS[op][1](operands.pop(), right))
                if prec:
                    pending.append(kind)
                    self.pos += 1
                    break
                if not pending:
                    return operands[0]
                self.expect(")")
                pending.pop()

    def _body_atom(self, lits) -> Formula | None:
        kinds, pos = self.kinds, self.pos
        if kinds[pos] == "id" or (kinds[pos] == "!" and kinds[pos + 1] == "id"
                                  and kinds[pos + 2] != "="):
            lits.append(lit := self._literal())
            return Lit(lit[0], lit[1])
        return None

    def _stamped_atom(self, lits) -> IFormula | None:
        if self.kinds[self.pos] == "[":
            self.pos += 1
            inner_lits: list[tuple[str, str, int]] = []
            theta = self._formula(lambda: self._body_atom(inner_lits), _BODY_OPERAND)
            self.expect("]")
            self.expect("@")
            instant = self.number("nat", "an instant")
            lits.extend((*lit, instant) for lit in inner_lits)
            return at_instant(theta, instant)
        return None


_OPS = {"->": (1, Implies), "|": (2, Or), "&": (3, And), "!": (4, Not)}
_BINARY = ("->", "|", "&")
_BODY_OPERAND = "a literal or '('"


# ---------------------------------------------------------------------------
# Validation


def _literal_problem(subject: str, value: str, vals: Mapping[str, Container[str]],
                     actions: Container[str], effect: bool = False) -> str | None:
    """Why ``subject=value`` does not fit the declarations, or None."""
    if subject in actions:
        if effect:
            return (f"{subject} is an action, not a fluent; "
                    "effects may only mention fluents")
        if value not in (TRUE, FALSE):
            return f"{value} is not a possible value of action {subject}"
    elif subject not in vals:
        return f"unknown symbol {subject}"
    elif value not in vals[subject]:
        return f"{value} is not a possible value of {subject}"
    return None


def _validate_statements(found: _Statements) -> ValidationReport:
    issues: list[Issue] = []

    def add(message: str, k: int | None = None, condition: str | None = None):
        issues.append(Issue(message, *(found.where(k) if k is not None else (1, 1)),
                            condition=condition))

    maxinst = None
    if not found.maxinsts:
        add("missing maxinst statement")
    else:
        maxinst, k = found.maxinsts[0]
        if maxinst < 1:
            add("maxinst must be at least 1", k)
    for _, k in found.maxinsts[1:]:
        add("duplicate maxinst statement", k)

    sig_vals: dict[str, list[str]] = {}
    for v, k in found.vprops:
        if v.fluent in sig_vals:
            add(f"duplicate value declaration for fluent {v.fluent}", k, "(iii)")
            continue
        for x in sorted({x for x in v.values if v.values.count(x) > 1}):
            add(f"duplicate value {x} in declaration of {v.fluent}", k)
        sig_vals[v.fluent] = list(dict.fromkeys(v.values))
    actions: set[str] = set()
    for name, k in found.actions:
        if name in actions:
            add(f"duplicate action declaration {name}", k)
        actions.add(name)
    for name in sorted(set(sig_vals) & actions):
        add(f"{name} is declared as both fluent and action")
    if not sig_vals:
        add("at least one fluent must be declared")

    def check_literals(lits, effect=False):
        for subject, value, k in lits:
            problem = _literal_problem(subject, value, sig_vals, actions, effect)
            if problem:
                add(problem, k)

    def check_head(rule, what):
        for o in rule.outcomes:
            check_literals(o.literals, effect=True)
            named = [subject for subject, _, _ in o.literals]
            for n, (subject, _, k) in enumerate(o.literals):
                if subject in named[:n] and subject not in actions:
                    add(f"fluent {subject} appears twice in one effect", k)
            if not 0 < o.weight.numerator <= o.weight.denominator:  # 0 < weight <= 1
                add(f"outcome weight {o.weight} outside (0,1]", o.loc)
        if (total := rule.total) != 1:
            try:
                shown = str(total)
            except ValueError:  # more digits than one str() call may produce
                shown = (f"a fraction of {len(int_text(total.numerator))} digits over "
                         f"{len(int_text(total.denominator))} digits")
            add(f"{what} weights sum to {shown}, expected 1", rule.loc)
        effects = [o.effect() for o in rule.outcomes]
        for i, eff in enumerate(effects):
            if eff in effects[:i]:
                add(f"duplicate effect in {what}", rule.outcomes[i].loc)

    if not found.iprops:
        add("no i-proposition", condition="(ii)")
    for extra in found.iprops[1:]:
        add("more than one i-proposition", extra.loc, "(ii)")
    for rule in found.iprops:
        check_head(rule, "initially-one-of")
        for o in rule.outcomes:
            missing = sorted(set(sig_vals) - set(o.effect()))
            if missing:
                add("initial outcome must assign every fluent "
                    f"(missing {', '.join(missing)})", o.loc)

    # the tableau decides what the conjunct test does not refute (module docstring)
    mentions = [frozenset((s, v) for s, v, _ in r.body_lits) for r in found.cprops]
    needs = [conjunct_atoms(r.body) for r in found.cprops]
    for i, rule in enumerate(found.cprops):
        check_literals(rule.body_lits)
        check_head(rule, "causes-one-of")
        # None for an unsatisfiable body, which entails everything
        known = None if next(open_branches(rule.body), None) is None else mentions[i]
        if not any((known is None or (a, TRUE) in known)
                   and herbrand_entails(rule.body, Lit(a, TRUE)) for a in actions):
            add("causal rule body does not entail any action", rule.loc)
        for j, other in enumerate(found.cprops):
            if i != j and (known is None or needs[j] <= known) \
                    and herbrand_entails(rule.body, other.body):
                add("causal rule body entails the body of the rule at "
                    f"line {found.where(other.loc)[0]}", rule.loc, "(i)")

    seen_occurrences: set[tuple[str, int]] = set()
    for p, k in found.pprops:
        if p.action in sig_vals:
            add(f"{p.action} is a fluent, not an action", k)
        elif p.action not in actions:
            add(f"unknown action {p.action}", k)
        if maxinst is not None and p.instant >= maxinst:
            add(f"occurrence instant {p.instant} must be below maxinst {maxinst}", k)
        if not 0 < p.prob.numerator <= p.prob.denominator:
            add(f"occurrence probability {p.prob} outside (0,1]", k)
        if (p.action, p.instant) in seen_occurrences:
            add(f"duplicate occurrence of {p.action} at instant {p.instant}", k, "(iv)")
        seen_occurrences.add((p.action, p.instant))

    issues.sort(key=lambda i: (i.line, i.col, i.message))
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# Public entry points


def parse_domain(text: str) -> DomainDescription:
    """Parse and validate a domain description.

    Raises PecSyntaxError on lexical/grammatical problems and
    DomainValidationError (carrying the full report, not just the first
    problem) when the parsed statements violate a well-formedness
    condition.
    """
    found = _Parser(text).parse_statements()
    report = _validate_statements(found)
    if not report.ok():
        raise DomainValidationError(report)
    # valid: one maxinst, one i-proposition, no repeated fluent or action
    vals = {v.fluent: v.values for v, _ in found.vprops}
    actions = tuple(name for name, _ in found.actions)
    signature = DomainSignature(tuple(vals), actions, vals, found.maxinsts[0][0])
    cprops = tuple(CProp(r.body, r.head()) for r in found.cprops)
    (initial,) = found.iprops
    return DomainDescription(signature, tuple(v for v, _ in found.vprops), cprops,
                             tuple(p for p, _ in found.pprops), IProp(initial.head()))


def validate(text: str) -> ValidationReport:
    """Parse ``text`` and report every violated condition (empty = valid)."""
    return _validate_statements(_Parser(text).parse_statements())


def parse_query(text: str, signature: DomainSignature) -> IFormula:
    """Parse an instant-stamped query formula against a signature."""
    parser = _Parser(text)
    lits: list[tuple[str, str, int, int]] = []
    phi = parser._formula(lambda: parser._stamped_atom(lits), "'[' or '('")
    if parser.kinds[parser.pos] != "eof":
        parser.error(f"unexpected input after query: {parser.texts[parser.pos]!r}")
    for subject, value, k, instant in lits:
        problem = _literal_problem(subject, value, signature.vals, signature.actions)
        if not problem and instant > signature.maxinst:
            problem = f"instant {instant} beyond maxinst {signature.maxinst}"
        if problem:
            parser.error(problem, k)
    return phi


# ---------------------------------------------------------------------------
# Rendering

def _literal_text(subject: str, value: str) -> str:
    if value == TRUE:
        return subject
    if value == FALSE:
        return f"!{subject}"
    return f"{subject}={value}"


def _joiner(symbol: str, prec: int, right_assoc: bool = False):
    """Combiner for a binary connective over (text, precedence, _) values;
    an operand binding more loosely than its side allows gets parentheses."""
    def join(left, right):
        lt, lp, _ = left
        rt, rp, _ = right
        if lp < prec + right_assoc:
            lt = f"({lt})"
        if rp < prec + (not right_assoc):
            rt = f"({rt})"
        return f"{lt} {symbol} {rt}", prec, None
    return join


_FORMAT_OPS = {
    # never abbreviate under '!': !X would reparse as X=false
    Not: lambda arg: ("!" + (arg[2] or f"({arg[0]})"), 4, None),
    And: _joiner("&", 3),
    Or: _joiner("|", 2),
    Implies: _joiner("->", 1, right_assoc=True),
}


def format_formula(phi: Formula | IFormula) -> str:
    """Deterministic concrete syntax for a formula or query; reparses to itself."""
    def leaf(lit):
        text, full = _literal_text(lit.subject, lit.value), f"{lit.subject}={lit.value}"
        if type(lit) is ILit:
            text = full = f"[{text}]@{lit.instant}"
        return text, 4, full
    return fold(phi, leaf, _FORMAT_OPS)[0]


def _fmt_outcomes(head: Iterable[Outcome]) -> str:
    parts = []
    for o in head:
        lits = ", ".join(_literal_text(s, v) for s, v in o.effect.items())
        parts.append(f"({{{lits}}}, {fraction_text(o.weight)})")
    return "{" + ", ".join(parts) + "}"


def render(dd: DomainDescription) -> str:
    """Pretty-print a domain so that parse_domain(render(dd)) == dd."""
    sig = dd.signature
    lines = [f"maxinst {sig.maxinst}", ""]
    for f in sig.fluents:
        lines.append(f"fluent {f} takes-values {{{', '.join(sig.vals[f])}}}")
    for a in sig.actions:
        lines.append(f"action {a}")
    lines.append("")
    lines.append(f"initially-one-of {_fmt_outcomes(dd.iprop.head)}")
    for c in dd.cprops:
        lines.append(f"{format_formula(c.body)} causes-one-of "
                     f"{_fmt_outcomes(c.head)}")
    if dd.pprops:
        lines.append("")
    for p in dd.pprops:
        suffix = "" if p.prob == 1 else f" with-prob {fraction_text(p.prob)}"
        lines.append(f"{p.action} performed-at {p.instant}{suffix}")
    return "\n".join(lines) + "\n"

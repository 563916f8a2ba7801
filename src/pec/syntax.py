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

Text becomes a domain in four steps: ``_lex`` cuts it into tokens in one
regex scan; the parser files each statement, with its source location,
under its kind (``fluent`` as a ``VProp``, rules as raw rules);
``_validate_statements`` reports every violated condition at its
location; ``parse_domain`` builds the location-free ``DomainDescription``.
Statements may come in any order; within a kind, source order is kept.
"""

from __future__ import annotations

import re
from collections import namedtuple
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
    fold,
    herbrand_entails,
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

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>(?:[ \t\r\n]+|%[^\n]*)+)
    | (?:takes-values|initially-one-of|causes-one-of|performed-at|with-prob)
      (?![A-Za-z0-9_-])
    | (?P<id>[A-Za-z][A-Za-z0-9_]*)
    | (?P<dec>[0-9]+\.[0-9]+)
    | (?P<nat>[0-9]+)
    | ->|[{}(),=!&|@\[\]/]
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# kind: "id", "nat", "dec", "eof", or the text itself of a keyword or punctuation
# mark (matched by an unnamed alternative, so its match has no lastgroup)
_Token = namedtuple("_Token", "kind text line col")


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # no token holds a newline; only skipped text does
    for m in _TOKEN_RE.finditer(text):
        group, chunk, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if group == "skip":
            if (newlines := chunk.count("\n")):
                line += newlines
                line_start = m.start() + chunk.rfind("\n") + 1
        elif group == "bad":
            raise PecSyntaxError(f"unexpected character {chunk!r}", line, col)
        else:
            tokens.append(_Token(group or chunk, chunk, line, col))
    # The parser looks at most two tokens past the current one and never
    # advances past eof, so three eof sentinels make every lookahead in range.
    return tokens + [_Token("eof", "", line, len(text) - line_start + 1)] * 3


# ---------------------------------------------------------------------------
# Statements by kind (pre-validation)


class _RawOutcome(Record):
    literals: list[tuple[str, str, tuple[int, int]]]  # subject, value, loc
    weight: Fraction
    loc: tuple[int, int]

    def effect(self) -> dict[str, str]:
        return {s: v for s, v, _ in self.literals}


class _RawRule(Record):
    """A causal rule, or the initial distribution when ``body`` is None."""

    outcomes: list[_RawOutcome]
    loc: tuple[int, int]
    body: Formula | None = None
    body_lits: Sequence[tuple[str, str, tuple[int, int]]] = ()

    def head(self) -> tuple[Outcome, ...]:
        return tuple(Outcome(o.effect(), o.weight) for o in self.outcomes)


class _Statements:
    """A domain text's statements filed by kind, each kind in source order:
    rules as ``_RawRule``s, the rest as (statement, loc) pairs."""

    def __init__(self):
        self.vprops, self.actions, self.maxinsts = [], [], []
        self.iprops, self.cprops, self.pprops = [], [], []


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> _Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.text else "end of input"
            self.error(f"expected {what or repr(kind)}, found {found}", tok)
        return self.advance()

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise PecSyntaxError(message, tok.line, tok.col)

    # -- statements --------------------------------------------------------

    def parse_statements(self) -> _Statements:
        found = _Statements()
        while (tok := self.peek()).kind != "eof":
            loc = (tok.line, tok.col)
            if tok.text == "fluent":
                self.advance()
                name = self.expect("id", "a fluent name").text
                self.expect("takes-values")
                values = self._braced(lambda: self.expect("id", "a value name").text)
                found.vprops.append((VProp(name, tuple(values)), loc))
            elif tok.text == "action":
                self.advance()
                found.actions.append((self.expect("id", "an action name").text, loc))
            elif tok.text == "maxinst":
                self.advance()
                number = int(self.expect("nat", "an instant bound").text)
                found.maxinsts.append((number, loc))
            elif tok.kind == "initially-one-of":
                self.advance()
                found.iprops.append(_RawRule(self._braced(self._outcome), loc))
            elif tok.kind == "id" and self.peek(1).kind == "performed-at":
                self.pos += 2  # the action name and performed-at
                instant = int(self.expect("nat", "an instant").text)
                prob = Fraction(1)
                if self.peek().kind == "with-prob":
                    self.advance()
                    prob = self._prob()
                found.pprops.append((PProp(tok.text, instant, prob), loc))
            else:
                found.cprops.append(self._cprop(loc))
        return found

    def _cprop(self, loc: tuple[int, int]) -> _RawRule:
        lits: list[tuple[str, str, tuple[int, int]]] = []
        body = self._formula(lambda: self._body_atom(lits), _BODY_OPERAND)
        self.expect("causes-one-of")
        outcomes = self._braced(self._outcome)
        # Implicit empty outcome: only when weights fall short of 1 and no
        # explicit empty effect is present.
        total = sum((o.weight for o in outcomes), Fraction(0))
        if total < 1 and all(o.literals for o in outcomes):
            outcomes.append(_RawOutcome([], 1 - total, loc))
        return _RawRule(outcomes, loc, body, lits)

    def _braced(self, item, empty_ok: bool = False) -> list:
        """``{item, item, ...}``, or ``{}`` when ``empty_ok``."""
        self.expect("{")
        items = []
        if not (empty_ok and self.peek().kind == "}"):
            items.append(item())
            while self.peek().kind == ",":
                self.advance()
                items.append(item())
        self.expect("}")
        return items

    def _outcome(self) -> _RawOutcome:
        start = self.expect("(")
        literals = self._braced(self._literal, empty_ok=True)
        self.expect(",")
        weight = self._prob()
        self.expect(")")
        return _RawOutcome(literals, weight, (start.line, start.col))

    def _literal(self) -> tuple[str, str, tuple[int, int]]:
        """``X=V``, or ``X`` / ``!X`` for ``X=true`` / ``X=false``."""
        if self.peek().kind == "!":
            self.advance()
            name = self.expect("id", "a fluent name")
            return name.text, FALSE, (name.line, name.col)
        name = self.expect("id", "a fluent name")
        if self.peek().kind == "=":
            self.advance()
            value = self.expect("id", "a value name")
            return name.text, value.text, (name.line, name.col)
        return name.text, TRUE, (name.line, name.col)

    def _prob(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "dec":
            self.advance()
            return Fraction(tok.text)
        if tok.kind == "nat":
            self.advance()
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("nat", "a denominator")
                if int(den.text) == 0:
                    self.error("zero denominator", den)
                return Fraction(int(tok.text), int(den.text))
            return Fraction(int(tok.text))
        self.error("expected a probability")

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
        while True:
            leaf = atom()
            if leaf is None:
                if self.peek().kind not in ("!", "("):
                    self.error(f"expected {expected}")
                pending.append(self.advance().kind)
                continue
            operands.append(leaf)
            while True:
                kind = self.peek().kind
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
                    pending.append(self.advance().kind)
                    break
                if not pending:
                    return operands[0]
                self.expect(")")
                pending.pop()

    def _body_atom(self, lits) -> Formula | None:
        tok = self.peek()
        if tok.kind == "id" or (tok.kind == "!" and self.peek(1).kind == "id"
                                and self.peek(2).kind != "="):
            subject, value, loc = self._literal()
            lits.append((subject, value, loc))
            return Lit(subject, value)
        return None

    def _stamped_atom(self, lits) -> IFormula | None:
        if self.peek().kind == "[":
            self.advance()
            inner_lits: list[tuple[str, str, tuple[int, int]]] = []
            theta = self._formula(lambda: self._body_atom(inner_lits), _BODY_OPERAND)
            self.expect("]")
            self.expect("@")
            instant = int(self.expect("nat", "an instant").text)
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

    maxinst = None
    if not found.maxinsts:
        issues.append(Issue("missing maxinst statement", 1, 1))
    else:
        maxinst, loc = found.maxinsts[0]
        if maxinst < 1:
            issues.append(Issue("maxinst must be at least 1", *loc))
    for _, loc in found.maxinsts[1:]:
        issues.append(Issue("duplicate maxinst statement", *loc))

    sig_vals: dict[str, list[str]] = {}
    for v, loc in found.vprops:
        if v.fluent in sig_vals:
            issues.append(Issue(
                f"duplicate value declaration for fluent {v.fluent}",
                *loc, condition="(iii)"))
            continue
        for x in sorted({x for x in v.values if v.values.count(x) > 1}):
            issues.append(Issue(
                f"duplicate value {x} in declaration of {v.fluent}", *loc))
        sig_vals[v.fluent] = list(dict.fromkeys(v.values))
    actions: set[str] = set()
    for name, loc in found.actions:
        if name in actions:
            issues.append(Issue(f"duplicate action declaration {name}", *loc))
        actions.add(name)
    for name in sorted(set(sig_vals) & actions):
        issues.append(Issue(f"{name} is declared as both fluent and action", 1, 1))
    if not sig_vals:
        issues.append(Issue("at least one fluent must be declared", 1, 1))

    def check_literals(lits, effect=False):
        for subject, value, (line, col) in lits:
            problem = _literal_problem(subject, value, sig_vals, actions, effect)
            if problem:
                issues.append(Issue(problem, line, col))

    def check_head(rule, what):
        for o in rule.outcomes:
            check_literals(o.literals, effect=True)
            named = [subject for subject, _, _ in o.literals]
            for k, (subject, _, loc) in enumerate(o.literals):
                if subject in named[:k] and subject not in actions:
                    issues.append(Issue(
                        f"fluent {subject} appears twice in one effect", *loc))
            if not 0 < o.weight <= 1:
                issues.append(Issue(
                    f"outcome weight {o.weight} outside (0,1]", *o.loc))
        total = sum((o.weight for o in rule.outcomes), Fraction(0))
        if total != 1:
            issues.append(Issue(
                f"{what} weights sum to {total}, expected 1", *rule.loc))
        effects = [o.effect() for o in rule.outcomes]
        for i, eff in enumerate(effects):
            if eff in effects[:i]:
                issues.append(Issue(
                    f"duplicate effect in {what}", *rule.outcomes[i].loc))

    if not found.iprops:
        issues.append(Issue("no i-proposition", 1, 1, condition="(ii)"))
    for extra in found.iprops[1:]:
        issues.append(Issue("more than one i-proposition", *extra.loc,
                            condition="(ii)"))
    for rule in found.iprops:
        check_head(rule, "initially-one-of")
        for o in rule.outcomes:
            missing = sorted(set(sig_vals) - set(o.effect()))
            if missing:
                issues.append(Issue(
                    "initial outcome must assign every fluent "
                    f"(missing {', '.join(missing)})", *o.loc))

    for rule in found.cprops:
        check_literals(rule.body_lits)
        check_head(rule, "causes-one-of")
        if not any(herbrand_entails(rule.body, Lit(a, TRUE)) for a in actions):
            issues.append(Issue(
                "causal rule body does not entail any action", *rule.loc))
    for i, rule in enumerate(found.cprops):
        for j, other in enumerate(found.cprops):
            if i != j and herbrand_entails(rule.body, other.body):
                issues.append(Issue(
                    f"causal rule body entails the body of the rule at "
                    f"line {other.loc[0]}", *rule.loc, condition="(i)"))

    seen_occurrences: set[tuple[str, int]] = set()
    for p, loc in found.pprops:
        if p.action in sig_vals:
            issues.append(Issue(f"{p.action} is a fluent, not an action", *loc))
        elif p.action not in actions:
            issues.append(Issue(f"unknown action {p.action}", *loc))
        if maxinst is not None and p.instant >= maxinst:
            issues.append(Issue(
                f"occurrence instant {p.instant} must be below maxinst "
                f"{maxinst}", *loc))
        if not 0 < p.prob <= 1:
            issues.append(Issue(
                f"occurrence probability {p.prob} outside (0,1]", *loc))
        if (p.action, p.instant) in seen_occurrences:
            issues.append(Issue(
                f"duplicate occurrence of {p.action} at instant {p.instant}",
                *loc, condition="(iv)"))
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
    lits: list[tuple[str, str, tuple[int, int], int]] = []
    phi = parser._formula(lambda: parser._stamped_atom(lits), "'[' or '('")
    trailing = parser.peek()
    if trailing.kind != "eof":
        parser.error(f"unexpected input after query: {trailing.text!r}", trailing)
    for subject, value, (line, col), instant in lits:
        problem = _literal_problem(subject, value, signature.vals,
                                   signature.actions)
        if problem:
            raise PecSyntaxError(problem, line, col)
        if instant > signature.maxinst:
            raise PecSyntaxError(
                f"instant {instant} beyond maxinst {signature.maxinst}",
                line, col)
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
        parts.append(f"({{{lits}}}, {o.weight})")
    return "{" + ", ".join(parts) + "}"


def render(dd: DomainDescription) -> str:
    """Pretty-print a domain so that parse_domain(render(dd)) == dd."""
    sig = dd.signature
    lines = [f"maxinst {sig.maxinst}", ""]
    for v in dd.vprops:
        lines.append(f"fluent {v.fluent} takes-values {{{', '.join(v.values)}}}")
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
        suffix = "" if p.prob == 1 else f" with-prob {p.prob}"
        lines.append(f"{p.action} performed-at {p.instant}{suffix}")
    return "\n".join(lines) + "\n"

"""Core vocabulary for probabilistic event calculus domains.

Defines the domain signature (fluents, actions, value sets, the finite
instant window), literals and formulas over them, states and partial
fluent states, weighted outcomes, and the small algebra everything else
is built on: state update, formula evaluation, satisfaction of
instant-stamped formulas, and a tableau that decides propositional
(Herbrand) entailment and gives the ASP emitter its DNF.

States are plain ``dict[str, str]`` mappings from symbol to value;
partial fluent states are the same with only some fluents present.
Probabilities are exact ``fractions.Fraction`` values throughout.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

TRUE = "true"
FALSE = "false"
BOOLEAN_VALUES = (TRUE, FALSE)


class PecError(Exception):
    """Base class for all errors raised by this package."""


class SignatureError(PecError):
    """A symbol or value does not fit the domain signature in use."""


class RangeError(PecError):
    """An instant lies outside the domain's window {0..maxinst}."""


class ConcurrentActivation(PecError):
    """Two causal rule bodies hold in the same state.

    The semantics presumes at most one rule is activated per state; this
    error carries the offending state (and instant, when known) instead
    of silently picking a winner.
    """

    def __init__(self, state: Mapping[str, str], instant: int | None = None):
        self.state = dict(state)
        self.instant = instant
        where = f" at instant {instant}" if instant is not None else ""
        super().__init__(
            f"more than one causal rule is activated{where} in state "
            "{" + format_state(state) + "}"
        )


class ConditionZero(PecError):
    """Conditioning event has probability zero."""


def format_state(state: Mapping[str, str]) -> str:
    """``F=v, G=w``: a state's literals sorted by symbol, without braces."""
    return ", ".join(f"{k}={v}" for k, v in sorted(state.items()))


# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class DomainSignature:
    """The vocabulary a domain is written in.

    ``vals`` maps each fluent to its non-empty value tuple; actions are
    implicitly boolean (``true``/``false``).  Instants are the integers
    ``0..maxinst`` with the usual order and least element 0.
    """

    fluents: tuple[str, ...]
    actions: tuple[str, ...]
    vals: Mapping[str, tuple[str, ...]]
    maxinst: int

    def __post_init__(self):
        if not self.fluents:
            raise SignatureError("a signature needs at least one fluent")
        overlap = set(self.fluents) & set(self.actions)
        if overlap:
            raise SignatureError(f"fluents and actions overlap: {sorted(overlap)}")
        for f in self.fluents:
            if not self.vals.get(f):
                raise SignatureError(f"fluent {f} has no declared values")
        if self.maxinst < 1:
            raise SignatureError("maxinst must be at least 1")

    @property
    def instants(self) -> range:
        return range(self.maxinst + 1)

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.fluents + self.actions

    def values_of(self, subject: str) -> tuple[str, ...]:
        if subject in self.vals:
            return self.vals[subject]
        if subject in self.actions:
            return BOOLEAN_VALUES
        raise SignatureError(f"unknown symbol {subject!r}")

    def fluent_part(self, state: Mapping[str, str]) -> dict[str, str]:
        """Restriction of a state to its fluent literals."""
        return {f: state[f] for f in self.fluents}

    def action_part(self, state: Mapping[str, str]) -> dict[str, str]:
        return {a: state[a] for a in self.actions}

    def total_fluent_states(self) -> Iterable[dict[str, str]]:
        """All total fluent states, in declared value order."""
        for combo in itertools.product(*(self.vals[f] for f in self.fluents)):
            yield dict(zip(self.fluents, combo))

    def total_states(self) -> Iterable[dict[str, str]]:
        """All total states (fluents and actions), in declared order."""
        names = self.symbols
        domains = [self.values_of(x) for x in names]
        for combo in itertools.product(*domains):
            yield dict(zip(names, combo))


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Lit:
    """A literal ``subject=value`` over a fluent or action."""

    subject: str
    value: str


@dataclass(frozen=True)
class ILit:
    """An instant-stamped literal ``[subject=value]@instant``."""

    subject: str
    value: str
    instant: int


@dataclass(frozen=True)
class Not:
    arg: "Formula | IFormula"


@dataclass(frozen=True)
class And:
    left: "Formula | IFormula"
    right: "Formula | IFormula"


@dataclass(frozen=True)
class Or:
    left: "Formula | IFormula"
    right: "Formula | IFormula"


@dataclass(frozen=True)
class Implies:
    left: "Formula | IFormula"
    right: "Formula | IFormula"


Formula = Union[Lit, Not, And, Or, Implies]
IFormula = Union[ILit, Not, And, Or, Implies]


def fold(phi, leaf: Callable, ops: Mapping[type, Callable]):
    """Post-order fold of a formula tree, without recursion.

    ``leaf`` maps each literal, left to right; ``ops`` maps ``Not`` to a
    one-argument combiner and ``And``/``Or``/``Implies`` to two-argument
    ones, applied to the folded values of the children.
    """
    stack, values = [(phi, False)], []
    while stack:
        node, ready = stack.pop()
        kind = type(node)
        if kind is Not:
            if ready:
                values[-1] = ops[Not](values[-1])
            else:
                stack += ((node, True), (node.arg, False))
        elif kind in (And, Or, Implies):
            if ready:
                right = values.pop()
                values[-1] = ops[kind](values[-1], right)
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
        else:
            values.append(leaf(node))
    return values[0]


_CONSTRUCTORS = {Not: Not, And: And, Or: Or, Implies: Implies}
_NO_VALUE = dict.fromkeys(_CONSTRUCTORS, lambda *args: None)
_TRUTH = {Not: operator.not_, And: operator.and_, Or: operator.or_,
          Implies: lambda a, b: b or not a}


def _leaves(phi) -> list:
    """Leaf literals of a formula tree, left to right, duplicates kept."""
    found: list = []
    fold(phi, found.append, _NO_VALUE)
    return found


def at_instant(theta: Formula, instant: int) -> IFormula:
    """Stamp every literal of ``theta`` with ``instant`` (the [theta]@I form)."""
    return fold(theta, lambda lit: ILit(lit.subject, lit.value, instant),
                _CONSTRUCTORS)


def _holds(state: Mapping[str, str], subject: str, value: str) -> bool:
    try:
        return state[subject] == value
    except KeyError:
        raise SignatureError(f"state does not assign {subject!r}") from None


def eval_formula(state: Mapping[str, str], phi: Formula) -> bool:
    """Evaluate ``phi`` under the total valuation a state induces.

    A literal ``X=V`` is true iff the state maps ``X`` to ``V``; in
    particular ``not X=V`` is true whenever the state assigns ``X`` any
    other value.
    """
    return fold(phi, lambda lit: _holds(state, lit.subject, lit.value), _TRUTH)


def satisfies(states: Sequence[Mapping[str, str]], phi: IFormula) -> bool:
    """Satisfaction of an i-formula by a finite world, in one fold.

    ``states`` is the world's state sequence indexed by instant.  An
    i-literal ``[L]@I`` holds iff ``L`` is in the state at instant ``I``,
    and raises RangeError past the window; connectives are structural.
    """

    def leaf(il: ILit) -> bool:
        if not 0 <= il.instant < len(states):
            raise RangeError(
                f"instant {il.instant} outside the window 0..{len(states) - 1}"
            )
        return _holds(states[il.instant], il.subject, il.value)

    return fold(phi, leaf, _TRUTH)


def satisfier(phi: IFormula, maxinst: int) -> Callable[[Sequence[Mapping]], bool]:
    """``satisfies(·, phi)`` over the window ``0..maxinst``, folding ``phi``
    once per distinct valuation of its literals; a literal outside the
    window raises RangeError here, before any world is evaluated."""
    lits = list(dict.fromkeys(_leaves(phi)))
    for instant in {il.instant for il in lits}:
        if not 0 <= instant <= maxinst:
            raise RangeError(f"instant {instant} outside the window 0..{maxinst}")
    memo: dict[tuple, bool] = {}

    def holds(states: Sequence[Mapping[str, str]]) -> bool:
        row = tuple([_holds(states[il.instant], il.subject, il.value) for il in lits])
        if row not in memo:
            memo[row] = fold(phi, dict(zip(lits, row)).__getitem__, _TRUTH)
        return memo[row]
    return holds


_NNF = {
    Not: lambda a: (a[1], a[0]),
    And: lambda a, b: (And(a[0], b[0]), Or(a[1], b[1])),
    Or: lambda a, b: (Or(a[0], b[0]), And(a[1], b[1])),
    Implies: lambda a, b: (Or(a[1], b[0]), And(a[0], b[1])),
}


def open_branches(phi: Formula):
    """The open branches of an analytic tableau for ``phi``, lazily.

    Literals are independent atoms.  The tableau expands ``phi``'s
    negation normal form depth first and left to right, on explicit
    stacks.  A branch is a dict from literal to sign in order of first
    occurrence, and closes when a literal turns up with both signs.  The
    open branches are a DNF of ``phi``, in product-expansion order.
    """
    # each node folds to the pair (its NNF, its negation's NNF)
    nnf = fold(phi, lambda lit: ((lit, True), (lit, False)), _NNF)[0]
    todo = [({}, (nnf, None))]  # (branch, its pending nodes as a linked list)
    while todo:
        branch, pending = todo.pop()
        while pending is not None:
            node, pending = pending
            kind = type(node)
            if kind is And:
                pending = (node.left, (node.right, pending))
            elif kind is Or:
                todo.append((dict(branch), (node.right, pending)))
                pending = (node.left, pending)
            elif branch.setdefault(node[0], node[1]) != node[1]:
                break
        else:
            yield branch


def herbrand_entails(theta: Formula, theta_prime: Formula) -> bool:
    """Propositional entailment with literals taken as atoms.

    Value exclusivity is deliberately not assumed: ``F=V`` and ``F=V'``
    are independent propositions here, so e.g. their conjunction is
    satisfiable.  ``theta`` entails ``theta_prime`` when the tableau for
    ``!theta_prime & theta`` closes.  The goal comes first, so a body with
    the goal as a conjunct is decided in linear time; the cost grows with
    the ``|`` forks searched, not with the number of distinct literals.
    """
    return next(open_branches(And(Not(theta_prime), theta)), None) is None


# ---------------------------------------------------------------------------
# States and outcomes


def update(base: Mapping[str, str], delta: Mapping[str, str]) -> dict[str, str]:
    """Fluent state update: ``delta`` overrides, everything else persists.

    Left-associative chaining is just repeated application.  Raises
    SignatureError when ``delta`` mentions a fluent ``base`` does not
    carry (a sign of mixed signatures).
    """
    for name in delta:
        if name not in base:
            raise SignatureError(f"update mentions unknown fluent {name!r}")
    out = dict(base)
    out.update(delta)
    return out


@dataclass(frozen=True)
class Outcome:
    """A weighted effect alternative: a partial fluent state and its weight.

    Effect insertion order is preserved (it drives rendering and the
    generated program); equality ignores order.  The weight, given as
    anything ``Fraction`` accepts, is stored as a ``Fraction`` in (0,1].
    """

    effect: Mapping[str, str]
    weight: Fraction

    def __post_init__(self):
        weight = Fraction(self.weight)
        if weight < 0 or weight > 1:
            raise PecError(f"probability {weight} outside [0,1]")
        if weight == 0:
            raise PecError("probability must be strictly positive")
        object.__setattr__(self, "weight", weight)


def outcomes_weight(outcomes: Iterable[Outcome]) -> Fraction:
    """Weight of a set of outcomes: the sum of the members' weights."""
    return sum((o.weight for o in outcomes), Fraction(0))


def format_decimal(value: Fraction, digits: int = 6) -> str:
    """Render an exact rational as a decimal string.

    Rounds half-to-even at ``digits`` places using integer arithmetic
    only, so the printed value is the true rounding of the exact number.
    """
    if digits < 0:
        raise ValueError("digits must be non-negative")
    p, q = abs(value.numerator), value.denominator
    scaled, rem = divmod(p * 10**digits, q)
    if 2 * rem > q or (2 * rem == q and scaled % 2 == 1):
        scaled += 1
    sign = "-" if value < 0 and scaled else ""
    text = str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"

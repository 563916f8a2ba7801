"""Core vocabulary for probabilistic event calculus domains.

Defines the frozen ``Record`` base of the value classes, the domain
signature (fluents, actions, value sets, the finite instant window),
literals and formulas over them, states and partial fluent states,
weighted outcomes, and the algebra everything else is built on: state
update, formula evaluation, satisfaction and progression of
instant-stamped formulas, and a tableau that decides propositional
(Herbrand) entailment and gives the ASP emitter its DNF.

Formula nodes are hash-consed in the weak table ``_NODES``: equal formulas
are one object, compared and hashed by identity, and leave the table with
their domain.  The tableau reads them as they are, each node with a
sign, so it builds no node of its own.

States are plain ``dict[str, str]`` mappings from symbol to value;
partial fluent states are the same with only some fluents present.
Probabilities are exact ``fractions.Fraction`` values throughout.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

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
# Records and the signature


class Record:
    """A frozen value class.  Its fields are its annotations, its parents'
    first, with defaults as class attributes.  Each subclass gets an
    ``__init__`` taking them in that order, then running its own
    ``__post_init__`` if any; ``==``, ``hash``, ``repr`` and ``match`` read
    them in the same order, as with a frozen dataclass.  ``pickle`` and
    ``copy`` take the fields only: what an instance caches starts afresh."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = names = cls._fields + tuple(
            n for n in cls.__annotations__ if n not in cls._fields)
        if any(isinstance(getattr(cls, n, None), (list, dict, set)) for n in names):
            raise TypeError(f"{cls.__name__} has a mutable default")
        # compiled per class: a generic (*args) __init__ takes half again as long;
        # no field can be named __cls or __set, a class body would mangle it
        params = ", ".join(f"{n}=__cls.{n}" if hasattr(cls, n) else n for n in names)
        body = [f"__set(self, {n!r}, {n})" for n in names]
        body += ["self.__post_init__()"] * hasattr(cls, "__post_init__")
        scope = {"__cls": cls, "__set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n " + ("\n ".join(body) or "pass"), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __getstate__(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes``, rebuilt through its ``__init__``."""
    return type(record)(**{**record.__getstate__(), **changes})


class DomainSignature(Record):
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


_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """An interned formula node (hash-consing: Filliatre & Conchon 2006)."""

    __slots__ = ("__weakref__",)  # a subclass's own slots are its fields

    def __new__(cls, *args):
        if len(args) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} arguments")
        node = _NODES.get(key := (cls, *args))  # interned children hash in O(1)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, args):
                object.__setattr__(node, name, value)
        return node

    __setattr__ = __delattr__ = Record.__setattr__

    def __reduce__(self):  # flat, so that pickle does not recurse once per level
        index: dict = {}  # post order, each child an index of an earlier entry
        add = lambda *key: index.setdefault(key, len(index))
        fold(self, lambda lit: add(type(lit), *map(lit.__getattribute__, lit.__slots__)),
             {kind: functools.partial(add, kind) for kind in _CONSTRUCTORS})
        return _unflatten, (tuple(index),)

    def __repr__(self):
        from .syntax import format_formula  # syntax imports this module
        return f"{type(self).__name__}({format_formula(self)!r})"


class Lit(_Node):
    """A literal ``subject=value`` over a fluent or action."""

    __slots__ = ("subject", "value")


class ILit(_Node):
    """An instant-stamped literal ``[subject=value]@instant``."""

    __slots__ = ("subject", "value", "instant")


class Not(_Node):
    __slots__ = ("arg",)


class And(_Node):
    __slots__ = ("left", "right")


class Or(_Node):
    __slots__ = ("left", "right")


class Implies(_Node):
    __slots__ = ("left", "right")


def _unflatten(entries):  # the inverse of ``_Node.__reduce__``, interning bottom up
    built = []
    for kind, *args in entries:
        built.append(kind(*(args if kind in (Lit, ILit) else map(built.__getitem__, args))))
    return built[-1]


Formula = Lit | Not | And | Or | Implies
IFormula = ILit | Not | And | Or | Implies


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
_PROGRESS = {  # _TRUTH over formulas and bools: a bool child folds its parent away
    Not: lambda a: not a if type(a) is bool else Not(a),
    And: lambda a, b: a and b if type(a) is bool else b and a if type(b) is bool else And(a, b),
    Or: lambda a, b: a or b if type(a) is bool else b or a if type(b) is bool else Or(a, b),
    Implies: lambda a, b: _PROGRESS[Or](_PROGRESS[Not](a), b)}


def at_instant(theta: Formula, instant: int) -> IFormula:
    """Stamp every literal of ``theta`` with ``instant`` (the [theta]@I form)."""
    return fold(theta, lambda lit: ILit(lit.subject, lit.value, instant),
                _CONSTRUCTORS)


def _holds(state: Mapping[str, str], subject: str, value: str) -> bool:
    try:
        return state[subject] == value
    except KeyError:
        raise SignatureError(f"state does not assign {subject!r}") from None


def _window(instant: int, maxinst: int) -> int:
    if not 0 <= instant <= maxinst:
        raise RangeError(f"instant {instant} outside the window 0..{maxinst}")
    return instant


def eval_formula(state: Mapping[str, str], phi: Formula) -> bool:
    """Evaluate ``phi`` under the total valuation a state induces.

    A literal ``X=V`` is true iff the state maps ``X`` to ``V``; in
    particular ``not X=V`` is true whenever the state assigns ``X`` any
    other value.
    """
    return fold(phi, lambda lit: _holds(state, lit.subject, lit.value), _TRUTH)


def satisfies(states: Sequence[Mapping[str, str]], phi: IFormula, last: int | None = None) -> bool:
    """Satisfaction of an i-formula by a finite world, in one fold.

    ``states`` maps each instant read to its state: the world's state
    sequence, or any mapping with the window's end ``last`` given.  An
    i-literal ``[L]@I`` holds iff ``L`` is in the state at instant ``I``,
    and raises RangeError past the window; connectives are structural.
    """
    last = len(states) - 1 if last is None else last
    return fold(phi, lambda il: _holds(states[_window(il.instant, last)], il.subject, il.value),
                _TRUTH)


def progression(phi: IFormula, maxinst: int):
    """Formula progression (Bacchus & Kabanza 2000): ``at`` files phi's
    distinct literals by instant, raising RangeError for the leftmost one
    outside ``0..maxinst``; ``step(residual, i, state)`` reads every literal
    of ``at[i]`` in ``state``, then puts their truths in: what is left is a
    bool or an interned node with no bool child.  It keeps nothing: the
    forward pass keeps each step it takes in the query's rows."""
    at = {}
    fold(phi, lambda il: at.setdefault(_window(il.instant, maxinst), {}).setdefault(il),
         _NO_VALUE)

    def step(residual, i: int, state):
        values = {il: _holds(state, il.subject, il.value) for il in at[i]}
        return fold(residual, lambda il: values.get(il, il), _PROGRESS)

    return at, step


def _branches(pending, ors_last: bool):
    """``open_branches`` from the linked list ``pending`` of signed nodes
    ``(node, sign, rest)``; with ``ors_last``, a fork waits until no
    literal or conjunctive node is left."""
    todo = [({}, pending, None)]  # (branch, pending signed nodes, deferred forks)
    while todo:
        branch, pending, ors = todo.pop()
        while pending is not None or ors is not None:
            if pending is None:
                (node, sign, ors), defer = ors, False
            else:
                (node, sign, pending), defer = pending, ors_last
            kind = type(node)
            if kind is Not:
                pending = (node.arg, not sign, pending)
            elif kind in (And, Or, Implies):
                left_sign = sign != (kind is Implies)
                if sign == (kind is And):  # conjunctive
                    pending = (node.left, left_sign, (node.right, sign, pending))
                elif defer:
                    ors = (node, sign, ors)
                else:
                    todo.append((dict(branch), (node.right, sign, pending), ors))
                    pending = (node.left, left_sign, pending)
            elif branch.setdefault(node, sign) != sign:
                break
        else:
            yield branch


def open_branches(phi: Formula):
    """The open branches of a signed analytic tableau (Smullyan 1968) for
    ``phi``, lazily: dicts from literal (an atom) to sign in order of first
    occurrence, which form a DNF of ``phi`` in product-expansion order.
    ``Not`` flips a node's sign; a node is conjunctive when its sign says
    so (``&`` true, ``|`` or ``->`` false) and forks otherwise.  Expansion
    is depth first and left to right; a literal with both signs closes a
    branch."""
    return _branches((phi, True, None), False)


def conjunct_atoms(phi: Formula) -> frozenset:
    """The (subject, value) atoms of the literals on every branch of
    ``open_branches(phi)``: those reached through conjunctive nodes only."""
    atoms, todo = set(), [(phi, True)]
    while todo:
        node, sign = todo.pop()
        kind = type(node)
        if kind is Not:
            todo.append((node.arg, not sign))
        elif kind in (And, Or, Implies):
            if sign == (kind is And):
                todo += ((node.left, sign != (kind is Implies)), (node.right, sign))
        else:
            atoms.add((node.subject, node.value))
    return frozenset(atoms)


def herbrand_entails(theta: Formula, theta_prime: Formula) -> bool:
    """Propositional entailment with literals taken as atoms.

    Value exclusivity is deliberately not assumed: ``F=V & F=V'`` is
    satisfiable.  ``theta`` entails ``theta_prime`` when the tableau for
    ``theta_prime`` signed false and ``theta`` signed true closes.  The
    goal comes first and forks come last, so a body with the goal as a
    conjunct is decided in linear time; the cost grows with the forks
    searched, not with distinct literals.
    """
    return next(_branches((theta_prime, False, (theta, True, None)), True), None) is None


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


class Outcome(Record):
    """A weighted effect alternative: a partial fluent state and its weight.

    Effect insertion order is preserved (it drives rendering and the
    generated program); equality ignores order.  The weight, given as
    anything ``Fraction`` accepts, is stored as a ``Fraction`` in (0,1].
    """

    effect: Mapping[str, str]
    weight: Fraction

    def __post_init__(self):
        if type(weight := self.weight) is not Fraction:
            object.__setattr__(self, "weight", weight := Fraction(weight))
        if not 0 < weight.numerator <= weight.denominator:  # 0 < weight <= 1
            raise PecError(f"probability {fraction_text(weight)} outside [0,1]" if weight.numerator
                           else "probability must be strictly positive")


def outcomes_weight(outcomes: Iterable[Outcome]) -> Fraction:
    """Weight of a set of outcomes: the sum of the members' weights."""
    return sum((o.weight for o in outcomes), Fraction(0))


def int_text(n: int) -> str:
    """``str(n)`` for an int of any length.  Past the interpreter's limit on
    the digits one conversion may produce (``sys.set_int_max_str_digits``)
    it converts by halves, so the limit is left as it is."""
    try:
        return str(n)
    except ValueError:
        pass
    k = n.bit_length() * 3 // 20  # about half the decimal digits: log10(2) / 2 > 3/20
    high, low = divmod(abs(n), 10**k)
    return "-" * (n < 0) + int_text(high) + int_text(low).rjust(k, "0")


def fraction_text(value: Fraction) -> str:
    """``str(value)`` at any length, by ``int_text``."""
    text = int_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{int_text(value.denominator)}"


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
    text = int_text(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"

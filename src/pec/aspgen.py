"""Compilation of domain descriptions into answer set programs.

Each domain compiles to ground facts and rules over the predicates
``fluent/1``, ``action/1``, ``instant/1``, ``possVal/2``, ``belongsTo/2``,
``initialCondition/1``, ``causesOutcome/2`` and ``performed/3``, plus a
fixed bank of domain-independent axioms whose stable models are exactly
the traces of the domain.  Rule bodies go out in disjunctive normal
form, read off ``core.open_branches``.  Probabilities are carried as
reduced-fraction tokens (``49/100``) inside terms; evaluating them is the
downstream consumer's concern.  Clauses are plain tuples of strings.

Identifiers are emitted with their first letter lowercased, following
logic programming convention; outcome constants are ``id_N_J`` where N
numbers the causal rules in declaration order (0 for the initial
distribution) and J the outcome within its head.
"""

from __future__ import annotations

from .core import Formula, Lit, PecError, open_branches
from .syntax import DomainDescription


class TranslationError(PecError):
    """The description cannot be rendered (identifier collision)."""


def _mangle(name: str) -> str:
    return name[0].lower() + name[1:]


def _name_map(dd: DomainDescription) -> dict[str, str]:
    """Lowercase-initial renaming of symbols and values, collision-checked."""
    sig = dd.signature
    mapping: dict[str, str] = {}
    seen: dict[str, str] = {}
    for symbol in sig.symbols:
        mangled = _mangle(symbol)
        if mangled in seen:
            raise TranslationError(
                f"{symbol} and {seen[mangled]} collide as {mangled}")
        seen[mangled] = symbol
        mapping[symbol] = mangled
    for fluent in sig.fluents:
        per_fluent: dict[str, str] = {}
        for value in sig.vals[fluent]:
            mangled = _mangle(value)
            if mangled in per_fluent:
                raise TranslationError(
                    f"values {value} and {per_fluent[mangled]} of {fluent} "
                    f"collide as {mangled}")
            per_fluent[mangled] = value
            mapping.setdefault(value, mangled)
    mapping.setdefault("true", "true")
    mapping.setdefault("false", "false")
    return mapping


# ---------------------------------------------------------------------------
# Disjunctive normal form


def to_dnf(phi: Formula) -> list[list[tuple[Lit, bool]]]:
    """Flatten a formula into a disjunction of signed-literal conjunctions.

    Literals are treated as independent atoms; the result evaluates
    identically to the input under every assignment.  Disjuncts are the
    open branches of ``core.open_branches``, in left-to-right expansion
    order; conjunctions containing a literal both positively and
    negatively are dropped.
    """
    return [list(branch.items()) for branch in open_branches(phi)]


# ---------------------------------------------------------------------------
# Domain-dependent clauses


def translate(dd: DomainDescription) -> tuple[str, ...]:
    """Domain-dependent clauses: sorts, value declarations, the initial
    distribution, one outcome clause group per causal rule outcome, and
    the narrative facts."""
    sig = dd.signature
    names = _name_map(dd)
    clauses: list[str] = []

    clauses.append(f"#const maxinst={sig.maxinst}.")
    for f in sig.fluents:
        clauses.append(f"fluent({names[f]}).")
    for a in sig.actions:
        clauses.append(f"action({names[a]}).")
    clauses.append("instant(0..maxinst).")

    for v in dd.vprops:
        for value in v.values:
            clauses.append(f"possVal({names[v.fluent]}, {names[value]}).")

    # the initial distribution is rule 0
    for n, c in enumerate((dd.iprop, *dd.cprops)):
        body = _body_text(c.body, names) if n else None
        for j, outcome in enumerate(c.head, start=1):
            oid = f"id_{n}_{j}"
            for subject, value in outcome.effect.items():
                clauses.append(
                    f"belongsTo(({names[subject]},{names[value]}), {oid}).")
            if n == 0:
                clauses.append(f"initialCondition(({oid}, {outcome.weight})).")
            elif body is not None:
                clauses.append(
                    f"causesOutcome(({oid}, {outcome.weight}), I)"
                    f" :- {body}.")

    for p in dd.pprops:
        clauses.append(
            f"performed({names[p.action]},{p.instant},{p.prob}).")

    return tuple(clauses)


def _body_text(body: Formula, names) -> str | None:
    """Rule body as text; conjunctive bodies come out flat, other shapes
    as ';'-separated alternatives.  None when the body can never hold."""
    def atom(lit, positive):
        text = f"holds((({names[lit.subject]},{names[lit.value]}), I))"
        return text if positive else f"not {text}"
    return "; ".join(", ".join(atom(*signed) for signed in conj)
                     for conj in to_dnf(body)) or None


# ---------------------------------------------------------------------------
# Domain-independent clauses

_AXIOMS = (
    "% sorts: actions are boolean, literals pair symbols with values",
    "possVal(A,true) :- action(A).",
    "possVal(A,false) :- action(A).",
    "fluentOrAction(X) :- fluent(X); action(X).",
    "literal((X,V)) :- possVal(X,V).",
    "iLiteral((L,I)) :- literal(L), instant(I).",
    "% narrative bookkeeping",
    "definitelyPerformed(A,I) :- performed(A,I,1).",
    "possiblyPerformed(A,I) :- performed(A,I,P).",
    "% world generator: exactly one value per symbol per instant",
    "1{ holds(((X,V),I)) : iLiteral(((X,V),I)) }1 :- instant(I), fluentOrAction(X).",
    "% activation instants and the outcome/initial choices",
    "inOcc(I) :- instant(I), causesOutcome(O,I).",
    "1{ effectChoice(O,I) : causesOutcome(O,I) }1 :- inOcc(I).",
    "1{ initialChoice(O) : initialCondition(O) }1.",
    "% closed world assumption for actions",
    ":- action(A), instant(I), holds(((A,true),I)), not possiblyPerformed(A,I).",
    ":- action(A), instant(I), holds(((A,false),I)), definitelyPerformed(A,I).",
    "% the initial choice fixes the fluents of instant 0",
    ":- initialChoice((S,P)), literal(L), belongsTo(L,S), not holds((L,0)).",
    "% chosen effects take hold at the next instant; everything else persists",
    ":- instant(I), effectChoice((X,P),I), fluent(F), belongsTo((F,V),X), "
    "not holds(((F,V),I+1)), I<maxinst.",
    ":- instant(I), fluent(F), not holds(((F,V),I)), effectChoice((X,P),I), "
    "not belongsTo((F,V),X), holds(((F,V),I+1)), I<maxinst.",
    ":- fluent(F), instant(I), holds(((F,V),I)), not inOcc(I), "
    "not holds(((F,V),I+1)), I<maxinst.",
    "% per-world narrative factors, for downstream probability extraction",
    "eval(A,I,P) :- action(A), instant(I), performed(A,I,P), holds(((A,true),I)).",
    "eval(A,I,1-P) :- action(A), instant(I), performed(A,I,P), holds(((A,false),I)).",
)


def domain_independent() -> tuple[str, ...]:
    """The fixed axiom bank shared by every translated domain."""
    return _AXIOMS


def emit(dd: DomainDescription, with_axioms: bool = False) -> str:
    """Full program text, one clause per line, byte-stable per domain."""
    lines = ["% domain-dependent clauses"]
    lines.extend(translate(dd))
    if with_axioms:
        lines.append("")
        lines.append("% domain-independent clauses")
        lines.extend(domain_independent())
    return "\n".join(lines) + "\n"

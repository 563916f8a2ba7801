"""Exact reasoning engine and ASP compiler for probabilistic event
calculus domains: parse action-domain descriptions, compute query
probabilities over a finite window (marginals by one forward pass over
fluent states and query residuals, conditionals as the ratio of two such
passes, with the worlds listed only to check for clashes), and emit an
equivalent answer set program."""

from .core import (
    And,
    BOOLEAN_VALUES,
    ConcurrentActivation,
    ConditionZero,
    DomainSignature,
    FALSE,
    Formula,
    IFormula,
    ILit,
    Implies,
    Lit,
    Not,
    Or,
    Outcome,
    PecError,
    RangeError,
    Record,
    SignatureError,
    TRUE,
    at_instant,
    eval_formula,
    format_decimal,
    herbrand_entails,
    outcomes_weight,
    replace,
    satisfies,
    update,
)
from .syntax import (
    CProp,
    DomainDescription,
    DomainValidationError,
    HProposition,
    IProp,
    Issue,
    PProp,
    PecSyntaxError,
    VProp,
    ValidationReport,
    format_formula,
    parse_domain,
    parse_query,
    render,
    validate,
)
from .engine import (
    FiniteWorld,
    Trace,
    TransitionEdge,
    WeightedWorld,
    WorldReport,
    activated_cprop,
    check_world,
    conditional,
    entails,
    enumerate_worlds,
    indistinguishable_up_to,
    marginal,
    narrative_eval,
    restrict,
    sample_frequency,
    sample_world,
    trace_eval,
    transition,
    transition_graph,
    tset,
)
from .aspgen import (
    TranslationError,
    domain_independent,
    emit,
    to_dnf,
    translate,
)

__version__ = "0.1.0"

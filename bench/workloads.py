"""The four workloads: their seeded inputs, operations and output checks.

`BUILDERS[name](pec, seed)` returns a `Workload`.  Its operations are
closed-loop calls made one at a time; `verify` checks the outputs of the
first full round against the references of `oracle.py`, and every later
output must equal the verified one (exact values, and seeded samples
that must repeat).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
import oracle
from inputs import (PAPER_QUERIES, SHIPPED, fmt_formula, multi_instant_query,
                    single_instant_query)
from oracle import expect

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SAMPLES = 200  # sample count of every sampling operation
CLI_SAMPLES = 100  # `pec sample -n` in the cli mix


@dataclass
class Op:
    name: str
    target: tuple  # (module, attribute) of the function called
    args: tuple
    fn: Callable = None


@dataclass
class Workload:
    name: str
    ops: list
    verify: Callable  # verify(list of outputs, one per op) raises Mismatch
    tail_pct: float  # percentile reported as ref_op_ms_tail
    recheck: Callable = None  # recheck(op index, output), on every output

    def resolve(self) -> None:
        """Bind each operation to the current module attribute (after a
        re-import, or after the tracer wrapped it)."""
        for op in self.ops:
            mod, attr = op.target
            op.fn = getattr(sys.modules[mod], attr)


def _shipped_text(d) -> str:
    return (ROOT / "examples" / f"{d.name}.pec").read_text()


def _positive_single(rng, d):
    while True:
        q = single_instant_query(rng, d)
        if oracle.forward(d, q) > 0:
            return q


# ---------------------------------------------------------------------------
# exact-inference


def _exact_domains(rng):
    """The inputs, ordered by cost: (domain, text) pairs that get five
    queries each, and the largest toss domain, which gets only the
    closed-form query.

    The operations fall in three groups of about 36, 24 and 37: tens of
    worlds (shipped, toss k=3, antibiotic k=12), about a hundred (toss
    k=5 certain, toss k=4 uncertain), and hundreds to thousands (random
    domains, toss k=5 and k=7 uncertain).  The median operation then
    sits in the middle of the middle group, whose cost depends on its
    shape only, not on the seed.
    """
    ps = rng.sample((Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                     Fraction(3, 5), Fraction(3, 4)), 3)
    fams = [inputs.toss(3, Fraction(1)), inputs.toss(3, ps[0]), inputs.antibiotic(12),
            inputs.toss(5, Fraction(1))]
    fams += [inputs.toss(4, p) for p in ps]
    fams += [inputs.random_domain(rng, f"random{i}") for i in range(6)]
    fams.append(inputs.toss(5, ps[0]))
    return [(d, _shipped_text(d)) for d in SHIPPED] + \
           [(d, inputs.render(d)) for d in fams], [inputs.toss(7, ps[0])]


def exact_inference(pec, seed):
    rng = random.Random(seed)
    domains, big = _exact_domains(rng)
    ops, checks = [], []

    def add(kind, dd, d, *qs):
        parsed = tuple(pec.parse_query(fmt_formula(q), dd.signature) for q in qs)
        ops.append(Op(f"{kind} {d.name}", ("pec.engine", kind), (dd,) + parsed))
        return len(ops) - 1

    by_name = {d.name: (d, pec.parse_domain(t)) for d, t in domains}
    for d, _ in domains:
        dd = by_name[d.name][1]
        single = single_instant_query(rng, d)
        multi = multi_instant_query(rng, d)
        psi = _positive_single(rng, d)
        i = add("marginal", dd, d, single)
        checks.append(("eq", i, oracle.forward(d, single)))
        i_m = add("marginal", dd, d, multi)
        i_n = add("marginal", dd, d, ("not", multi))
        checks.append(("sum1", i_m, i_n))
        i_and = add("marginal", dd, d, ("and", multi, psi))
        i_c = add("conditional", dd, d, multi, psi)
        checks.append(("bayes", i_c, oracle.forward(d, psi), i_and))
    for name, q, given, value in PAPER_QUERIES:
        d, dd = by_name[name]
        if given is None:
            checks.append(("eq", add("marginal", dd, d, q), value))
        else:
            checks.append(("eq", add("conditional", dd, d, q, given), value))
    # the k-toss closed form, on every toss domain and the largest ones
    for d in big:
        by_name[d.name] = (d, pec.parse_domain(inputs.render(d)))
    for d, dd in by_name.values():
        if d.name.startswith("toss"):
            k, p = len(d.occurrences), d.occurrences[0][2]
            q = ("ilit", "Coin", "Heads", k + 1)
            checks.append(("eq", add("marginal", dd, d, q),
                           inputs.toss_closed_form(k, p)))

    def verify(out):
        for check in checks:
            if check[0] == "eq":
                _, i, want = check
                expect(out[i] == want, f"{ops[i].name}: {out[i]} != {want}")
            elif check[0] == "sum1":
                _, i, j = check
                expect(out[i] + out[j] == 1, f"{ops[i].name}: P(phi)+P(!phi) != 1")
            else:
                _, i, p_psi, j = check
                expect(out[i] * p_psi == out[j],
                       f"{ops[i].name}: P(phi|psi) P(psi) != P(phi & psi)")

    return Workload("exact-inference", ops, verify, tail_pct=90.0)


# ---------------------------------------------------------------------------
# sampling


def sampling(pec, seed):
    """Two seeded single-instant queries per domain, plus the paper's.

    Sampling cost grows with maxinst, not with the seed.  The operations
    fall in three groups: the shipped domains (9 operations, maxinst 3
    to 9), four random domains (8, maxinst 8) and long narratives (9:
    toss k=12, antibiotic k=20, toss k=16), so the median operation is a
    random domain's.
    """
    rng = random.Random(seed)
    fams = [inputs.random_domain(rng, f"random{i}", maxinst=8) for i in range(4)]
    fams += [inputs.toss(12, Fraction(1)), inputs.antibiotic(20),
             inputs.toss(16, Fraction(1, 2))]
    domains = [(d, _shipped_text(d)) for d in SHIPPED] + \
              [(d, inputs.render(d)) for d in fams]
    ops, refs = [], []
    paper = {name: (q, v) for name, q, given, v in PAPER_QUERIES if given is None}
    for d, text in domains:
        dd = pec.parse_domain(text)
        n = 3 if d.name.startswith(("toss", "antibiotic2")) else 2
        queries = [(q, oracle.forward(d, q))
                   for q in (single_instant_query(rng, d) for _ in range(n))]
        if d.name in paper:
            queries.append(paper[d.name])
        for q, ref in queries:
            phi = pec.parse_query(fmt_formula(q), dd.signature)
            ops.append(Op(f"sample_frequency {d.name}",
                          ("pec.engine", "sample_frequency"),
                          (dd, phi, SAMPLES, rng.randrange(2 ** 31))))
            refs.append(ref)

    def verify(out):
        for op, got, ref in zip(ops, out, refs):
            bound = oracle.sample_bound(ref, SAMPLES)
            expect(abs(float(got - ref)) <= bound,
                   f"{op.name}: frequency {got} too far from {ref}")
            expect((got * SAMPLES).denominator == 1,
                   f"{op.name}: {got} is not a count over {SAMPLES}")

    return Workload("sampling", ops, verify, tail_pct=95.0)


# ---------------------------------------------------------------------------
# compile


def compile_(pec, seed):
    """The three shipped texts, three generated texts of 12 rules and three
    of 20.  Validation cost grows with the square of the rule count, so
    the median operation is the middle 12-rule text, and the tail is in
    the 20-rule group."""
    rng = random.Random(seed)
    gen = [inputs.rule_heavy_domain(rng, f"rules{n}-{i}", n, maxinst)
           for i, (n, maxinst) in enumerate([(12, 30)] * 3 + [(20, 50)] * 3)]
    ops, checks = [], []
    for d in SHIPPED:
        golden = (ROOT / "tests" / "golden" / f"{d.name}.lp").read_text()
        ops.append(Op(f"compile {d.name}", ("workloads", "compile_op"),
                      (_shipped_text(d),)))
        checks.append((d, golden))
    for d in gen:
        ops.append(Op(f"compile {d.name}", ("workloads", "compile_op"),
                      (inputs.render(d),)))
        checks.append((d, None))

    axioms = checks[0][1].split(oracle.AXIOM_MARKER)[1]

    def verify(out):
        for op, got, (d, golden) in zip(ops, out, checks):
            if golden is not None:
                expect(got == golden, f"{op.name}: differs from tests/golden")
            oracle.check_program(d, got, axioms)

    return Workload("compile", ops, verify, tail_pct=90.0)


def compile_op(text):
    """One compile operation: text in, ASP program out."""
    pec = sys.modules["pec"]
    return pec.emit(pec.parse_domain(text), with_axioms=True)


# ---------------------------------------------------------------------------
# cli


CHILD = "import sys; from pec.cli import main; sys.exit(main())"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(argv, env):
    """One `pec` process; the parent waits for it (closed loop)."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def main_inproc(argv, env=None):
    """The same argv through `pec.cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["pec.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_mix(rng):
    """(argv, expected stdout) for one round; every command exits 0."""
    mix = []
    paths = {d.name: f"examples/{d.name}.pec" for d in SHIPPED}
    for d in SHIPPED:
        mix.append((["check", paths[d.name]], oracle.cli_check_stdout(paths[d.name], d)))
    for name, q, given, value in PAPER_QUERIES:
        if given is None:
            mix.append((["query", paths[name], "-q", fmt_formula(q), "--exact"],
                        f"{value}\n"))
        else:
            mix.append((["query", paths[name], "-q", fmt_formula(q),
                         "--given", fmt_formula(given), "--precision", "3"],
                        oracle.decimal(value, 3) + "\n"))
    for d in SHIPPED:
        q = single_instant_query(rng, d)
        mix.append((["query", paths[d.name], "-q", fmt_formula(q)],
                    oracle.decimal(oracle.forward(d, q), 6) + "\n"))
        golden = (ROOT / "tests" / "golden" / f"{d.name}.lp").read_text()
        out = OUT / f"cli-{d.name}.lp"
        mix.append((["translate", paths[d.name], "--with-axioms", "-o",
                     str(out.relative_to(ROOT))], ("file", out, golden)))
    for name in ("coin", "antibiotic"):
        mix.append((["graph", paths[name]], oracle.cli_graph_stdout(name)))
    for name, q, given, value in PAPER_QUERIES:
        if given is None:
            mix.append((["sample", paths[name], "-n", str(CLI_SAMPLES), "--seed",
                         str(rng.randrange(1000)), "-q", fmt_formula(q)],
                        ("sample", value)))
    rng.shuffle(mix)
    return mix


def _check_cli(argv, got, want):
    code, stdout, stderr = got
    expect(code == 0 and stderr == "", f"pec {' '.join(argv)}: exit {code} {stderr!r}")
    if isinstance(want, str):
        expect(stdout == want, f"pec {' '.join(argv)}: stdout {stdout!r} != {want!r}")
    elif want[0] == "file":
        _, path, golden = want
        expect(stdout == "" and path.read_text() == golden,
               f"pec {' '.join(argv)}: output differs from tests/golden")
    else:
        value = want[1]
        lines = stdout.splitlines()
        expect(len(lines) == 3 and lines[0] == f"samples   {CLI_SAMPLES}"
               and lines[2] == f"exact     {oracle.decimal(value, 6)}",
               f"pec {' '.join(argv)}: stdout {stdout!r}")
        expect(lines[1].startswith("frequency ")
               and abs(float(lines[1].split()[1]) - float(value))
               <= oracle.sample_bound(value, CLI_SAMPLES),
               f"pec {' '.join(argv)}: {lines[1]!r} too far from {value}")


def cli(pec, seed, inproc=False):
    """`pec` child processes, or with `inproc` the same argv through
    `main` in this process (the traced run's view of the same mix)."""
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    env = child_env()
    mix = cli_mix(rng)
    runner = "main_inproc" if inproc else "run_child"
    ops = [Op(f"pec {argv[0]}", ("workloads", runner), (argv, env))
           for argv, _ in mix]

    def recheck(i, got):
        _check_cli(mix[i][0], got, mix[i][1])

    def verify(out):
        for i, got in enumerate(out):
            recheck(i, got)

    return Workload("cli", ops, verify, tail_pct=75.0, recheck=recheck)


BUILDERS = {
    "exact-inference": exact_inference,
    "sampling": sampling,
    "compile": compile_,
    "cli": cli,
}

"""End-to-end command line behaviour, including exit codes."""

import itertools
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import pec.cli
from pec.cli import MAX_PRECISION, main
from conftest import EXAMPLES, GOLDEN, ROOT

COIN = str(EXAMPLES / "coin.pec")
ANTIBIOTIC = str(EXAMPLES / "antibiotic.pec")
KEYS = str(EXAMPLES / "keys.pec")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands():
    """The README's ``pec`` commands whose output it states, with that
    output: a ``pec query`` line's trailing ``# …`` comment, or the
    ``# …`` lines that follow a ``pec sample`` line."""
    lines = (ROOT / "README.md").read_text().replace("\\\n", " ").splitlines()
    found = []
    for k, line in enumerate(lines):
        if not line.startswith("pec "):
            continue
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] == "query":
            found.append((argv, comment.strip() + "\n"))
        elif argv[0] == "sample":
            stated = itertools.takewhile(lambda l: l.startswith("# "), lines[k + 1:])
            found.append((argv, "".join(l[2:] + "\n" for l in stated)))
    return found


README_COMMANDS = readme_commands()


def read_int(text: str) -> int:
    """``int(text)`` past the interpreter's digit limit, 1,000 digits at a time."""
    value = 0
    for k in range(0, len(text), 1000):
        value = value * 10 ** len(text[k:k + 1000]) + int(text[k:k + 1000])
    return value


def run_module(*argv, **kwargs):
    """``python -m pec ARGV`` in a child process, importing this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pec", *argv], timeout=60,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


class TestCheck:
    def test_valid_file(self, capsys):
        code, out, _ = run(capsys, "check", COIN)
        assert code == 0
        assert "valid domain description" in out
        assert "fluents 1" in out

    def test_forty_fluent_rule_bodies(self, capsys, tmp_path):
        # condition (i) compares two 41-literal bodies: 2**41 truth-table
        # rows, but a tableau with at most 41 branches per comparison
        fluents = [f"F{i}" for i in range(40)]
        src = tmp_path / "wide.pec"
        src.write_text("\n".join(
            ["maxinst 2", "action Go"]
            + [f"fluent {f} takes-values {{true, false}}" for f in fluents]
            + ["initially-one-of {({" + ", ".join(f"!{f}" for f in fluents) + "}, 1)}",
               "Go & " + " & ".join(fluents) + " causes-one-of {({!F0}, 1)}",
               "Go & " + " & ".join(f"!{f}" for f in fluents)
               + " causes-one-of {({F0}, 1)}",
               "Go performed-at 1"]) + "\n")
        code, out, _ = run(capsys, "check", str(src))
        assert code == 0
        assert "valid domain description" in out

    def test_missing_initial_distribution(self, capsys, tmp_path):
        bad = tmp_path / "bad.pec"
        bad.write_text("maxinst 2\nfluent F takes-values {a, b}\n")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 2
        assert "no i-proposition" in out and "(ii)" in out

    def test_duplicate_occurrence(self, capsys, tmp_path):
        bad = tmp_path / "bad.pec"
        bad.write_text(
            "maxinst 3\nfluent F takes-values {a, b}\naction A\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A performed-at 1\nA performed-at 1\n")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 2
        assert "(iv)" in out

    def test_weight_sum_too_long_to_print(self, capsys, tmp_path):
        # the sum of two short weight tokens has 8,001 digits over 8,001
        d = 10**4000
        bad = tmp_path / "bad.pec"
        bad.write_text("maxinst 2\nfluent F takes-values {a, b}\naction A\n"
                       "initially-one-of {({F=a}, 1)}\n"
                       f"A causes-one-of {{({{F=b}}, 1/{d + 1}), ({{F=a}}, 1/{d + 3}), "
                       "({}, 1/2)}\n")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, err) == (2, "")
        assert out == ("line 5, col 1: causes-one-of weights sum to a fraction "
                       "of 8001 digits over 8001 digits, expected 1\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.pec")
        assert code == 1

    def test_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pec"
        bad.write_text("fluent F takes-values {a")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "line" in err

    def test_oversized_number(self, capsys, tmp_path):
        # more digits than int() reads: a located error, not a traceback
        bad = tmp_path / "long.pec"
        bad.write_text("maxinst " + "1" * 5000 + "\n")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (1, "")
        assert err == "pec check: error: line 1, col 9: number too long (5000 digits)\n"

    def test_invalid_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.pec"
        bad.write_bytes(b"maxinst 3\n% caf\xe9\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert err.startswith("pec check: error: ") and str(bad) in err

    def test_byte_order_mark(self, capsys, tmp_path):
        src = tmp_path / "bom.pec"
        src.write_bytes(b"\xef\xbb\xbf" + (EXAMPLES / "coin.pec").read_bytes())
        code, out, err = run(capsys, "check", str(src))
        assert (code, err) == (0, "")
        assert out.replace(str(src), COIN) == run(capsys, "check", COIN)[1]
        src.write_bytes(b"\xef\xbb\xbfmaxinst x\n")  # columns count from after it
        code, _, err = run(capsys, "check", str(src))
        assert (code, err) == (1, "pec check: error: line 1, col 9: expected an "
                                  "instant bound, found 'x'\n")

    def test_python_m_pec(self):
        child = run_module("check", str(EXAMPLES / "coin.pec"),
                           capture_output=True)
        assert child.returncode == 0
        assert b"valid domain description" in child.stdout


class TestQuery:
    def test_decimal_default_precision(self, capsys):
        code, out, _ = run(capsys, "query", COIN, "-q", "[Coin=Heads]@2")
        assert (code, out.strip()) == (0, "0.510000")

    def test_exact(self, capsys):
        code, out, _ = run(capsys, "query", COIN, "-q", "[Coin=Heads]@2",
                           "--exact")
        assert (code, out.strip()) == (0, "51/100")

    def test_conjunction(self, capsys):
        code, out, _ = run(capsys, "query", ANTIBIOTIC,
                           "-q", "[Bacteria=Absent]@4 & [Rash=Absent]@4")
        assert (code, out.strip()) == (0, "0.650769")

    def test_conditional_exact(self, capsys):
        code, out, _ = run(capsys, "query", ANTIBIOTIC,
                           "-q", "[Bacteria=Absent]@4",
                           "--given", "[Rash=Absent]@4", "--exact")
        assert (code, out.strip()) == (0, "47/53")

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "query", ANTIBIOTIC,
                           "-q", "[Bacteria=Absent]@4",
                           "--given", "[Rash=Absent]@4", "--precision", "3")
        assert (code, out.strip()) == (0, "0.887")

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PEC_PRECISION", "2")
        code, out, _ = run(capsys, "query", COIN, "-q", "[Coin=Heads]@2")
        assert (code, out.strip()) == (0, "0.51")

    def test_precision_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PEC_PRECISION", "abc")
        with pytest.raises(SystemExit) as err:
            main(["query", COIN, "-q", "[Coin=Heads]@2"])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            "pec query: error: PEC_PRECISION must be an integer, not 'abc'\n")

    def test_precision_env_unread_when_exact(self, capsys, monkeypatch):
        monkeypatch.setenv("PEC_PRECISION", "abc")
        code, out, _ = run(capsys, "query", COIN, "-q", "[Coin=Heads]@2", "--exact")
        assert (code, out) == (0, "51/100\n")

    def test_long_conjunction(self, capsys):
        # evaluated without recursion, at the default recursion limit
        query = " & ".join(["[Coin=Heads]@2"] * 1400)
        code, out, _ = run(capsys, "query", COIN, "--exact", "-q", query)
        assert (code, out) == (0, "51/100\n")

    def test_exact_value_too_long_for_one_str(self, capsys, tmp_path):
        # 1 - (1 - 1/d)**12 over d**12: more than 4,800 digits, printed in
        # full, and the interpreter's digit limit is left as it was
        d = 10**400 + 7
        big = tmp_path / "big.pec"
        big.write_text("maxinst 13\nfluent F takes-values {a, b}\naction A\n"
                       "initially-one-of {({F=a}, 1)}\nA causes-one-of {({F=b}, 1)}\n"
                       + "".join(f"A performed-at {i} with-prob 1/{d}\n" for i in range(12)))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "query", str(big), "-q", "[F=b]@13", "--exact")
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        numerator, denominator = map(read_int, out.strip().split("/"))
        assert Fraction(numerator, denominator) == 1 - (1 - Fraction(1, d)) ** 12
        code, out, _ = run(capsys, "query", str(big), "-q", "[F=b]@13", "--precision", "5000")
        assert (code, len(out), out[:10]) == (0, 5003, "0.00000000")

    def test_negative_precision(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["query", COIN, "-q", "[Coin=Heads]@2", "--precision", "-1"])
        assert err.value.code == 1

    # a bad precision is a usage error before any inference is run
    @pytest.mark.parametrize("given", [[], ["--given", "[Coin=Heads]@0"]])
    def test_precision_checked_before_inference(self, capsys, monkeypatch, given):
        calls = []
        for name in ("marginal", "conditional"):
            real = getattr(pec.cli, name)
            monkeypatch.setattr(pec.cli, name, lambda *args, real=real: calls.append(real)
                                or real(*args))
        with pytest.raises(SystemExit) as err:
            main(["query", COIN, "-q", "[Coin=Heads]@2", *given, "--precision", "-1"])
        assert (err.value.code, calls) == (1, [])
        assert capsys.readouterr().err == "pec query: error: precision must be non-negative\n"
        monkeypatch.setenv("PEC_PRECISION", "x")
        with pytest.raises(SystemExit) as err:
            main(["query", COIN, "-q", "[Coin=Heads]@2", *given])
        assert (err.value.code, calls) == (1, [])
        assert capsys.readouterr().err == (
            "pec query: error: PEC_PRECISION must be an integer, not 'x'\n")
        code, out, _ = run(capsys, "query", COIN, "-q", "[Coin=Heads]@2", *given, "--exact")
        assert (code, out, len(calls)) == (0, "51/100\n", 1)

    # --exact prints no digits, but an explicit bad --precision is still a
    # usage error before any inference; PEC_PRECISION stays unread
    @pytest.mark.parametrize("precision, message", [
        ("-1", "precision must be non-negative"),
        (str(MAX_PRECISION + 1), f"precision must be at most {MAX_PRECISION}")])
    def test_explicit_precision_checked_when_exact(self, capsys, monkeypatch, precision, message):
        calls = []
        real = pec.cli.marginal
        monkeypatch.setattr(pec.cli, "marginal", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(SystemExit) as err:
            main(["query", COIN, "-q", "[Coin=Heads]@2", "--exact", "--precision", precision])
        assert (err.value.code, calls) == (1, [])
        assert capsys.readouterr().err == f"pec query: error: {message}\n"
        monkeypatch.setenv("PEC_PRECISION", "x")
        for flag in ([], ["--precision", "3"]):
            code, out, _ = run(capsys, "query", COIN, "-q", "[Coin=Heads]@2", "--exact", *flag)
            assert (code, out) == (0, "51/100\n")

    # format_decimal is quadratic in its digits: a huge precision would spin
    # for minutes, so it is refused as a usage error
    @pytest.mark.parametrize("setting", ["flag", "env"])
    def test_precision_above_the_bound(self, capsys, monkeypatch, setting):
        if setting == "flag":
            flag = ["--precision", str(MAX_PRECISION + 1)]
        else:
            flag = []
            monkeypatch.setenv("PEC_PRECISION", "99999999999")
        with pytest.raises(SystemExit) as err:
            main(["query", COIN, "-q", "[Coin=Heads]@2", *flag])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"pec query: error: precision must be at most {MAX_PRECISION}\n")
        monkeypatch.setenv("PEC_PRECISION", str(MAX_PRECISION))
        code, out, _ = run(capsys, "query", COIN, "-q", "[Coin=Heads]@2")
        assert (code, len(out), out[:8]) == (0, MAX_PRECISION + 3, "0.510000")

    def test_condition_zero(self, capsys):
        code, _, err = run(capsys, "query", COIN, "-q", "[Coin=Heads]@1",
                           "--given", "[Coin=Tails]@0")
        assert code == 2
        assert "probability 0" in err

    def test_query_operand_error(self, capsys):
        code, out, err = run(capsys, "query", COIN, "-q", "&")
        assert (code, out) == (1, "")
        assert err == "pec query: error: line 1, col 1: expected '[' or '('\n"

    def test_query_parse_error(self, capsys):
        code, _, err = run(capsys, "query", COIN, "-q", "[Coin=Heads]@9")
        assert code == 1
        assert "beyond maxinst" in err

    def test_oversized_number(self, capsys, tmp_path):
        code, out, err = run(capsys, "query", COIN, "-q", "[Coin=Heads]@" + "9" * 5000)
        assert (code, out) == (1, "")
        assert err == "pec query: error: line 1, col 14: number too long (5000 digits)\n"
        bad = tmp_path / "long.pec"
        bad.write_text((EXAMPLES / "coin.pec").read_text()
                       + "Toss performed-at 2 with-prob 1/" + "7" * 5000 + "\n")
        code, out, err = run(capsys, "query", str(bad), "-q", "[Coin=Heads]@2")
        line = len((EXAMPLES / "coin.pec").read_text().splitlines()) + 1
        assert (code, out) == (1, "")
        assert err == f"pec query: error: line {line}, col 33: number too long (5000 digits)\n"

    def test_invalid_domain(self, capsys, tmp_path):
        bad = tmp_path / "bad.pec"
        bad.write_text("maxinst 2\nfluent F takes-values {a, b}\n")
        code, _, err = run(capsys, "query", str(bad), "-q", "[F=a]@0")
        assert code == 2


class TestTranslate:
    def test_default_output_name(self, capsys, tmp_path):
        src = tmp_path / "coin.pec"
        src.write_text((EXAMPLES / "coin.pec").read_text())
        code, _, _ = run(capsys, "translate", str(src))
        assert code == 0
        assert (tmp_path / "coin.lp").exists()

    def test_with_axioms_matches_golden(self, capsys, tmp_path):
        out = tmp_path / "coin.lp"
        code, _, _ = run(capsys, "translate", COIN, "--with-axioms",
                         "-o", str(out))
        assert code == 0
        assert out.read_text() == (GOLDEN / "coin.lp").read_text()

    def test_deep_rule_body(self, capsys, tmp_path):
        # normalised without recursion: 1,500 copies of Toss flatten to one
        body = " & ".join(["Toss"] * 1500)
        src = tmp_path / "deep.pec"
        src.write_text((EXAMPLES / "coin.pec").read_text().replace(
            "Toss causes-one-of", f"{body} causes-one-of"))
        out = tmp_path / "deep.lp"
        code, _, err = run(capsys, "translate", str(src), "--with-axioms",
                           "-o", str(out))
        assert (code, err) == (0, "")
        assert out.read_text() == (GOLDEN / "coin.lp").read_text()

    @pytest.mark.parametrize("how", ["default", "-o"])
    def test_never_overwrites_its_input(self, capsys, tmp_path, how):
        # a domain file named *.lp is its own default output
        src = tmp_path / "coin.lp"
        text = (EXAMPLES / "coin.pec").read_text()
        src.write_text(text)
        argv = ["translate", str(src)] + (["-o", f"{tmp_path}/./coin.lp"]
                                          if how == "-o" else [])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith("pec translate: error: output ")
        assert src.read_text() == text

    def test_keys_occurrence_fact(self, capsys, tmp_path):
        out = tmp_path / "keys.lp"
        run(capsys, "translate", KEYS, "-o", str(out))
        assert "performed(pickupKeys,1,99/100)." in out.read_text()


class TestGraph:
    def test_coin_dot(self, capsys):
        code, out, _ = run(capsys, "graph", COIN)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "digraph transitions {"
        assert '  "Coin=Heads";' in lines
        assert ('  "Coin=Heads" -> "Coin=Tails" [label="{Toss}, 49/100"];'
                in lines)
        assert ('  "Coin=Heads" -> "Coin=Heads" [label="{Toss}, 51/100"];'
                in lines)
        assert sum(1 for l in lines if "->" in l) == 4

    def test_antibiotic_counts(self, capsys):
        code, out, _ = run(capsys, "graph", ANTIBIOTIC)
        lines = out.strip().splitlines()
        assert sum(1 for l in lines if "->" in l) == 10
        assert sum(1 for l in lines if l.endswith('";')) == 5

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "graph", ANTIBIOTIC)
        _, second, _ = run(capsys, "graph", ANTIBIOTIC)
        assert first == second

    def test_reader_closes_early(self):
        # as in `pec graph ... | head -1`: a closed stdout is not a failure
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = run_module("graph", ANTIBIOTIC, stdout=write_end,
                               stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert child.returncode == 0
        assert child.stderr == b""

    def test_concurrent_activation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "clash.pec"
        bad.write_text(
            "maxinst 2\nfluent F takes-values {a, b}\n"
            "action A1\naction A2\n"
            "initially-one-of {({F=a}, 1)}\n"
            "A1 causes-one-of {({F=b}, 1)}\n"
            "A2 causes-one-of {({F=a}, 1)}\n")
        code, _, err = run(capsys, "graph", str(bad))
        assert code == 2
        assert "more than one causal rule" in err


class TestSample:
    def test_report_shape(self, capsys):
        code, out, _ = run(capsys, "sample", COIN, "-n", "2000", "--seed", "7",
                           "-q", "[Coin=Heads]@2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "samples   2000"
        assert lines[1].startswith("frequency 0.5")
        assert lines[2] == "exact     0.510000"

    def test_same_seed_same_frequency(self, capsys):
        _, first, _ = run(capsys, "sample", COIN, "-n", "500", "--seed", "3",
                          "-q", "[Coin=Heads]@2")
        _, second, _ = run(capsys, "sample", COIN, "-n", "500", "--seed", "3",
                           "-q", "[Coin=Heads]@2")
        assert first == second

    def test_precision_checked_before_sampling(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("sampled before the precision was checked")

        monkeypatch.setattr("pec.cli.sample_frequency", unreachable)
        monkeypatch.setenv("PEC_PRECISION", "x")
        with pytest.raises(SystemExit) as err:
            main(["sample", COIN, "-n", "100000", "-q", "[Coin=Heads]@2"])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            "pec sample: error: PEC_PRECISION must be an integer, not 'x'\n")

    def test_a_huge_window_samples_like_its_short_twin(self, capsys, tmp_path):
        # a draw steps only at its stops, never in the gaps where no rule
        # fires, so nothing it builds grows with maxinst: 10**9 instants print
        # what 3 do
        body = ("fluent F takes-values {a, b}\naction A\ninitially-one-of {({F=a}, 1)}\n"
                "A causes-one-of {({F=b}, 1/2), ({F=a}, 1/2)}\nA performed-at 1 with-prob 1/2\n")
        printed = []
        for maxinst in (3, 10**9):
            path = tmp_path / f"window{maxinst}.pec"
            path.write_text(f"maxinst {maxinst}\n{body}")
            start = time.process_time()
            printed.append(run(capsys, "sample", str(path), "-n", "10", "--seed", "1",
                               "-q", "[F=b]@2"))
            elapsed = time.process_time() - start
        assert printed[0] == printed[1] == (
            0, "samples   10\nfrequency 0.400000\nexact     0.250000\n", "")
        assert elapsed < 1.0, f"sampling the huge window took {elapsed:.2f} s"

    @pytest.mark.parametrize("maxinst", [2**63 - 1, 10**20 - 1])
    def test_a_window_past_an_index_samples_like_its_short_twin(self, capsys, tmp_path,
                                                                maxinst):
        # satisfies gets the window's end as an int, not as a sequence's
        # length, so a maxinst past the largest index prints what 10**9 does
        body = ("fluent F takes-values {a, b}\naction A\ninitially-one-of {({F=a}, 1)}\n"
                "A causes-one-of {({F=b}, 1/2), ({F=a}, 1/2)}\nA performed-at 1 with-prob 1/2\n")
        path = tmp_path / "window.pec"
        path.write_text(f"maxinst {maxinst}\n{body}")
        for query in ("[F=b]@2", f"[F=b]@{maxinst - 1}"):
            assert run(capsys, "sample", str(path), "-n", "10", "--seed", "1", "-q", query) == (
                0, "samples   10\nfrequency 0.400000\nexact     0.250000\n", "")

    def test_a_huge_window_conditions_like_its_short_twin(self, capsys, tmp_path):
        # conditional's clash check enumerates the worlds at the events
        # alone, so 10**9 instants print what 3 do
        body = ("fluent F takes-values {a, b}\naction A\ninitially-one-of {({F=a}, 1)}\n"
                "A causes-one-of {({F=b}, 1/2), ({F=a}, 1/2)}\nA performed-at 1 with-prob 1/2\n")
        for maxinst in (3, 10**9):
            path = tmp_path / f"window{maxinst}.pec"
            path.write_text(f"maxinst {maxinst}\n{body}")
            start = time.process_time()
            printed = run(capsys, "query", str(path), "-q", f"[F=b]@{maxinst}",
                          "--given", "[A]@1", "--exact")
            elapsed = time.process_time() - start
            assert printed == (0, "1/2\n", "")
            assert elapsed < 1.0, f"conditioning on {maxinst} instants took {elapsed:.2f} s"

    def test_zero_count(self, capsys):
        code, _, err = run(capsys, "sample", COIN, "-n", "0", "-q",
                           "[Coin=Heads]@2")
        assert code == 1
        assert "sample count must be positive" in err


class TestReadme:
    def test_library_example_runs(self, capsys, monkeypatch):
        text = (ROOT / "README.md").read_text()
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(ROOT)
        exec(compile(block, "README.md", "exec"), {})
        out = capsys.readouterr().out
        assert out.endswith("\n" + (GOLDEN / "coin.lp").read_text() + "\n")

    def test_commands_with_stated_output_are_found(self):
        assert [argv[0] for argv, _ in README_COMMANDS] == \
            ["query"] * 3 + ["sample", "query"]

    @pytest.mark.parametrize("argv,stated", README_COMMANDS,
                             ids=[" ".join(argv) for argv, _ in README_COMMANDS])
    def test_prints_what_the_readme_states(self, capsys, monkeypatch, argv, stated):
        monkeypatch.chdir(ROOT)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, stated)


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1


class TestImports:
    @staticmethod
    def loaded(*names):
        """Which of ``names`` ``import pec.cli`` loads; -S keeps site's own
        imports out of the check."""
        code = f"import sys, pec.cli; print(sorted({set(names)!r} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cli_loads_neither_dataclasses_nor_inspect(self):
        # `import dataclasses` alone costs a `pec` process about 8 ms, most
        # of it `inspect`
        assert self.loaded("dataclasses", "inspect") == "[]\n"

    def test_cli_loads_no_typing(self):
        # `typing` costs 5-8 ms of `import pec.cli` where site has not loaded it
        assert self.loaded("typing") == "[]\n"

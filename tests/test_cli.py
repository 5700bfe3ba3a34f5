import importlib.util
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qtriangular
from qtriangular import cli, deriv, structure

import parse_oracle
from helpers import count_element_ops, random_sextuple, random_unit

from qtriangular.cli import ParseError, format_element, main, parse, parse_scalar, parse_sextuple
from qtriangular.coeff import ONE, GaussianRational, ScalarQ, qpow
from qtriangular.qalgebra import Element, TensorElement, random_element
from qtriangular.triangular import (
    antipode, b_element, build, coproduct, delta_spec, gamma_spec, rho_spec, sigma_spec,
)


T2 = build(2)
U2 = build(2, True)


def test_parse_examples():
    assert parse("a[2,2]*a[1,2] - q*a[1,2]*a[2,2]", T2) == T2.zero()
    assert parse("1", T2) == T2.one()
    assert parse("t*det - 1", U2) == U2.zero()


def test_parse_scalars_and_powers():
    assert parse("3/4*q^-2", T2) == T2.scalar(qpow(-2, GaussianRational(3, 0) / 4))
    assert parse("(1/2+1/3*i)*q", T2) == T2.scalar(
        qpow(1, GaussianRational(1, 0) / 2 + GaussianRational(0, 1) / 3)
    )
    assert parse("-q^2", T2) == T2.scalar(-qpow(2))
    assert parse("a[1,1]^3", T2) == T2.a(1, 1) ** 3
    assert parse("a[1,1]^-2", U2) == U2.a(1, 1) ** -2
    assert parse("z", U2) == U2.a(1, 1) * U2.a(2, 2) ** -1
    assert parse("(a[1,1] + a[2,2])^2", T2) == (T2.a(1, 1) + T2.a(2, 2)) ** 2


def test_format_examples():
    assert format_element(antipode(U2.a(1, 2))) == "- a[1,1]^-1*a[1,2]*a[2,2]^-1"
    assert format_element(T2.zero()) == "0"
    T3 = build(3)
    assert format_element(b_element(1, 3, T3)) == "q^2*a[1,2]*a[2,3] - q^3*a[1,3]*a[2,2]"


def test_format_coefficient_shapes():
    from qtriangular.coeff import GaussianRational as G, ONE, Q

    a12 = T2.a(1, 2)
    assert format_element(a12.scale(ONE + Q)) == "(1 + q)*a[1,2]"
    assert format_element(a12.scale(G(1, 1))) == "(1+i)*a[1,2]"
    assert format_element(a12.scale(G(0, -1))) == "- i*a[1,2]"
    assert format_element(T2.scalar(-2) + a12) == "a[1,2] - 2"
    for text in ("(1 + q)*a[1,2]", "(1+i)*a[1,2]", "- i*a[1,2]", "a[1,2] - 2"):
        assert format_element(parse(text, T2)) == text


def test_parse_errors_have_positions():
    cases = [
        ("a[1,2]^-1", T2),  # negative power of a non-unit
        ("t", T2),
        ("z", T2),
        ("a[2,1]", T2),
        ("a[1,3]", T2),
        ("q a[1,1]", T2),  # implicit multiplication rejected
        ("1/0", T2),
        ("(1+q", T2),
        ("@", T2),
        ("", T2),
    ]
    for text, alg in cases:
        with pytest.raises(ParseError):
            parse(text, alg)
    # an unknown character is reported where the whitespace before it starts
    for text, pos in (("q a[1,1]", 2), ("@", 0), ("a[1,1] @", 6)):
        with pytest.raises(ParseError) as info:
            parse(text, T2)
        assert info.value.pos == pos
    assert parse("a[1,1]   ", T2) == T2.a(1, 1)


def _outcome(fn, *args):
    """``fn(*args)`` with its type, or the type and text of the ValueError
    (ParseError included) it raises."""
    try:
        value = fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)
    return type(value).__name__, value


def _same_as_oracle(text, alg):
    """Each public reader and its oracle give equal values of one type, or
    identical error texts, on ``text``."""
    assert _outcome(parse, text, alg) == _outcome(parse_oracle.parse, text, alg), text
    assert _outcome(parse_scalar, text) == _outcome(parse_oracle.parse_scalar, text), text
    assert _outcome(parse_sextuple, text) == _outcome(parse_oracle.parse_sextuple, text), text


#: every malformed input of this file, and variants around the generator token
#: and the scalar powers
MALFORMED = (
    "a[1,2]^-1", "t", "z", "a[2,1]", "a[1,3]", "a[9,9]", "q a[1,1]", "1/0", "(1+q", "@", "",
    "a[1,1] @", "1 +", "a[1,1] - -", "a[1,1] ** 2", "(" * 101 + "1" + ")" * 101,
    "[1,1,1,0,0]", "1,1,1,0,0,0", "[1,1,1,0,0,q]", "[a[1,1],1,1,0,0,0]",
    "[1,1,1,+1,0,0]", "[1,1,1,1_0,0,0]", "[(1+q),1,1,0,0,0]", "[a[1,1]-a[1,1],1,1,0,0,0]",
    "a [ 1 , 2 ]", "a[1, 2", "1/a[1,1]", "(1+q)^-1", "a", "a[", "a[1", "a[1,", "a[1 2]", "a[1,2]]",
    "a(1,2)", "a[1,2,3]", "a[-1,2]", "a[1,2]a[1,1]", "qa[1,1]", "deta[1,1]", "a[01,2]", "a[1,1]^1.5",
    "0^-1", "(q-q)^-1", "(a[1,1]-a[1,1])^-1", "i^-3", "(2*q)^-2", "det^-1", "t^-2", "z^-1",
    "2*q^-2*(1+i)/3", "- -q^-2", "a[" + "1" * 5000 + ",1]", "a[1," + "1" * 5000, "q^" + "1" * 5000,
    "a[1,2]^x", "a[1,2]^", "a[1,2]^--3", "-a[1,2]^-1", "a[9,9]^x",
    "q^", "q^x", "q^2^3", "a[1,1]^2^3", "2*-q^2*-a[1,1]",
)


@pytest.mark.parametrize("text", MALFORMED)
def test_parser_matches_the_oracle_on_malformed_input(text):
    for alg in (T2, U2, build(3, True)):
        _same_as_oracle(text, alg)
        _same_as_oracle(f"[{text},1,1,0,0,0]", alg)


@pytest.mark.parametrize("text", [
    "(a[1,1]*a[1,2])^3", "(2*q*a[1,2]*a[1,1])^2*a[1,1]", "(i*a[2,2]*a[1,2]*a[1,1]^2)^5", "(a[1,2]*a[1,1])^0",
    "(q^2*a[1,1]*a[2,2]^-1)^-3", "(-a[1,2])^3*(-a[1,1])^-1", "a[1,2]^2*a[1,1]^3*a[1,2]*(a[1,1]+a[1,2])*a[1,1]",
    "-q^-2*a[1,1]^-2*-a[1,2]", "a[1,2]*q*a[1,1]^0*q^-1",
])
def test_one_term_products_and_powers_match_the_oracle(text):
    for alg in (T2, U2, build(3, True)):
        _same_as_oracle(text, alg)


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parser_matches_the_oracle_on_session_inputs(seed):
    texts = 0
    for query in _workloads().cli_session_queries(qtriangular, seed):
        args = cli._build_parser().parse_args(query.argv)
        alg = build(args.n, args.localized)
        inputs = args.args if args.command == "autos" else (getattr(args, name, None) for name in ("expr", "lhs", "rhs"))
        for text in filter(None, inputs):
            _same_as_oracle(text, alg)
            texts += 1
    assert texts > 1500


def test_a_generator_is_one_token_with_inner_whitespace(capsys):
    assert [tok[:2] for tok in cli._tokenize("a [ 1 , 2 ]*a[1,1]")] == [
        ("gen", "a"), ("op", "*"), ("gen", "a"), ("end", "")]
    assert parse("a [ 1 , 2 ]*a[1,1]", T2) == T2.a(1, 2) * T2.a(1, 1)
    assert main(["normalize", "a [ 1 , 2 ]*a[1,1]"]) == 0
    assert capsys.readouterr().out == "q^-1*a[1,1]*a[1,2]\n"


def test_scalar_text_makes_no_element_product(monkeypatch, capsys):
    calls = count_element_ops(monkeypatch)
    # '/' divides integers only, so this stops at the '/' after the group
    with pytest.raises(ParseError, match="unexpected trailing input '/'"):
        parse("2*q^-2*(1+i)/3", T2)
    want = qpow(-2, GaussianRational(2, 2) / 3)
    assert parse_scalar("2*q^-2*(1+i)*1/3") == want
    assert parse("2*q^-2*(1+i)*1/3", T2) == T2.scalar(want)
    assert parse_sextuple("[2*q^-2*(1+i)*1/3,q,-i,1,2,3]").l12 == want
    assert main(["normalize", "a[1,2]"]) == 0
    assert capsys.readouterr().out == "a[1,2]\n"
    # a product of scalars and generator powers folds into one monomial
    assert parse("3*q^-1*a[1,1]^2*a[1,2]*a[2,2]^-1", U2) == U2.monomial((2, 1, -1), qpow(-1, 3))
    assert parse("(q*a[1,2])^3*a[1,1]^-2", U2) == U2.monomial((-2, 3, 0), qpow(9))
    assert calls == []
    # the counters do see products and sums
    parse("(a[1,1]+1)*a[1,2] + 1", T2)
    assert calls == ["__add__", "__mul__", "__add__"]


def test_generator_and_q_powers_build_no_element(monkeypatch):
    calls = count_element_ops(monkeypatch)
    built, powers = [], []
    of, power = Element._of.__func__, cli._Parser.power
    # every element the library builds goes through the trusted _of
    monkeypatch.setattr(Element, "_of", classmethod(lambda cls, alg, terms: built.append("_of") or of(cls, alg, terms)))
    monkeypatch.setattr(cli._Parser, "power", lambda self, e, k: powers.append(k) or power(self, e, k))
    # a[i,j]^k and q^k fold into the running coefficient and monomial, and
    # only the finished product becomes an Element
    got = parse("3*q^-1*a[1,1]^2*a[1,2]*a[2,2]^-1", U2)
    assert powers == []
    assert calls == []
    assert built == ["_of"]
    assert got.terms == {(2, 1, -1): qpow(-1, 3)}


def test_json_writer_prints_the_indented_dumps():
    for payload in ({}, [], {"terms": []}, [[]], {"equal": True}, {"hopf": False},
                    {"expr": "- i*a[1,2]", "terms": [[[0, 1, 0], [[0, 0, 1, -1, 1]]]]}):
        assert cli._indented(payload) == json.dumps(payload, indent=2), payload


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_json_output_is_the_indented_dumps_on_session_queries(seed, capsys):
    # center prints json.dumps without indent; every other command of the
    # session prints its --json payload through _emit
    printed = 0
    for query in _workloads().cli_session_queries(qtriangular, seed):
        if "--json" not in query.argv or "center" in query.argv:
            continue
        main(list(query.argv))
        out = capsys.readouterr().out
        if out:
            assert out == json.dumps(json.loads(out), indent=2) + "\n", query.argv
            printed += 1
    assert printed > 400


def test_check_all_leaves_the_cached_generators_intact(capsys):
    assert main(["--n", "3", "check", "all"]) == 0
    assert main(["--n", "3", "--localized", "antipode", "a[1,3]*a[2,2]^-1"]) == 0
    capsys.readouterr()
    for localized in (False, True):
        alg = build(3, localized)
        # γ's images are the cached generators themselves
        total = sum(alg.a(i, j) for i, j in alg.gen_pairs)
        for spec in (delta_spec(alg), rho_spec(alg), gamma_spec(alg), sigma_spec(alg)):
            spec(total)
        for g, (i, j) in enumerate(alg.gen_pairs):
            cached = alg.a(i, j)
            assert cached is alg.a(i, j)
            assert type(cached) is Element and cached.algebra is alg
            assert cached.terms == alg.gen(g).terms
            assert list(cached.terms.values()) == [ONE]


def test_roundtrip_seeded():
    for n in (2, 3, 4):
        for localized in (False, True):
            alg = build(n, localized)
            rng = random.Random(1000 + n * 10 + localized)
            for _ in range(40):
                e = random_element(alg, rng)
                assert parse(format_element(e), alg) == e


def test_scalar_text_roundtrip():
    rng = random.Random(77)
    for _ in range(50):
        s = ScalarQ({})
        for _ in range(rng.randint(1, 4)):
            s = s + qpow(rng.randint(-3, 3), rng.choice([
                GaussianRational(1), GaussianRational(-2, 3),
                GaussianRational(0, 1), GaussianRational(1, -1),
            ]))
        assert parse_scalar(str(s)) == s


def test_parse_sextuple_roundtrip():
    rng = random.Random(78)
    for _ in range(25):
        s = random_sextuple(rng)
        assert parse_sextuple(str(s)) == s
    with pytest.raises(ParseError):
        parse_sextuple("[1,1,1,0,0]")
    with pytest.raises(ParseError):
        parse_sextuple("1,1,1,0,0,0")
    with pytest.raises(ParseError):
        parse_sextuple("[1,1,1,0,0,q]")
    with pytest.raises(ParseError):
        parse_sextuple("[a[1,1],1,1,0,0,0]")


def test_sextuple_errors_name_the_offending_token():
    for text, pos in (("[1,1,1,0,0]", 10), ("[1,1,1,0,0,q]", 11), ("[a[1,1],1,1,0,0,0]", 1)):
        with pytest.raises(ParseError) as info:
            parse_sextuple(text)
        assert info.value.pos == pos, text


def test_sextuple_integers_follow_the_expression_grammar(capsys):
    # j, k and l are the grammar's int := '-'? digits, so no '+' sign and no
    # digit separator, and whitespace may follow the minus as in any expression
    for text in ("[1,1,1,+1,0,0]", "[1,1,1,1_0,0,0]"):
        assert main(["autos", "invert", text]) == 2, text
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), text
    assert main(["autos", "invert", "[1,1,1,-1,0,0]"]) == 0
    want = capsys.readouterr()
    assert main(["autos", "invert", "[1,1,1,- 1,0,0]"]) == 0
    assert capsys.readouterr() == want


def test_cli_normalize_and_equal(capsys):
    assert main(["normalize", "a[2,2]*a[1,2]"]) == 0
    assert capsys.readouterr().out.strip() == "q*a[1,2]*a[2,2]"
    assert main(["equal", "a[2,2]*a[1,2]", "q*a[1,2]*a[2,2]"]) == 0
    assert main(["equal", "a[1,1]", "a[2,2]"]) == 1
    capsys.readouterr()
    assert main(["--json", "normalize", "q*a[1,2]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expr"] == "q*a[1,2]"
    assert payload["terms"] == [[[0, 1, 0], [[1, 1, 1, 0, 1]]]]


def test_cli_coalgebra_commands(capsys):
    assert main(["--n", "3", "delta", "a[1,3]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "a[1,1] (x) a[1,3] + a[1,2] (x) a[2,3] + a[1,3] (x) a[3,3]"
    assert main(["--n", "3", "--json", "delta", "a[1,3]"]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    assert terms == coproduct(parse("a[1,3]", build(3))).to_json()
    assert main(["counit", "a[1,1]*a[2,2]"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["--localized", "antipode", "a[1,2]"]) == 0
    assert capsys.readouterr().out.strip() == "- a[1,1]^-1*a[1,2]*a[2,2]^-1"
    assert main(["--localized", "star", "a[1,1]"]) == 0
    assert capsys.readouterr().out.strip() == "a[2,2]^-1"
    assert main(["antipode", "a[1,2]"]) == 2  # needs --localized


def test_cli_b_and_center(capsys):
    assert main(["--n", "3", "b", "1", "3"]) == 0
    assert capsys.readouterr().out.strip() == "q^2*a[1,2]*a[2,3] - q^3*a[1,3]*a[2,2]"
    assert main(["--localized", "center"]) == 0
    assert "(1, 0, -1)" in capsys.readouterr().out
    assert main(["center"]) == 0
    assert "Z = K" in capsys.readouterr().out
    assert main(["--n", "4", "--json", "center"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == []


def test_cli_check(capsys):
    assert main(["check", "bialgebra", "s-squared"]) == 0
    out = capsys.readouterr().out
    assert "bialgebra[n=2]: PASS" in out and "s-squared[n=2]: PASS" in out
    assert main(["check", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["check", "negative-controls"]) == 0
    assert "negative-controls[n=2]: PASS" in capsys.readouterr().out


def test_cli_derivations(capsys):
    assert main(["--json", "derivations", "classify", "--bound", "1"]) == 0
    lines = capsys.readouterr().out.strip()
    rows = json.loads(lines)
    assert {"s": 1, "t": 2, "nu": [0, 1, 0], "verdict": True} in rows
    assert main(["derivations", "check-table"]) == 0
    assert "derivation-table[n=2]: PASS" in capsys.readouterr().out


def test_json_output_is_one_document(capsys):
    assert main(["--n", "3", "--json", "check", "all"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in reports] == [*structure.SUITES, "negative-controls"]
    assert all(r["passed"] and r["n"] == 3 and r["witness"] is None for r in reports)
    assert main(["--json", "derivations", "check-table"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table == {"name": "derivation-table", "passed": True, "witness": None}


def test_classify_disagreement_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(deriv, "dertypes_expected", lambda st, nu: False)
    assert main(["derivations", "classify", "--bound", "1"]) == 2
    assert "disagrees with the predicate" in capsys.readouterr().err


def test_cli_autos(capsys):
    assert main(["autos", "compose", "[1,1,1,1,0,0]", "[1,1,1,0,1,0]"]) == 0
    assert capsys.readouterr().out.strip() == "[1,1,1,1,2,-1]"
    assert main(["autos", "invert", "[1,1,1,0,2,1]"]) == 0
    assert capsys.readouterr().out.strip() == "[1,1,1,0,-2,-1]"
    assert main(["autos", "conjugate", "[q,2,3,1,4,5]"]) == 0
    assert capsys.readouterr().out.strip() == "[q,3,2,-1,5,4]"
    assert main(["autos", "is-hopf", "[q,1,1,2,2,-2]"]) == 0
    capsys.readouterr()
    assert main(["autos", "is-hopf", "[1,1,1,0,1,0]"]) == 1
    capsys.readouterr()
    assert main(["autos", "decompose", "[5,2,3,0,4,7]"]) == 0
    assert "[1,1,1,0,0,0] * [1,1,1,0,4,7] * [5,2,3,0,0,0]" in capsys.readouterr().out
    assert main(["autos", "compose", "[1,1,1,0,0,0]"]) == 2  # arity


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for line in readme.splitlines():
        if line.startswith("qtriangular ") and "# -> " in line:
            command, expected = line.split("# -> ")
            yield shlex.split(command)[1:], expected.strip()


README_EXAMPLES = list(_readme_examples())


@pytest.mark.parametrize("argv,expected", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples(argv, expected, capsys):
    # each README line "qtriangular ARGS  # -> TEXT": TEXT is the first line printed
    main(argv)
    assert capsys.readouterr().out.splitlines()[0] == expected


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```", 1)[0]
    src = str(Path(qtriangular.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_reports_parse_errors(capsys):
    assert main(["normalize", "a[9,9]"]) == 2
    err = capsys.readouterr().err
    assert "out of range" in err


def _nested(depth, inner="1"):
    return "(" * depth + inner + ")" * depth


def test_deep_parentheses_exit_2(capsys):
    # past the cap the parser stops at the offending "(" instead of
    # recursing until Python's stack runs out
    want = f"error: parentheses nested deeper than {cli.MAX_DEPTH} (at position {cli.MAX_DEPTH})\n"
    assert main(["normalize", _nested(400)]) == 2
    assert capsys.readouterr() == ("", want)
    assert main(["autos", "invert", f"[{_nested(300)},1,1,1,1,1]"]) == 2
    assert capsys.readouterr().err.startswith("error: parentheses nested deeper than")
    with pytest.raises(ParseError, match=f"at position {cli.MAX_DEPTH}"):
        parse(_nested(cli.MAX_DEPTH + 1), T2)


def test_nesting_at_the_cap_parses(capsys):
    assert parse(_nested(cli.MAX_DEPTH, "a[1,2]"), T2) == T2.a(1, 2)
    # the depth is the nesting, not the number of groups
    assert parse("+".join([_nested(cli.MAX_DEPTH)] * 3), T2) == T2.scalar(3)
    assert main(["normalize", _nested(cli.MAX_DEPTH, "q")]) == 0
    assert capsys.readouterr().out == "q\n"


def test_long_unary_minus_runs_parse(capsys):
    assert main(["normalize", "1+" + "-" * 3000 + "1"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert parse("-" * 3001 + "a[1,1]", T2) == -T2.a(1, 1)
    # a unary minus still binds looser than a power
    assert parse("-a[1,2]^2", T2) == -(T2.a(1, 2) ** 2)
    assert parse("--a[1,2]^2", T2) == T2.a(1, 2) ** 2


class Built(Exception):
    pass


@pytest.fixture
def no_build(monkeypatch):
    """Make building any algebra raise ``Built``, so a guard that lets an
    oversized input through fails fast instead of running out of memory."""

    def build_raises(*args):
        raise Built(args)

    monkeypatch.setattr(cli, "build", build_raises)
    monkeypatch.setattr(structure, "build", build_raises)


def test_n_above_max_n_exits_2_before_any_algebra(capsys, no_build):
    n = cli.MAX_N + 1
    want = f"error: --n {n} is above the largest supported size {cli.MAX_N}\n"
    for argv in (["normalize", "a[1,1]"], ["check", "star"]):
        assert main(["--n", str(n), *argv]) == 2
        assert capsys.readouterr() == ("", want)
    # the ceiling itself passes the guard and reaches the algebra
    with pytest.raises(Built):
        main(["--n", str(cli.MAX_N), "normalize", "a[1,1]"])


def test_center_above_max_center_exits_2_before_any_algebra(capsys, no_build):
    cap = cli.MAX_CENTER
    for argv in (["--n", str(cap + 1), "center"], ["--n", "50", "--localized", "--json", "center"]):
        n = argv[1]
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: center at --n {n} is above the largest supported size {cap}\n")
    # the ceiling itself, and other commands above it, reach the algebra
    for argv in (["--n", str(cap), "center"], ["--n", str(cap + 1), "normalize", "a[1,1]"]):
        with pytest.raises(Built):
            main(argv)


def test_chain_sums_above_max_chain_exit_2_before_any_algebra(capsys, no_build):
    cap = cli.MAX_CHAIN
    for argv, command, j in (
        (["--n", "50", "b", "1", "50"], "b", 50),
        (["--n", "50", "--localized", "antipode", "a[1,50]"], "antipode", 50),
        (["--n", "50", "check", "star"], "check", 50),
        (["--n", str(cap + 3), "--localized", "star", "a[1,1]"], "star", cap + 3),
        (["--n", str(cap + 3), "check", "bialgebra"], "check", cap + 3),
        (["--n", str(cap + 3), "b", "1", str(cap + 3)], "b", cap + 3),
    ):
        assert main(argv) == 2, argv
        want = f"error: {command} needs b[1,{j}], whose 2^{j - 2} terms are above the largest supported 2^{cap}\n"
        assert capsys.readouterr() == ("", want)
    assert main(["--n", "50", "b", "2", "50"]) == 2
    assert "needs b[2,50], whose 2^47 terms" in capsys.readouterr().err
    # at the cap, and for b[i,j] that are short or out of range, the guard
    # lets the command through to the algebra
    for argv in (
        ["--n", str(cap + 2), "b", "1", str(cap + 2)],
        ["--n", str(cap + 2), "--localized", "star", "a[1,1]"],
        ["--n", str(cap + 2), "check", "star"],
        ["--n", "50", "b", "1", "2"],
        ["--n", "50", "b", "49", "50"],
        ["--n", "50", "b", "1", "51"],
        ["--n", "50", "b", "2", "1"],
        ["--n", "50", "normalize", "a[1,1]"],
    ):
        with pytest.raises(Built):
            main(argv)


def test_chain_cap_boundary_answers(capsys):
    m = cli.MAX_CHAIN + 2
    assert main(["--n", str(m), "--json", "b", "1", str(m)]) == 0
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 2**cli.MAX_CHAIN


def test_reused_parser_leaks_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert main(["--json", "derivations", "classify", "--bound", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 3 * 2**3
    assert main(["derivations", "classify"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 * 4**3  # --bound is back to 3
    assert main(["--json", "normalize", "q*a[1,2]"]) == 0
    assert json.loads(capsys.readouterr().out)["expr"] == "q*a[1,2]"
    assert main(["normalize", "q*a[1,2]"]) == 0
    assert capsys.readouterr().out == "q*a[1,2]\n"
    assert main(["check", "bialgebra"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    for name in [*structure.SUITES, "negative-controls"]:
        assert f"{name}[n=2]: PASS" in out


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["normalize"], 2)])
def test_help_and_usage_errors_repeat_identically(capsys, argv, code):
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert (outputs[0].out if code == 0 else outputs[0].err).startswith("usage: qtriangular")


#: argvs near the shapes the fast argv reader takes, each of which it must
#: either read as argparse does or leave to argparse
NEAR_MISS_ARGVS = (
    "--n=3", "--loc", "-h", "--n -3", "--seed x", "--", "normalize -a[1,2]", 'normalize "- a[1,2]"',
    "normalize --json x", "b 1", "b 1 x", "center extra", "autos frob [1,1,1,0,0,0]", "autos invert",
    "equal x", "--n=3 normalize a[1,3]", "--loc normalize a[1,1]", "--n -3 normalize a[1,1]",
    "--n +3 normalize a[1,3]", "--n ' 3' normalize a[1,3]", "--n 3 --n 2 normalize a[1,2]",
    "--json --json normalize q", "--seed 9 normalize q", "--seed", "--n", "normalize", "normalize ''",
    "normalize -", "normalize -1", "b -1 2", "--n 3 b 1 3", "b 1 2 3", "b x 2", 'equal "- a[1,2]" -a[1,2]',
    'equal "- a[1,2]" "- a[1,2]"', "normalize a[1,1] --json", "normalize -- a[1,1]", "--n 3 -- normalize a[1,1]",
    "check", "check star bialgebra", "check --json", "derivations", "derivations frob", "derivations check-table x",
    "derivations classify --bound 0", "autos compose [1,1,1,1,0,0]", "autos compose [1,1,1,1,0,0] [1,1,1,0,1,0]",
    "autos is-hopf [q,1,1,2,2,-2]", "autos decompose '[1,1,1,- 1,0,0]'", "frob", "", "--json",
    "--localized --json star a[1,1]", "--localized star '- a[1,1]'", "counit a[1,1] a[2,2]", "delta",
)


def _command_argvs():
    """Plain-shape argvs built from ``cli._COMMANDS``, each under no flags,
    ``--json`` and ``--n 3 --localized``: per command every token count
    from one below its least to one above its most (a list taking at most
    two), and per int or choice argument one argv with a bad token there."""
    argvs = []
    for name, _, arguments, _ in cli._COMMANDS:
        positionals = [kw for arg, kw in arguments if not arg.startswith("-")]
        samples = [kw["choices"][0] if "choices" in kw else "1" if kw.get("type") is int else "a[1,1]"
                   for kw in positionals]
        listed = bool(positionals) and "nargs" in positionals[-1]
        least = len(positionals) - (listed and positionals[-1]["nargs"] == "*")
        stream = samples + [samples[-1] if samples else "a[1,1]"] * 3
        commands = [[name, *stream[:count]] for count in range(max(least - 1, 0), len(samples) + listed + 2)]
        commands += [[name, *samples[:at], "frob", *samples[at + 1:]]
                     for at, kw in enumerate(positionals) if "type" in kw or "choices" in kw]
        argvs += [flags + command for flags in ([], ["--json"], ["--n", "3", "--localized"]) for command in commands]
    return argvs


def _argparse_namespace(argv):
    """What ``_build_parser().parse_args(argv)`` returns, or None where it exits."""
    try:
        return cli._build_parser().parse_args(argv)
    except SystemExit:
        return None


def test_argv_reader_matches_argparse():
    # an argv built from the command table is read by the reader exactly
    # when argparse accepts it
    for argv in _command_argvs():
        assert cli._read_argv(argv) == _argparse_namespace(argv), argv
    read = 0
    workloads = _workloads()
    argvs = [query.argv for seed in (0, 1, 2) for query in workloads.cli_session_queries(qtriangular, seed)]
    argvs += [shlex.split(line) for line in NEAR_MISS_ARGVS]
    for argv in argvs:
        args = cli._read_argv(argv)
        if args is not None:
            assert args == cli._build_parser().parse_args(argv), argv
            read += 1
    # nearly every session argv takes the reader
    assert read > 0.99 * (len(argvs) - len(NEAR_MISS_ARGVS))


def test_a_plain_argv_builds_no_argparse_tree():
    # in a fresh process, so that no earlier test's call has built the tree
    code = ("from qtriangular import cli\n"
            "cli._build_parser.cache_clear()\n"
            "assert cli.main(['normalize', 'a[1,1]']) == 0\n"
            "print(cli._build_parser.cache_info().currsize)\n")
    src = str(Path(qtriangular.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "a[1,1]\n0\n", "")


def test_the_command_table_has_the_shapes_the_reader_relies_on():
    """Only a command's last positional takes ``nargs`` ("*" or "+"), every
    option has a default, and every flag stores a value or ``True``."""
    options = [(arg, kw) for _, _, arguments, _ in cli._COMMANDS for arg, kw in arguments if arg.startswith("-")]
    for name, _, arguments, _ in cli._COMMANDS:
        positionals = [kw for arg, kw in arguments if not arg.startswith("-")]
        assert not any("nargs" in kw for kw in positionals[:-1]), name
        assert all(kw.get("nargs") in (None, "*", "+") for kw in positionals), name
    for arg, kw in [*cli._FLAGS, *options]:
        assert arg.startswith("--") and "default" in kw, arg
        assert kw.get("action", "store") in ("store", "store_true"), arg


def _main_outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


@pytest.mark.parametrize("line", NEAR_MISS_ARGVS)
def test_near_miss_argvs_behave_as_under_argparse(line, capsys, monkeypatch):
    argv = shlex.split(line)
    fast = _main_outcome(argv, capsys)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert _main_outcome(argv, capsys) == fast


def test_main_reads_sys_argv_through_the_reader(capsys, monkeypatch):
    seen = []
    read = cli._read_argv
    monkeypatch.setattr(cli, "_read_argv", lambda argv: seen.append(list(argv)) or read(argv))
    monkeypatch.setattr(sys, "argv", ["qtriangular", "--n", "3", "normalize", "a[2,2]*a[1,2]"])
    assert main() == 0
    assert capsys.readouterr().out == "q*a[1,2]*a[2,2]\n"
    assert seen == [["--n", "3", "normalize", "a[2,2]*a[1,2]"]]


def test_classify_above_max_bound_exits_2_before_the_sweep(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "classify_T2", lambda bound: calls.append(bound) or [])
    cap = cli.MAX_BOUND
    for argv in (["derivations", "classify", "--bound", str(cap + 1)],
                 ["--json", "derivations", "classify", "--bound", "1000"]):
        assert main(argv) == 2
        bound = argv[-1]
        assert capsys.readouterr() == ("", f"error: classify --bound {bound} is above the largest supported bound {cap}\n")
    assert calls == []
    # the cap itself reaches the sweep, and check-table ignores --bound
    assert main(["derivations", "classify", "--bound", str(cap)]) == 0
    assert calls == [cap]
    assert main(["derivations", "check-table", "--bound", "1000"]) == 0


def test_check_rejects_unknown_suite_before_running_any(capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(structure.SUITES, "bialgebra", lambda n, seed: calls.append(n))
    assert main(["--n", "7", "check", "bialgebra", "nonsense"]) == 2
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("unknown suite 'nonsense'; available: bialgebra, ")


def test_huge_exponents_parse_fast():
    # powers cost O(log exponent) multiplications, not O(exponent)
    cases = [
        ("q^1000000", T2, T2.scalar(qpow(1000000))),
        ("a[1,1]^-50000*a[1,1]^50000", U2, U2.one()),
        ("(q*a[1,2])^30000", T2, T2.monomial((0, 30000, 0), qpow(30000))),
        ("0^1000000 + 0^0", T2, T2.one()),
    ]
    for text, alg, want in cases:
        t0 = time.perf_counter()
        got = parse(text, alg)
        dt = time.perf_counter() - t0
        assert got == want, text
        assert dt < 1.0, f"{text} took {dt:.2f}s"


def test_huge_exponents_through_structure_maps():
    # the images' powers are built by square-and-multiply, so the exponent
    # costs O(log k) products and never deepens the stack
    src = str(Path(qtriangular.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    cases = [
        ("antipode", "a[1,1]^-5000", "a[1,1]^5000"),
        ("star", "a[1,2]^1000", "a[1,1]^-1000*a[1,2]^1000*a[2,2]^-1000"),
        ("star", "a[1,1]^100000", "a[2,2]^-100000"),
        ("antipode", "a[1,2]^5000", "a[1,1]^-5000*a[1,2]^5000*a[2,2]^-5000"),
    ]
    for cmd, text, want in cases:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qtriangular", "--n", "2", "--localized", cmd, text],
            env=env, capture_output=True, text=True, timeout=60,
        )
        dt = time.perf_counter() - t0
        assert proc.returncode == 0, (cmd, text, proc.stderr)
        assert "Traceback" not in proc.stderr, (cmd, text)
        assert proc.stdout.strip() == want, (cmd, text)
        assert dt < 1.0, f"{cmd} {text} took {dt:.2f}s"


def test_python_dash_m_runs_the_cli():
    src = str(Path(qtriangular.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qtriangular", "normalize", "a[2,2]*a[1,2]"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "q*a[1,2]*a[2,2]"
    assert proc.stderr == ""


def test_center_json_bytes(capsys):
    assert main(["--localized", "--json", "center"]) == 0
    assert capsys.readouterr().out == (
        '{"kernel_basis": [[1, 0, -1]], "generators": [[1, 0, -1]], "violations": []}\n'
    )
    assert main(["--n", "3", "--localized", "--json", "center"]) == 0
    assert capsys.readouterr().out == (
        '{"kernel_basis": [[1, 0, 0, -1, 0, 1], [0, 1, -1, -1, 1, 0]], '
        '"generators": [[1, 0, 0, -1, 0, 1]], "violations": [[0, 1, -1, -1, 1, 0]]}\n'
    )


def test_failing_check_json_bytes(capsys, monkeypatch):
    witness = ("Delta(a[1,1]) is multiplicative", "a[1,1]", "0")
    monkeypatch.setitem(structure.SUITES, "bialgebra",
                        lambda n, seed: structure.CheckReport("bialgebra", n, False, witness))
    assert main(["--json", "check", "bialgebra"]) == 1
    assert capsys.readouterr().out == (
        '[{"name": "bialgebra", "n": 2, "passed": false, '
        '"witness": ["Delta(a[1,1]) is multiplicative", "a[1,1]", "0"]}]\n'
    )


@pytest.mark.parametrize("argv", [["--n", "12", "b", "1", "12"], ["--n", "3", "--json", "delta", "a[1,3]"],
                                  ["--n", "3", "normalize", "a[1,3]"]])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    # the pipe's read end is closed before the command starts, so its first
    # write to stdout fails
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(qtriangular.__file__).resolve().parent.parent)}
    try:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "qtriangular", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


#: an argv per value command, and the library functions it calls through
#: ``cli``'s globals
VALUE_COMMANDS = (
    (["normalize", "a[1,2]"], ["parse"]),
    (["delta", "a[1,2]"], ["parse", "coproduct"]),
    (["counit", "a[1,1]*a[2,2]"], ["parse", "counit"]),
    (["--localized", "antipode", "a[1,2]"], ["parse", "antipode"]),
    (["--localized", "star", "a[1,2]"], ["parse", "star"]),
    (["--n", "3", "b", "1", "3"], ["b_element"]),
)


@pytest.mark.parametrize("argv, names", VALUE_COMMANDS)
def test_value_commands_call_the_library_by_its_global_name(argv, names, monkeypatch, capsys):
    # perfbench's hooks rebind these globals, and a command holding its own
    # reference to a function would escape them
    calls = []
    for name in ("parse", "coproduct", "counit", "antipode", "star", "b_element"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    assert main(argv) == 0
    assert sorted(calls) == sorted(names)


def test_plain_output_builds_no_json_payload(monkeypatch, capsys):
    calls = []
    for cls in (Element, TensorElement, ScalarQ):
        monkeypatch.setattr(cls, "to_json", lambda self, to_json=cls.to_json: calls.append(self) or to_json(self))
    S = "[2*q,1/2,i,1,2,-1]"
    others = [["equal", "a[1,2]", "q*a[1,2]"], ["autos", "compose", S, S], ["autos", "invert", S],
              ["autos", "decompose", S], ["autos", "is-hopf", S], ["--localized", "center"]]
    for argv in [argv for argv, _ in VALUE_COMMANDS] + others:
        main(argv)
        assert calls == [], argv
    for argv, _ in VALUE_COMMANDS:
        assert main(["--json", *argv]) == 0
        assert calls, argv
        calls.clear()

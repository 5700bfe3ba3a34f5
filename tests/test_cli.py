import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qtriangular

from helpers import random_sextuple, random_unit

from qtriangular.cli import ParseError, format_element, main, parse, parse_scalar, parse_sextuple
from qtriangular.coeff import GaussianRational, ScalarQ, qpow
from qtriangular.qalgebra import random_element
from qtriangular.triangular import antipode, b_element, build


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
    try:
        parse("q a[1,1]", T2)
    except ParseError as err:
        assert err.pos == 2


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


def test_cli_reports_parse_errors(capsys):
    assert main(["normalize", "a[9,9]"]) == 2
    err = capsys.readouterr().err
    assert "out of range" in err


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

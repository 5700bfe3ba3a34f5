"""Command-line surface: an expression parser, canonical pretty-printing,
and subcommands wiring the library into reproducible runs.

Grammar (whitespace insensitive, explicit '*' only):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)? | '-' factor
    atom   := rational | 'i' | 'q' | gen | 't' | 'det' | 'z' | '(' expr ')'
    gen    := 'a' '[' digits ',' digits ']'
    int    := '-'? digits

A whole ``gen``, whitespace inside its brackets included, is one token; an
'a' that does not start one is read part by part, so the error names the
first wrong part and its position.  A subexpression built from rationals,
'i' and 'q' alone is computed as a ``ScalarQ`` (Laurent arithmetic); it
becomes an ``Element`` where it meets one, or at the end of ``parse``.  A
product of scalars, generator powers and other one-term factors is folded
into one coefficient and one monomial; only a factor of several terms
makes an ``Element`` product.  A generator power ``a[i,j]^k`` or a ``q^k``
builds no ``Element`` at all: it adds k to the monomial or shifts the
coefficient.

A sextuple ``autos`` argument is read by the same grammar, its first three
entries as expressions without generators:

    sextuple := '[' expr ',' expr ',' expr ',' int ',' int ',' int ']'

``t`` and ``z`` (= a[1,1]*a[2,2]^-1) need the localized algebra; ``det`` is
always available.  Formatting is canonical, so parse(format(e)) == e.

The flags and commands are written once, as the data ``_FLAGS`` and
``_COMMANDS``; the argparse tree is built from them.  ``main`` reads an
argv of the plain shape (global flags, each a whole token, then a command
with exactly its positionals) with ``_read_argv``, which builds argparse's
``Namespace`` from the same tables without building the tree; every other
argv, and so every usage, help and error text, goes to argparse.
``--json`` prints the bytes of ``json.dumps(payload, indent=2)``, written
without json's pure-Python encoder.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .coeff import I, ONE, ZERO, ScalarQ
from .qalgebra import Element, TensorElement, center_lattice
from .triangular import (
    TriangularAlgebra,
    antipode,
    b_element,
    build,
    coproduct,
    counit,
    qdet,
    star,
    tgen,
)
from . import structure
from .autos import Sextuple, g_compose, g_decompose, g_inverse, is_hopf_auto, rho_conjugate
from .deriv import classify_T2, utq2_derivation_table


#: deepest parenthesis nesting; each level is four stack frames of the parser
MAX_DEPTH = 100
#: largest --n; M is N x N with N = n(n+1)/2, and --n 50 normalizes in under 1 s
MAX_N = 50
#: largest j - i - 1, so b[i,j] has at most 2^MAX_CHAIN terms.  ``star`` at
#: --n MAX_CHAIN + 2 answers in under 1 s (0.41 s at --n 12, 0.46-0.67 s at
#: --n 13 on a 2-core Xeon, Python 3.11), which would allow 11; it stays 10
#: because the same gate covers ``check``, whose star suite takes 1.1 s at
#: n = 10, 2.4 s at n = 11 and 6.3 s at n = 12, the widest the cap allows
MAX_CHAIN = 10
#: largest --n for ``center``, whose Hermite normal form costs O(N^3) with
#: N = n(n+1)/2; as a subprocess (2-core Xeon, Python 3.11) --n 24 center
#: answered in 0.73-0.92 s plain, localized or --json, and --n 25 in up to 1.09 s
MAX_CENTER = 24
#: largest ``derivations classify --bound``, whose sweep has 3 (bound + 1)^3
#: rows; as a subprocess (2-core Xeon, Python 3.11) --bound 14 answered in
#: 0.67-1.00 s plain or --json, 15 in up to 1.15 s and 16 in up to 1.46 s
MAX_BOUND = 14


class ParseError(ValueError):
    """Syntax or semantic error in an input expression, with its position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<gen>a\s*\[\s*(\d+)\s*,\s*(\d+)\s*\])|(?P<int>\d+)|(?P<name>det|[aiqtz])"
    r"|(?P<op>[-+*^/()\[\],])|(?P<bad>\S))"
)


def _tokenize(text: str):
    """(kind, text, position, indices) tuples, ending with an "end" token.
    A generator ``a[i,j]`` is one "gen" token whose text is "a" and whose
    indices are the two digit strings; every other token has indices None.
    An unknown character is reported at the start of the whitespace before
    it."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "gen":
            tokens.append((kind, "a", m.start(kind), m.group(2, 3)))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start())
        else:
            tokens.append((kind, m.group(kind), m.start(kind), None))
    tokens.append(("end", "", len(text), None))
    return tokens


_I = ScalarQ.constant(I)

#: the named atoms; ``t`` and ``z`` need the localized algebra
_NAMED = {
    "i": lambda alg: _I,
    "det": qdet,
    "t": tgen,
    "z": lambda alg: alg.a(1, 1) * alg.a(2, 2).inverse(),
}
_LOCALIZED = ("t", "z")


class _Parser:
    """Each production returns its value in the smallest structure that
    holds it: a ``ScalarQ`` for text without generators and without
    ``det``, ``t`` or ``z``, else an ``Element``.  Scalars meet elements
    through ``Element``'s own mixed arithmetic, which coerces or scales."""

    def __init__(self, text: str, alg: TriangularAlgebra):
        self.alg = alg
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind and tok[0] != kind or value is not None and tok[1] != value:
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def accept(self, op: str):
        """Take the next token if it is the operator ``op``: the token, or None."""
        tok = self.tokens[self.i]
        if tok[1] == op and tok[0] == "op":
            self.i += 1
            return tok
        return None

    def read(self, production):
        """One ``production`` (an unbound method) and then the end of the text."""
        value = production(self)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self) -> Element | ScalarQ:
        e = self.term()
        while op := self.accept("+") or self.accept("-"):
            rhs = self.term()
            e = e + rhs if op[1] == "+" else e - rhs
        return e

    def term(self) -> Element | ScalarQ:
        """A product, held as e * c * x^mono: e an ``Element`` or None (1),
        c a ``ScalarQ`` and mono an exponent tuple or None (no generator
        yet).  A generator power a[i,j]^k is the exponent k at the
        generator's index and q^k shifts c, so neither builds an
        ``Element``; a factor's leading signs negate c.  Another scalar
        factor multiplies c, and a one-term factor s * x^m folds into c
        and mono through ``monomial_mul``, as a generator power does; only
        a factor of more terms makes an ``Element`` product, after the
        pending c * x^mono joins e."""
        alg = self.alg
        e, c, mono = None, ONE, None
        while True:
            negate = False
            while self.accept("-"):
                negate = not negate
            # the factor as s * x^m, m None for the unit monomial
            m, s = None, ONE
            kind, value, pos, indices = self.tokens[self.i]
            if kind == "gen":
                self.i += 1
                i, j = map(int, indices)
                if not (1 <= i <= j <= alg.n):
                    raise ParseError(f"generator a[{i},{j}] out of range for n={alg.n}", pos)
                g = alg.gen_index(i, j)
                m = [0] * alg.ngens
                m[g] = self.exponent(alg.invertible[g])
                m = tuple(m)
            elif kind == "name" and value == "q":
                self.i += 1
                c = c.q_shift(self.exponent(True))
            else:
                f = self.factor()
                if isinstance(f, ScalarQ):
                    s = f
                elif len(f.terms) == 1:
                    ((m, s),) = f.terms.items()
                else:
                    e = self.folded(e, c, mono)
                    e = f if e is ONE else e * f
                    c, mono = ONE, None
            if m is not None:
                if mono is None:
                    mono = m
                else:
                    w, mono = alg.monomial_mul(mono, m)
                    c = c.q_shift(w)
            if s is not ONE:
                c = s if c is ONE else c * s
            if negate:
                c = -c
            if not self.accept("*"):
                return self.folded(e, c, mono)

    def folded(self, e, c: ScalarQ, mono):
        """e * c * x^mono, where e None stands for 1 and mono None for the
        unit monomial: c itself when both are None."""
        if mono is not None:
            c = self.alg._term(mono, c)
        return c if e is None else e if c is ONE else e * c

    def factor(self) -> Element | ScalarQ:
        e = self.atom()
        k = self.exponent(e.is_unit)
        return e if k == 1 else self.power(e, k)

    def exponent(self, unit: bool) -> int:
        """k of an optional '^' k after a base, else 1.  A negative k needs
        the base to be a unit, and is reported at the caret otherwise."""
        caret = self.accept("^")
        if not caret:
            return 1
        k = self.signed_int()
        if k < 0 and not unit:
            raise ParseError("element is not a unit", caret[2])
        return k

    def power(self, e: Element | ScalarQ, k: int) -> Element | ScalarQ:
        """e^k; a one-term element s * x^m gives s^k * q^(w*k*(k-1)/2) * x^(k*m)
        with x^m * x^m = q^w * x^(2m), which needs no ``Element`` product.
        A negative k needs e to be a unit."""
        if isinstance(e, ScalarQ) or len(e.terms) != 1:
            return e**k
        ((m, s),) = e.terms.items()
        w, _ = self.alg.monomial_mul(m, m)
        s = s if s is ONE else s**k
        return self.alg._term(tuple(k * x for x in m), s.q_shift(w * k * (k - 1) // 2))

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * int(self.take("int")[1])

    def atom(self) -> Element | ScalarQ:
        kind, value, pos, _ = self.take()
        if kind == "int":
            if self.accept("/"):
                dtok = self.take("int")
                if int(dtok[1]) == 0:
                    raise ParseError("zero denominator", dtok[2])
                return ScalarQ.constant(Fraction(int(value), int(dtok[1])))
            return ScalarQ.constant(int(value))
        if value in _NAMED:
            if value in _LOCALIZED and not self.alg.localized:
                raise ParseError(f"{value} needs the localized algebra", pos)
            return _NAMED[value](self.alg)
        if value == "a":
            # a malformed generator (a whole one is a "gen" token): take its
            # parts one by one, reading digits as ``gen`` does, so that the
            # first wrong part is reported where it stands
            self.take("op", "[")
            int(self.take("int")[1])
            self.take("op", ",")
            int(self.take("int")[1])
            self.take("op", "]")
        if value == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            e = self.expr()
            self.take("op", ")")
            self.depth -= 1
            return e
        raise ParseError(f"unexpected token {value!r}", pos)

    def scalar(self) -> ScalarQ:
        """An expression without generators, as a scalar."""
        pos = self.peek()[2]
        e = self.expr()
        if isinstance(e, ScalarQ):
            return e
        unit = e.algebra.unit_mono()
        if any(mono != unit for mono in e.terms):
            raise ParseError("expected a scalar expression without generators", pos)
        return e.terms.get(unit, ZERO)

    def sextuple(self) -> Sextuple:
        entries = []
        for sep, entry in zip("[,,,,,", (self.scalar,) * 3 + (self.signed_int,) * 3):
            self.take("op", sep)
            entries.append(entry())
        self.take("op", "]")
        return Sextuple(*entries)


def parse(text: str, alg: TriangularAlgebra) -> Element:
    """Parse an expression into its normal form in ``alg``."""
    e = _Parser(text, alg).read(_Parser.expr)
    return alg.scalar(e) if isinstance(e, ScalarQ) else e


def format_element(e: Element) -> str:
    """Canonical text form; monomials are ordered by descending exponent
    vectors in the lexicographic generator order."""
    return str(e)


def format_tensor(te: TensorElement) -> str:
    return str(te)


def parse_scalar(text: str) -> ScalarQ:
    """Parse a generator-free expression into a scalar."""
    return _Parser(text, build(2, True)).read(_Parser.scalar)


def parse_sextuple(text: str) -> Sextuple:
    """Parse ``[l12,l11,l22,j,k,l]`` with scalars in the coefficient text
    format and integers j, k, l."""
    return _Parser(text, build(2, True)).read(_Parser.sextuple)


# -- commands -----------------------------------------------------------------


def _algebra(args) -> TriangularAlgebra:
    return build(args.n, args.localized)


def _indented(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the dicts, lists, strings, ints
    and bools (by exact type) that ``_emit`` prints.  An indent sends
    ``json.dumps`` to json's pure-Python encoder; this writer lays out the
    same bytes and encodes strings with json's C encoder."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    inner = indent + "  "
    if kind is dict:
        items = [f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    else:
        items = [_indented(v, inner) for v in value]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit(args, text: str, payload):
    print(_indented(payload) if args.json else text)


def _emit_element(args, e: Element) -> int:
    text = format_element(e)
    _emit(args, text, {"expr": text, "terms": e.to_json()})
    return 0


def _cmd_map(args) -> int:
    """normalize, antipode and star: the parsed expression under ``args.map``."""
    return _emit_element(args, args.map(parse(args.expr, _algebra(args))))


def _cmd_equal(args) -> int:
    alg = _algebra(args)
    same = parse(args.lhs, alg) == parse(args.rhs, alg)
    _emit(args, "equal" if same else "not equal", {"equal": same})
    return 0 if same else 1


def _cmd_delta(args) -> int:
    te = coproduct(parse(args.expr, _algebra(args)))
    text = format_tensor(te)
    _emit(args, text, {"tensor": text, "terms": te.to_json()})
    return 0


def _cmd_counit(args) -> int:
    s = counit(parse(args.expr, _algebra(args)))
    text = str(s)
    _emit(args, text, {"scalar": text, "terms": s.to_json()})
    return 0


def _cmd_b(args) -> int:
    return _emit_element(args, b_element(args.i, args.j, _algebra(args)))


def _cmd_center(args) -> int:
    lat = center_lattice(_algebra(args))
    if args.json:
        print(json.dumps(lat._asdict()))
        return 0
    if not lat.generators:
        print("Z = K (no central monomials beyond scalars)")
    for v in lat.generators:
        print(f"central monomial direction: {tuple(v)}")
    for v in lat.violations:
        print(f"kernel direction outside the admissible cone: {tuple(v)}")
    return 0


def _cmd_check(args) -> int:
    names = args.suites or ["all"]
    if names == ["all"]:
        names = list(structure.SUITES) + ["negative-controls"]
    unknown = [name for name in names if name != "negative-controls" and name not in structure.SUITES]
    if unknown:
        print(f"unknown suite {unknown[0]!r}; available: {', '.join(structure.SUITES)}, negative-controls",
              file=sys.stderr)
        return 2
    reports = [
        structure.negative_controls_report(args.n) if name == "negative-controls"
        else structure.SUITES[name](args.n, seed=args.seed)
        for name in names
    ]
    if args.json:
        print(json.dumps([r._asdict() for r in reports]))
    else:
        for rep in reports:
            print(rep.line())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_derivations(args) -> int:
    if args.action == "classify":
        rows = classify_T2(args.bound)
        if args.json:
            print(json.dumps([
                {"s": st[0], "t": st[1], "nu": list(nu), "verdict": verdict}
                for st, nu, verdict in rows
            ]))
        else:
            for st, nu, verdict in rows:
                word = "derivation" if verdict else "not a derivation"
                print(f"D[{st[0]},{st[1]}] nu={nu}: {word}")
        # classify_T2 raises on any verdict against dertypes_expected
        return 0
    rep = utq2_derivation_table()
    if args.json:
        print(json.dumps({"name": rep.name, "passed": rep.passed, "witness": rep.witness}))
    else:
        print(rep.line())
    return 0 if rep.passed else 1


def _cmd_autos(args) -> int:
    want = 2 if args.action == "compose" else 1
    if len(args.args) != want:
        print(f"autos {args.action} needs {want} sextuple(s)", file=sys.stderr)
        return 2
    if args.action == "decompose":
        factors = [str(g) for g in g_decompose(parse_sextuple(args.args[0]))]
        _emit(args, " * ".join(factors), {"factors": factors})
        return 0
    if args.action == "is-hopf":
        verdict = is_hopf_auto(parse_sextuple(args.args[0]))
        _emit(args, "hopf" if verdict else "not hopf", {"hopf": verdict})
        return 0 if verdict else 1
    op = {"compose": g_compose, "invert": g_inverse, "conjugate": rho_conjugate}[args.action]
    out = op(*map(parse_sextuple, args.args))
    _emit(args, str(out), {"sextuple": str(out)})
    return 0


#: the global flags: option string and argparse keywords
_FLAGS = (
    ("--n", dict(type=int, default=2, help="matrix size (default 2)")),
    ("--localized", dict(action="store_true", default=False, help="invert the diagonal generators")),
    ("--json", dict(action="store_true", default=False, help="emit JSON instead of plain text")),
    ("--seed", dict(type=int, default=0, help="ignored: no suite samples; kept for compatibility")),
)

#: the commands: name, help, arguments in order (each a name and its argparse
#: keywords) and ``set_defaults``.  ``_read_argv`` relies on their shapes: only
#: a command's last positional takes ``nargs``, every option has a default,
#: and every flag stores its value or ``True``
_COMMANDS = (
    ("normalize", "normal form of an expression", [("expr", {})], dict(fn=_cmd_map, map=lambda e: e)),
    ("equal", "exact equality of two expressions", [("lhs", {}), ("rhs", {})], dict(fn=_cmd_equal)),
    ("delta", "comultiplication of an expression", [("expr", {})], dict(fn=_cmd_delta)),
    ("counit", "counit of an expression", [("expr", {})], dict(fn=_cmd_counit)),
    ("antipode", "antipode (localized algebra only)", [("expr", {})], dict(fn=_cmd_map, map=antipode)),
    ("star", "Hopf *-involution (localized algebra only)", [("expr", {})], dict(fn=_cmd_map, map=star)),
    ("b", "the cofactor-like element b[i,j]", [("i", dict(type=int)), ("j", dict(type=int))], dict(fn=_cmd_b)),
    ("center", "central monomial directions", [], dict(fn=_cmd_center)),
    ("check", "run verification suites", [("suites", dict(nargs="*", help="suite names, or 'all'"))],
     dict(fn=_cmd_check)),
    ("derivations", "derivation classification and table", [
        ("action", dict(choices=["classify", "check-table"])),
        ("--bound", dict(type=int, default=3, help="max exponent for classify")),
    ], dict(fn=_cmd_derivations)),
    ("autos", "sextuple automorphism group operations", [
        ("action", dict(choices=["compose", "invert", "conjugate", "decompose", "is-hopf"])),
        ("args", dict(nargs="+", help="sextuples as [l12,l11,l22,j,k,l]")),
    ], dict(fn=_cmd_autos)),
)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``_FLAGS`` and ``_COMMANDS``, built on the
    first call and reused after it.

    Building it costs many times what parsing one command line does, and
    the tree never changes; it is built lazily, so that importing the module
    and reading a plain argv cost nothing extra.  Reuse leaks no state
    between calls: ``parse_args`` and every subparser fill a fresh
    ``Namespace``, no action has a mutable shared default (``nargs`` lists
    are made per call), and the ``fn`` and ``map`` defaults are stateless
    functions.
    """
    top = argparse.ArgumentParser(
        prog="qtriangular",
        description="Exact computations in the quantum upper-triangular bialgebra "
        "and its Hopf localization.",
    )
    for flag, kw in _FLAGS:
        top.add_argument(flag, **kw)
    sub = top.add_subparsers(dest="command", required=True)
    for name, text, arguments, defaults in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for arg, kw in arguments:
            p.add_argument(arg, **kw)
        p.set_defaults(**defaults)
    return top


def _command_shape(arguments, defaults):
    """A command's positionals as (dest, keywords) pairs, the least and most
    tokens they take, and the values its namespace starts from."""
    positionals = [(arg, kw) for arg, kw in arguments if not arg.startswith("-")]
    nargs = positionals[-1][1].get("nargs") if positionals else None
    least = len(positionals) - (nargs == "*")
    most = len(positionals) if nargs is None else sys.maxsize
    own = {arg.lstrip("-"): kw["default"] for arg, kw in arguments if arg.startswith("-")}
    return positionals, least, most, {**own, **defaults}


#: what ``_read_argv`` looks up: the global flags by option string with their
#: destinations, their defaults, and each command's shape
_FLAG_DESTS = {flag: (flag.lstrip("-"), kw) for flag, kw in _FLAGS}
_FLAG_DEFAULTS = {flag.lstrip("-"): kw["default"] for flag, kw in _FLAGS}
_SHAPES = {name: _command_shape(arguments, defaults) for name, _, arguments, defaults in _COMMANDS}


def _value(kw, token: str):
    """``token`` as argparse would store it for an argument with keywords
    ``kw``, or None where argparse might read it otherwise: as an option (a
    leading '-', except the "- " of a printed normal form, which argparse
    always reads as a positional), or as a type or choice error."""
    if token.startswith("-") and not token.startswith("- "):
        return None
    try:
        value = kw.get("type", str)(token)
    except ValueError:
        return None
    return value if value in kw.get("choices", (value,)) else None


def _read_argv(argv):
    """The ``Namespace`` that ``_build_parser().parse_args(argv)`` builds,
    for an argv of the plain shape: global flags, each a whole token, then
    a command with exactly as many positionals as it takes.  None for any
    other argv, which then goes to argparse, so that every usage, help and
    error text stays argparse's."""
    values = dict(_FLAG_DEFAULTS)
    k = 0
    while k < len(argv) and argv[k] in _FLAG_DESTS:
        dest, kw = _FLAG_DESTS[argv[k]]
        if kw.get("action") == "store_true":
            values[dest], k = True, k + 1
            continue
        value = _value(kw, argv[k + 1]) if k + 1 < len(argv) else None
        if value is None:
            return None
        values[dest], k = value, k + 2
    if k == len(argv) or argv[k] not in _SHAPES:
        return None
    positionals, least, most, own = _SHAPES[argv[k]]
    tokens = argv[k + 1:]
    if not least <= len(tokens) <= most:
        return None
    values.update(own, command=argv[k])
    for at, (dest, kw) in enumerate(positionals):
        items = [_value(kw, t) for t in (tokens[at:] if "nargs" in kw else tokens[at:at + 1])]
        if None in items:
            return None
        values[dest] = items if "nargs" in kw else items[0]
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        if args.n > MAX_N:
            raise ValueError(f"--n {args.n} is above the largest supported size {MAX_N}")
        if args.command == "center" and args.n > MAX_CENTER:
            raise ValueError(f"center at --n {args.n} is above the largest supported size {MAX_CENTER}")
        if args.command == "derivations" and args.action == "classify" and args.bound > MAX_BOUND:
            raise ValueError(f"classify --bound {args.bound} is above the largest supported bound {MAX_BOUND}")
        # b builds its b[i,j]; antipode, star and check build antipode_spec, which needs b[1,n]
        i, j = (args.i, args.j) if args.command == "b" else (1, args.n)
        if args.command in ("b", "antipode", "star", "check") and 1 <= i < j <= args.n and j - i - 1 > MAX_CHAIN:
            raise ValueError(f"{args.command} needs b[{i},{j}], whose 2^{j - i - 1} terms are above "
                             f"the largest supported 2^{MAX_CHAIN}")
        return args.fn(args)
    except (ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

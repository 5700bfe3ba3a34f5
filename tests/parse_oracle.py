"""The reference reader of CLI text: a tokenizer with one token per
character class (``a[1,2]`` is six tokens) and a parser that builds an
``Element`` for every atom, scalars included.  ``qtriangular.cli`` reads
the same grammar with scalars kept as ``ScalarQ`` and a generator as one
token; tests require both readers to give equal values and identical
``ParseError`` texts.
"""

import re
from fractions import Fraction

from qtriangular.autos import Sextuple
from qtriangular.cli import MAX_DEPTH, ParseError
from qtriangular.coeff import I, Q, ZERO
from qtriangular.triangular import build, qdet, tgen

_TOKEN = re.compile(r"\s*(?:(\d+)|(det|[aiqtz])|([-+*^/()\[\],])|(\S))")
_KINDS = ("int", "name", "op")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        g = m.lastindex
        if g == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
        tokens.append((_KINDS[g - 1], m.group(g), m.start(g)))
    tokens.append(("end", "", len(text)))
    return tokens


_NAMED = {
    "i": lambda alg: alg.scalar(I),
    "q": lambda alg: alg.scalar(Q),
    "det": qdet,
    "t": tgen,
    "z": lambda alg: alg.a(1, 1) * alg.a(2, 2).inverse(),
}
_LOCALIZED = ("t", "z")


class _Parser:
    def __init__(self, text, alg):
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

    def accept(self, op):
        tok = self.tokens[self.i]
        if tok[1] == op and tok[0] == "op":
            self.i += 1
            return tok
        return None

    def read(self, production):
        value = production(self)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self):
        e = self.term()
        while op := self.accept("+") or self.accept("-"):
            rhs = self.term()
            e = e + rhs if op[1] == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while self.accept("*"):
            e = e * self.factor()
        return e

    def factor(self):
        negate = False
        while self.accept("-"):
            negate = not negate
        e = self.atom()
        caret = self.accept("^")
        if caret:
            k = self.signed_int()
            try:
                e = e**k
            except ValueError as err:
                raise ParseError(str(err), caret[2]) from None
        return -e if negate else e

    def signed_int(self):
        sign = -1 if self.accept("-") else 1
        return sign * int(self.take("int")[1])

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            if self.accept("/"):
                dtok = self.take("int")
                if int(dtok[1]) == 0:
                    raise ParseError("zero denominator", dtok[2])
                return self.alg.scalar(Fraction(int(value), int(dtok[1])))
            return self.alg.scalar(int(value))
        if value in _NAMED:
            if value in _LOCALIZED and not self.alg.localized:
                raise ParseError(f"{value} needs the localized algebra", pos)
            return _NAMED[value](self.alg)
        if value == "a":
            self.take("op", "[")
            i = int(self.take("int")[1])
            self.take("op", ",")
            j = int(self.take("int")[1])
            self.take("op", "]")
            if not (1 <= i <= j <= self.alg.n):
                raise ParseError(f"generator a[{i},{j}] out of range for n={self.alg.n}", pos)
            return self.alg.a(i, j)
        if value == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            e = self.expr()
            self.take("op", ")")
            self.depth -= 1
            return e
        raise ParseError(f"unexpected token {value!r}", pos)

    def scalar(self):
        pos = self.peek()[2]
        e = self.expr()
        unit = e.algebra.unit_mono()
        if any(mono != unit for mono in e.terms):
            raise ParseError("expected a scalar expression without generators", pos)
        return e.terms.get(unit, ZERO)

    def sextuple(self):
        entries = []
        for sep, entry in zip("[,,,,,", (self.scalar,) * 3 + (self.signed_int,) * 3):
            self.take("op", sep)
            entries.append(entry())
        self.take("op", "]")
        return Sextuple(*entries)


def parse(text, alg):
    return _Parser(text, alg).read(_Parser.expr)


def parse_scalar(text):
    return _Parser(text, build(2, True)).read(_Parser.scalar)


def parse_sextuple(text):
    return _Parser(text, build(2, True)).read(_Parser.sextuple)

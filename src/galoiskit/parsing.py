"""Expression parsing for polynomials over Q and radicand formulas.

Grammar (shared):
    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER | NAME | '(' expr ')'

Polynomials use the single variable ``x``; radicands use the names bound in
the caller's environment (previously adjoined radicals ``r1``, ``r2``, ...).
Division is exact and only by nonzero constants.  An integer literal
(number or exponent) above MAX_INPUT_BITS bits is refused before it is
converted, and a power or product is refused before it is computed when
its degree would exceed MAX_INPUT_DEGREE or a numeric power would exceed
MAX_INPUT_BITS.  Errors carry a 1-based column.
"""

import math
import re
from fractions import Fraction

from .errors import ParseError
from .poly import Polynomial
from .scalars import QQ

# far above any input the engine can split under its degree cap, and low
# enough that building the parsed value stays cheap
MAX_INPUT_DEGREE = 256
MAX_INPUT_BITS = 4096
# a literal with more digits than 2**MAX_INPUT_BITS has is refused unread
_MAX_LITERAL_DIGITS = len(str(2 ** MAX_INPUT_BITS))

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos  # 0-based offset into the source


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            stripped = text[i:].lstrip()
            col = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[col]!r}", col + 1)
        if m.group(1) is not None:
            out.append(_Token("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            out.append(_Token("name", m.group(2), m.start(2)))
        else:
            out.append(_Token("op", m.group(3), m.start(3)))
        i = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    """Applies +, - and negation itself; the algebra supplies number, name,
    mul, pow and div, where evaluation into Q[x] and into a field differ."""

    def __init__(self, text, algebra):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.alg = algebra

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.pos + 1)

    def parse(self):
        v = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected {tok.text!r}; expected an operator or end of input")
        return v

    def expr(self):
        v = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            w = self.unary()
            v = (self.alg.mul if op.text == "*" else self.alg.div)(v, w, op.pos + 1)
        return v

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            v = self.unary()
            return v if tok.text == "+" else -v
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            etok = self.peek()
            if etok.kind != "int":
                self.error("exponent must be a nonnegative integer literal", etok)
            self.take()
            v = self.alg.pow(v, _literal_value(etok), etok.pos + 1)
        return v

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return self.alg.number(_literal_value(tok))
        if tok.kind == "name":
            return self.alg.name(tok.text, tok.pos + 1)
        if tok.kind == "op" and tok.text == "(":
            v = self.expr()
            close = self.take()
            if close.kind != "op" or close.text != ")":
                self.error("expected ')'", close)
            return v
        if tok.kind == "end":
            self.error("unexpected end of input; expected a number, name or '('", tok)
        self.error(f"unexpected {tok.text!r}; expected a number, name or '('", tok)


class _PolyAlgebra:
    """Evaluate into Q[x] with exact arithmetic."""

    def __init__(self, var="x"):
        self.var = var

    def number(self, n):
        return Polynomial.constant(QQ, Fraction(n))

    def name(self, text, col):
        if text == self.var:
            return Polynomial.x(QQ)
        raise ParseError(f"unknown symbol {text}", col)

    def mul(self, a, b, col):
        _check_limit("product of degree", a.degree + b.degree, MAX_INPUT_DEGREE, col)
        return a * b

    def pow(self, a, k, col):
        if a.degree > 0:
            _check_limit("power of degree", a.degree * k, MAX_INPUT_DEGREE, col)
        else:
            _check_numeric_power(a.coeff(0), k, col)
        return a ** k

    def div(self, a, b, col):
        if b.degree > 0:
            raise ParseError("division only by nonzero constants", col)
        if b.is_zero:
            raise ParseError("division by zero", col)
        return a * (1 / b.coeff(0))


class _ElementAlgebra:
    """Evaluate into a field, with names bound by an environment."""

    def __init__(self, field, env):
        self.field = field
        self.env = env

    def number(self, n):
        return self.field.coerce(n)

    def name(self, text, col):
        if text in self.env:
            return self.field.coerce(self.env[text])
        known = ", ".join(sorted(self.env)) or "none"
        raise ParseError(f"unknown symbol {text} (known names: {known})", col)

    def mul(self, a, b, col):
        return a * b

    def pow(self, a, k, col):
        coeffs = getattr(a, "coeffs", (a,))
        if any(coeffs[1:]):
            # a power of degree k in the adjoined radicals
            _check_limit("power of degree", k, MAX_INPUT_DEGREE, col)
        else:
            _check_numeric_power(coeffs[0], k, col)
        return a ** k

    def div(self, a, b, col):
        if not b:
            raise ParseError("division by zero", col)
        return a / b


def _literal_value(tok):
    """The value of an integer literal token, refused above MAX_INPUT_BITS bits."""
    digits = tok.text.lstrip("0") or "0"
    value = int(digits) if len(digits) <= _MAX_LITERAL_DIGITS else None
    if value is None or value.bit_length() > MAX_INPUT_BITS:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds the input limit of "
            f"{MAX_INPUT_BITS} bits", tok.pos + 1)
    return value


def _check_limit(what, size, limit, col):
    if size > limit:
        raise ParseError(f"{what} {size} exceeds the input limit {limit}", col)


def _check_numeric_power(c, k, col):
    """Refuse c**k when its numerator or denominator would need more than
    MAX_INPUT_BITS bits."""
    c = Fraction(c)
    bits = math.ceil(k * math.log2(max(abs(c.numerator), c.denominator)))
    _check_limit("power of bit size", bits, MAX_INPUT_BITS, col)


def parse_poly(text: str) -> Polynomial:
    """Parse a rational polynomial in x; raises ParseError with a column."""
    return _Parser(text, _PolyAlgebra()).parse()


def evaluate_in_field(text: str, field, env: dict):
    """Evaluate a radicand expression to a field element."""
    return _Parser(text, _ElementAlgebra(field, env)).parse()

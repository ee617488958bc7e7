"""Textual polynomial grammar: exact round-trip parsing and printing.

    expr     := ('-')? term (('+'|'-') term)*
    term     := coeff ('*' factor)* | factor ('*' factor)*
    factor   := (var | '(' expr ')' | 'Re' '(' expr ')') ('^' nat)?
    var      := z<k> | w | conj(z<k>) | conj(w)
    coeff    := rational | rational 'i' | '(' rational ('+'|'-') rational 'i' ')'
    rational := int ('/' posint)?

Re(E) is sugar for (E + conj(E))*(1/2).  Parentheses, Re(...) included,
nest at most MAX_NESTING deep, as the parser recurses once per level.  The
printer emits terms in graded-lexicographic order of exponent vectors, which
makes output deterministic and re-parseable to the identical polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .gaussian import GaussianRational, gr
from .poly import Poly, PolyRing


MAX_NESTING = 100


class PolyParseError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokenizer

_PUNCT = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "int", "name", "punct", "end"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, ring: PolyRing, tokens: List[_Token]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise PolyParseError(message, tok.line, tok.col)

    def expect_punct(self, ch: str) -> None:
        t = self.next()
        if t.kind != "punct" or t.text != ch:
            self.error(f"expected {ch!r}, found {t.text!r}", t)

    def parse(self) -> Poly:
        p = self.parse_expr()
        t = self.peek()
        if t.kind != "end":
            self.error(f"unexpected trailing input {t.text!r}", t)
        return p

    def parse_expr(self) -> Poly:
        sign = 1
        t = self.peek()
        if t.kind == "punct" and t.text == "-":
            self.next()
            sign = -1
        total = self.parse_term().scale(sign)
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text in "+-":
                self.next()
                term = self.parse_term()
                total = total + (term if t.text == "+" else -term)
            else:
                return total

    def parse_term(self) -> Poly:
        coeff = self.try_parse_coeff()
        factors: List[Poly] = []
        if coeff is None:
            factors.append(self.parse_factor())
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "*":
                self.next()
                factors.append(self.parse_factor())
            else:
                break
        out = self.ring.const(coeff if coeff is not None else 1)
        for f in factors:
            out = out * f
        return out

    def try_parse_coeff(self) -> Optional[GaussianRational]:
        """Parse a coefficient literal, or rewind and return None."""
        save = self.pos
        t = self.peek()
        if t.kind == "int":
            q = self.parse_rational()
            if self.peek().kind == "name" and self.peek().text == "i":
                self.next()
                return gr(0, q)
            return gr(q)
        if t.kind == "punct" and t.text == "(":
            # Either "(a+bi)" or a parenthesized expression; try the former.
            try:
                self.next()
                a = self.parse_rational(signed=True)
                s = self.next()
                if s.kind != "punct" or s.text not in "+-":
                    raise PolyParseError("not a complex literal", s.line, s.col)
                b = self.parse_rational()
                if b < 0:
                    raise PolyParseError("not a complex literal", s.line, s.col)
                iu = self.next()
                if iu.kind != "name" or iu.text != "i":
                    raise PolyParseError("not a complex literal", iu.line, iu.col)
                self.expect_punct(")")
                return gr(a, -b if s.text == "-" else b)
            except PolyParseError:
                self.pos = save
                return None
        return None

    def parse_rational(self, signed: bool = False) -> Fraction:
        sign = 1
        t = self.peek()
        if signed and t.kind == "punct" and t.text == "-":
            self.next()
            sign = -1
        t = self.next()
        if t.kind != "int":
            self.error(f"expected a number, found {t.text!r}", t)
        num = int(t.text)
        if self.peek().kind == "punct" and self.peek().text == "/":
            self.next()
            d = self.next()
            if d.kind != "int" or int(d.text) == 0:
                self.error("expected a positive denominator", d)
            return Fraction(sign * num, int(d.text))
        return Fraction(sign * num)

    def parse_nested(self, opener: _Token) -> Poly:
        """The expression after an opening parenthesis, up to its ')'."""
        if self.depth == MAX_NESTING:
            self.error(f"parentheses nested deeper than {MAX_NESTING}", opener)
        self.depth += 1
        inner = self.parse_expr()
        self.expect_punct(")")
        self.depth -= 1
        return inner

    def parse_factor(self) -> Poly:
        t = self.next()
        base: Poly
        if t.kind == "name" and t.text == "Re":
            self.expect_punct("(")
            base = self.parse_nested(t).real_part()
        elif t.kind == "name" and t.text == "conj":
            self.expect_punct("(")
            v = self.next()
            if v.kind != "name" or v.text not in self.ring.names:
                self.error(f"unknown variable {v.text!r}", v)
            self.expect_punct(")")
            base = self.ring.conj_var(v.text)
        elif t.kind == "name":
            if t.text not in self.ring.names:
                self.error(f"unknown variable {t.text!r}", t)
            base = self.ring.var(t.text)
        elif t.kind == "punct" and t.text == "(":
            base = self.parse_nested(t)
        else:
            self.error(f"expected a variable or '(', found {t.text!r}", t)
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text == "^":
            self.next()
            e = self.next()
            if e.kind != "int":
                self.error(f"expected an exponent, found {e.text!r}", e)
            return base ** int(e.text)
        return base


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse `text` in the polynomial grammar over the given ring."""
    return _Parser(ring, _tokenize(text)).parse()


# ---------------------------------------------------------------------------
# printer

def _rational_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coeff_body(c: GaussianRational) -> Tuple[int, str]:
    """(sign, printed absolute coefficient); complex literals keep sign +1."""
    if c.is_real():
        sign = -1 if c.re < 0 else 1
        return sign, _rational_str(abs(c.re))
    if not c.re:
        sign = -1 if c.im < 0 else 1
        return sign, _rational_str(abs(c.im)) + "i"
    mid = "-" if c.im < 0 else "+"
    return 1, f"({_rational_str(c.re)}{mid}{_rational_str(abs(c.im))}i)"


def poly_to_string(p: Poly) -> str:
    if not p.terms:
        return "0"
    ring = p.ring
    pieces: List[Tuple[int, str]] = []
    for key, c in p.sorted_terms():
        factors = []
        for slot, e in enumerate(key):
            if e:
                name = ring.slot_name(slot)
                factors.append(name if e == 1 else f"{name}^{e}")
        sign, body = _coeff_body(c)
        if not factors:
            pieces.append((sign, body))
        elif body == "1":
            pieces.append((sign, "*".join(factors)))
        else:
            pieces.append((sign, body + "*" + "*".join(factors)))
    out = []
    for idx, (sign, body) in enumerate(pieces):
        if idx == 0:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append((" - " if sign < 0 else " + ") + body)
    return "".join(out)

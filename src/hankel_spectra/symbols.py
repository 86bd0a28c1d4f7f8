"""Polynomial symbols in z and zbar, their algebra, and the expression mini-language.

A PolySymbol is a finite, canonicalized sum of terms c * z^n * zbar^m.  Exact
coefficients are CRat (Gaussian rationals); anything inexact degrades the
symbol to complex-float coefficients, which routes downstream computations to
the float paths.

The textual mini-language accepts tokens z1..z8 and zb1..zb8, complex rational
coefficients (e.g. 3, 1/2, i, 2/3i), +, -, *, integer powers with ^, and
parentheses, e.g. "zb1*(zb2+1)".
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .core import MonomialSymbol
from .multiindex import MultiIndex, as_multiindex, common_dim
from .rational import CRat, as_coeff, coeff_is_exact

__all__ = ["PolySymbol", "SymbolParseError", "parse_symbol"]

MAX_COORDINATE = 8


class SymbolParseError(ValueError):
    pass


def _pad(t: tuple[int, ...], dim: int) -> tuple[int, ...]:
    return t + (0,) * (dim - len(t))


class PolySymbol:
    """Canonical finite sum of terms coeff * z^holo * zbar^antiholo."""

    __slots__ = ("dim", "terms")

    def __init__(self, terms, dim: int | None = None):
        merged: dict[tuple[MultiIndex, MultiIndex], object] = {}
        inferred = dim
        for coeff, holo, antiholo in terms:
            holo = as_multiindex(holo, name="holo exponent")
            antiholo = as_multiindex(antiholo, name="antiholo exponent")
            d = common_dim(holo, antiholo)
            if inferred is None:
                inferred = d
            elif d != inferred:
                raise ValueError(f"term dimension {d} != symbol dimension {inferred}")
            key = (holo, antiholo)
            c = as_coeff(coeff)
            if key in merged:
                merged[key] = merged[key] + c
            else:
                merged[key] = c
        if inferred is None:
            raise ValueError("dimension must be given for the empty symbol")
        cleaned = [
            (c, h, a)
            for (h, a), c in merged.items()
            if (bool(c) if isinstance(c, CRat) else c != 0)
        ]
        cleaned.sort(key=lambda t: (sum(t[1]) + sum(t[2]), t[1], t[2]))
        self.dim = inferred
        self.terms = tuple(cleaned)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "PolySymbol":
        return cls((), dim=dim)

    @classmethod
    def monomial(cls, coeff, holo, antiholo) -> "PolySymbol":
        return cls([(coeff, tuple(holo), tuple(antiholo))])

    @classmethod
    def from_monomial_symbol(cls, sym: MonomialSymbol) -> "PolySymbol":
        return cls.monomial(CRat(1), sym.holo, sym.antiholo)

    def padded(self, dim: int) -> "PolySymbol":
        """Embed into a higher ambient dimension by appending zero exponents."""
        if dim < self.dim:
            raise ValueError(f"cannot shrink symbol of dim {self.dim} to {dim}")
        if dim == self.dim:
            return self
        return PolySymbol(
            [(c, _pad(h, dim), _pad(a, dim)) for c, h, a in self.terms], dim=dim
        )

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all(coeff_is_exact(c) for c, _, _ in self.terms)

    @property
    def is_holomorphic(self) -> bool:
        return all(all(m == 0 for m in a) for _, _, a in self.terms)

    @property
    def is_plain_monomial(self) -> bool:
        """True when the symbol is exactly one term z^n zbar^m with coefficient 1."""
        return len(self.terms) == 1 and self.terms[0][0] == CRat(1)

    def as_float(self) -> "PolySymbol":
        """The same symbol with complex-float coefficients.

        The Galerkin assembly takes its vectorised float path for such a
        symbol; callers that print only floats use this copy.
        """
        if all(isinstance(c, complex) for c, _, _ in self.terms):
            return self
        terms = []
        for c, h, a in self.terms:
            try:
                terms.append((complex(c), h, a))
            except OverflowError:
                raise ValueError(
                    f"coefficient of {_monomial_str(h, a) or '1'} is too large for a float"
                ) from None
        return PolySymbol(terms, dim=self.dim)

    def to_monomial_symbol(self) -> MonomialSymbol:
        if not self.is_plain_monomial:
            raise ValueError(f"{self} is not a unit-coefficient monomial")
        _, holo, antiholo = self.terms[0]
        return MonomialSymbol(holo, antiholo)

    # -- degrees --------------------------------------------------------------

    def z_degrees(self) -> tuple[int, ...]:
        """Per-coordinate maximum holomorphic degree (0 for the zero symbol)."""
        return tuple(
            max((h[k] for _, h, _ in self.terms), default=0) for k in range(self.dim)
        )

    def zbar_degrees(self) -> tuple[int, ...]:
        return tuple(
            max((a[k] for _, _, a in self.terms), default=0) for k in range(self.dim)
        )

    def coordinate_degrees(self) -> tuple[int, ...]:
        """Per-coordinate maximum of n_k + m_k over the terms."""
        return tuple(
            max((h[k] + a[k] for _, h, a in self.terms), default=0)
            for k in range(self.dim)
        )

    # -- algebra ----------------------------------------------------------------

    def conjugate(self) -> "PolySymbol":
        return PolySymbol(
            [(c.conjugate(), a, h) for c, h, a in self.terms], dim=self.dim
        )

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        if not isinstance(other, PolySymbol):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in symbol sum")
        return PolySymbol(self.terms + other.terms, dim=self.dim)

    def __sub__(self, other: "PolySymbol") -> "PolySymbol":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, PolySymbol):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch in symbol product")
            terms = [
                (c1 * c2, tuple(x + y for x, y in zip(h1, h2)), tuple(x + y for x, y in zip(a1, a2)))
                for c1, h1, a1 in self.terms
                for c2, h2, a2 in other.terms
            ]
            return PolySymbol(terms, dim=self.dim)
        scal = as_coeff(other)
        return PolySymbol([(c * scal, h, a) for c, h, a in self.terms], dim=self.dim)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolySymbol":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("symbol powers must be non-negative integers")
        out = PolySymbol([(CRat(1), (0,) * self.dim, (0,) * self.dim)], dim=self.dim)
        for _ in range(exponent):
            out = out * self
        return out

    def modulus_squared(self) -> "PolySymbol":
        """The symbol |psi|^2 = conj(psi) * psi."""
        return self.conjugate() * self

    def evaluate(self, point) -> complex:
        z = tuple(complex(p) for p in point)
        if len(z) != self.dim:
            raise ValueError("point dimension mismatch")
        total = 0j
        for c, h, a in self.terms:
            v = complex(c)
            for zk, nk, mk in zip(z, h, a):
                v *= zk**nk * zk.conjugate() ** mk
            total += v
        return total

    def substitute_coordinate(self, coord: int, q) -> "PolySymbol":
        """Freeze coordinate `coord` (1-based) at the value q; returns a dim-1 symbol."""
        if self.dim < 2:
            raise ValueError("cannot slice a one-dimensional symbol")
        if not 1 <= coord <= self.dim:
            raise ValueError(f"coord {coord} out of range 1..{self.dim}")
        k = coord - 1
        qc = q if isinstance(q, CRat) else complex(q)
        terms = []
        for c, h, a in self.terms:
            factor = qc ** h[k] * qc.conjugate() ** a[k]
            terms.append((c * factor, h[:k] + h[k + 1:], a[:k] + a[k + 1:]))
        return PolySymbol(terms, dim=self.dim - 1)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySymbol):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.terms))

    # -- formatting ---------------------------------------------------------------

    def to_expression(self) -> str:
        """Canonical mini-language expression; requires exact coefficients."""
        if not self.is_exact:
            raise ValueError("only exact symbols have a canonical expression")
        if self.is_zero:
            return "0"
        pieces = []
        for c, h, a in self.terms:
            mono = _monomial_str(h, a)
            if mono is None:
                pieces.append(_coeff_str(c))
            elif c == CRat(1):
                pieces.append(mono)
            elif c == CRat(-1):
                pieces.append("-" + mono)
            else:
                pieces.append(_coeff_str(c) + "*" + mono)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __str__(self) -> str:
        if self.is_exact:
            return self.to_expression()
        return " + ".join(
            f"({complex(c)})*{_monomial_str(h, a) or '1'}" for c, h, a in self.terms
        ) or "0"

    def __repr__(self) -> str:
        return f"PolySymbol({self!s}, dim={self.dim})"

    def to_json_obj(self) -> dict:
        def enc(c):
            if isinstance(c, CRat):
                return [_frac_str(c.re), _frac_str(c.im)]
            return [c.real, c.imag]

        return {
            "dim": self.dim,
            "exact": self.is_exact,
            "terms": [
                {"coeff": enc(c), "holo": list(h), "antiholo": list(a)}
                for c, h, a in self.terms
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PolySymbol":
        """Inverse of to_json_obj; malformed input raises SymbolParseError.

        Coefficient parts are "num/den" strings or integers (exact), or finite
        floats (which make the symbol inexact).
        """
        if not isinstance(obj, dict):
            raise SymbolParseError("JSON symbol must be an object")
        if "dim" not in obj:
            raise SymbolParseError('JSON symbol is missing "dim"')
        dim = _json_int(obj["dim"], '"dim"')
        raw_terms = obj.get("terms", [])
        if not isinstance(raw_terms, list):
            raise SymbolParseError('"terms" must be a list')
        terms = []
        for i, t in enumerate(raw_terms):
            where = f"term {i}"
            if not isinstance(t, dict):
                raise SymbolParseError(f"{where} must be an object")
            for key in ("coeff", "holo", "antiholo"):
                if key not in t:
                    raise SymbolParseError(f'{where} is missing "{key}"')
            coeff = t["coeff"]
            if not (isinstance(coeff, list) and len(coeff) == 2):
                raise SymbolParseError(f'{where}: "coeff" must be a [re, im] pair')
            re_v, im_v = (_dec_part(p, where) for p in coeff)
            if isinstance(re_v, Fraction) and isinstance(im_v, Fraction):
                c = CRat(re_v, im_v)
            else:
                c = complex(float(re_v), float(im_v))
            holo = _json_exponents(t["holo"], f'{where}: "holo"')
            antiholo = _json_exponents(t["antiholo"], f'{where}: "antiholo"')
            terms.append((c, holo, antiholo))
        try:
            return cls(terms, dim=dim)
        except ValueError as exc:
            raise SymbolParseError(str(exc)) from exc


def _json_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SymbolParseError(f"{what} must be an integer, got {v!r}")
    return v


def _json_exponents(v, what: str) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise SymbolParseError(f"{what} must be a list of integers, got {v!r}")
    return tuple(_json_int(e, what + " entry") for e in v)


def _dec_part(p, where: str):
    """One coefficient part: a Fraction for strings and ints, else a finite float."""
    if isinstance(p, str):
        try:
            return Fraction(p)
        except (ValueError, ZeroDivisionError):
            raise SymbolParseError(f"{where}: bad coefficient part {p!r}") from None
    if isinstance(p, bool):
        raise SymbolParseError(f"{where}: bad coefficient part {p!r}")
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, float):
        if not math.isfinite(p):
            raise SymbolParseError(f"{where}: non-finite coefficient part {p!r}")
        return p
    raise SymbolParseError(f"{where}: bad coefficient part {p!r}")


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


def _monomial_str(h: MultiIndex, a: MultiIndex) -> str | None:
    parts = [f"z{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(h) if e]
    parts += [f"zb{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(a) if e]
    return "*".join(parts) if parts else None


def _frac_coeff_str(v: Fraction, imag: bool) -> str:
    s = _frac_str(v)
    if imag:
        if v == 1:
            return "i"
        if v == -1:
            return "-i"
        return s + "i"
    return s


def _coeff_str(c: CRat) -> str:
    if c.im == 0:
        return _frac_coeff_str(c.re, False)
    if c.re == 0:
        return _frac_coeff_str(c.im, True)
    im = _frac_coeff_str(abs(c.im), True)
    sign = "+" if c.im > 0 else "-"
    return f"({_frac_str(c.re)}{sign}{im})"


# -- expression parsing ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>zb?[1-8])(?![0-9a-zA-Z])|(?P<int>\d+)|(?P<imag>i)(?![0-9a-zA-Z])"
    r"|(?P<op>[-+*^/()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise SymbolParseError(f"unexpected input at {text[pos:pos + 12]!r}")
        for kind in ("var", "int", "imag", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise SymbolParseError(f"expected {op!r}, got {val!r}")

    def parse(self) -> PolySymbol:
        sym = self.expr()
        if self.pos != len(self.tokens):
            raise SymbolParseError(f"trailing input near {self.peek()[1]!r}")
        return sym

    def expr(self) -> PolySymbol:
        out = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self) -> PolySymbol:
        out = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                out = out * self.factor()
            else:
                return out

    def factor(self) -> PolySymbol:
        kind, val = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.take()
            negate = True
        sym = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise SymbolParseError("exponent must be a non-negative integer")
            sym = sym ** int(val)
        return sym * -1 if negate else sym

    def atom(self) -> PolySymbol:
        kind, val = self.take()
        if kind == "var":
            coord = int(val[-1])
            expo = [0] * self.dim
            expo[coord - 1] = 1
            if val.startswith("zb"):
                return PolySymbol([(CRat(1), (0,) * self.dim, tuple(expo))])
            return PolySymbol([(CRat(1), tuple(expo), (0,) * self.dim)])
        if kind == "int":
            return self.number(int(val))
        if kind == "imag":
            return PolySymbol([(CRat(0, 1), (0,) * self.dim, (0,) * self.dim)])
        if kind == "op" and val == "(":
            sym = self.expr()
            self.expect_op(")")
            return sym
        raise SymbolParseError(f"unexpected token {val!r}")

    def number(self, numerator: int) -> PolySymbol:
        value = Fraction(numerator)
        kind, val = self.peek()
        if kind == "op" and val == "/":
            # fraction only when a digit follows; otherwise leave '/' unconsumed
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else (None, None)
            if nxt[0] == "int":
                self.take()
                _, den = self.take()
                if int(den) == 0:
                    raise SymbolParseError("zero denominator")
                value = Fraction(numerator, int(den))
        kind, val = self.peek()
        if kind == "imag":
            self.take()
            coeff = CRat(0, value)
        else:
            coeff = CRat(value)
        return PolySymbol([(coeff, (0,) * self.dim, (0,) * self.dim)])


def _max_coordinate(tokens) -> int:
    coords = [int(val[-1]) for kind, val in tokens if kind == "var"]
    return max(coords, default=1)


def parse_symbol(text: str, dim: int | None = None) -> PolySymbol:
    """Parse a symbol from the mini-language or a structured JSON term list.

    dim, when given, forces the ambient dimension (must not be smaller than
    the highest coordinate used).
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        import json

        try:
            obj = json.loads(stripped)
        except ValueError as exc:
            raise SymbolParseError(f"invalid JSON symbol: {exc}") from None
        sym = PolySymbol.from_json_obj(obj)
        if dim is None:
            return sym
        try:
            return sym.padded(dim)
        except ValueError as exc:
            raise SymbolParseError(str(exc)) from None
    tokens = _tokenize(stripped)
    if not tokens:
        raise SymbolParseError("empty symbol expression")
    inferred = _max_coordinate(tokens)
    if dim is not None:
        if dim < inferred:
            raise SymbolParseError(
                f"dim {dim} smaller than highest coordinate {inferred}"
            )
        if dim > MAX_COORDINATE:
            raise SymbolParseError(f"dim {dim} exceeds {MAX_COORDINATE}")
        inferred = dim
    return _Parser(tokens, inferred).parse()

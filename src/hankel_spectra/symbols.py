"""Polynomial symbols in z and zbar, their algebra, and the expression mini-language.

A PolySymbol is a finite, canonicalized sum of terms c * z^n * zbar^m.  Exact
coefficients are CRat (Gaussian rationals); anything inexact degrades the
symbol to complex-float coefficients, which routes downstream computations to
the float paths.

The textual mini-language accepts tokens z1..z8 and zb1..zb8 (8 is
MAX_COORDINATE), complex rational coefficients (e.g. 3, 1/2, i, 2/3i), +, -, *,
integer powers with ^, and parentheses, e.g. "zb1*(zb2+1)".  A number is one
token, an integer or num/den (spaces may surround the "/"), read by
rational.read_rational like the strings of JSON coefficients; an exponent is
such a token without "/", at most MAX_EXPONENT.  _Parser.product bounds each
product's work, and _Parser.charge the work of the whole parse: its products
and the terms its sums merge.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

from .core import _INT64_LIMIT, MonomialSymbol
from .multiindex import MAX_COORDINATE, MultiIndex, as_multiindex, common_dim
from .rational import CRat, _power, as_coeff, read_rational

__all__ = ["PolySymbol", "SymbolParseError", "parse_symbol"]

MAX_NESTING = 100  # parenthesis depth; keeps the recursive-descent parser off the recursion limit
MAX_TERM_PAIRS = 4096  # work of one product in a parsed symbol, in term pairs of 64 coefficient bits (about 0.2 s)
MAX_COEFF_BITS = 2**14  # bits of a coefficient part one product may reach (about 4900 digits)
MAX_PARSE_WORK = 2 * MAX_TERM_PAIRS  # work of a whole parse, in the same unit: its products plus the terms its sums merge
# the largest exponent of symbol text or a JSON term, 2^62 - 1 (19 digits): below
# core's int64 table limit, and refused before a power squares its way past it
MAX_EXPONENT = _INT64_LIMIT - 1


class SymbolParseError(ValueError):
    pass


def _pad(t: tuple[int, ...], dim: int) -> tuple[int, ...]:
    return t + (0,) * (dim - len(t))


class PolySymbol:
    """Canonical finite sum of terms coeff * z^holo * zbar^antiholo.

    is_exact follows the kept terms.  A symbol whose terms all cancel is float
    when a coefficient it was built from was float, and the algebra below
    keeps a float zero float.  Equality and hashing compare (dim, terms) only,
    so the float and the exact zero symbol are equal.
    """

    __slots__ = ("dim", "terms", "is_exact")

    def __init__(self, terms, dim: int | None = None):
        """The symbol of outside terms (coeff, holo, antiholo): each exponent tuple is
        validated, all must have one length (dim when given) and each coeff is
        converted by as_coeff.  Terms of one monomial are summed."""
        self.dim = dim
        self._merge(self._checked(terms))
        if self.dim is None:
            raise ValueError("dimension must be given for the empty symbol")

    @classmethod
    def _of_terms(cls, terms, dim: int) -> "PolySymbol":
        """The symbol of terms derived from built symbols: exponent tuples of length dim
        with non-negative int entries and CRat or complex coefficients, checked already."""
        sym = cls.__new__(cls)
        sym.dim = dim
        sym._merge(terms)
        return sym

    def _checked(self, terms):
        """Each of terms validated as __init__ says, in turn; the first sets self.dim when it is None."""
        for coeff, holo, antiholo in terms:
            holo = as_multiindex(holo, name="holo exponent")
            antiholo = as_multiindex(antiholo, name="antiholo exponent")
            d = common_dim(holo, antiholo)
            if self.dim is None:
                self.dim = d
            elif d != self.dim:
                raise ValueError(f"term dimension {d} != symbol dimension {self.dim}")
            yield as_coeff(coeff), holo, antiholo

    def _merge(self, terms) -> None:
        """Set terms to the non-zero sums of the coefficients per monomial, in canonical order."""
        merged: dict[tuple[MultiIndex, MultiIndex], object] = {}
        exact = True
        for c, holo, antiholo in terms:
            exact = exact and isinstance(c, CRat)
            key = (holo, antiholo)
            if key in merged:
                merged[key] = merged[key] + c
            else:
                merged[key] = c
        cleaned = [
            (c, h, a)
            for (h, a), c in merged.items()
            if (bool(c) if isinstance(c, CRat) else c != 0)
        ]
        cleaned.sort(key=lambda t: (sum(t[1]) + sum(t[2]), t[1], t[2]))
        self.terms = tuple(cleaned)
        # a symbol whose terms all cancel is exact when every coefficient it was built from was
        self.is_exact = all(isinstance(c, CRat) for c, _, _ in cleaned) if cleaned else exact

    # -- constructors ---------------------------------------------------------

    def padded(self, dim: int) -> "PolySymbol":
        """Embed into a higher ambient dimension by appending zero exponents."""
        if dim < self.dim:
            raise ValueError(f"cannot shrink symbol of dim {self.dim} to {dim}")
        if dim == self.dim:
            return self
        return _keep_float(
            PolySymbol._of_terms([(c, _pad(h, dim), _pad(a, dim)) for c, h, a in self.terms], dim), self
        )

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
        if not self.is_exact and all(isinstance(c, complex) for c, _, _ in self.terms):
            return self
        terms = []
        for c, h, a in self.terms:
            try:
                terms.append((complex(c), h, a))
            except OverflowError:
                raise ValueError(
                    f"coefficient of {_monomial_str(h, a) or '1'} is too large for a float"
                ) from None
        # the zero symbol is built from one zero float coefficient: dropped, but counted
        return PolySymbol._of_terms(terms or [(0j, (0,) * self.dim, (0,) * self.dim)], self.dim)

    def to_monomial_symbol(self) -> MonomialSymbol:
        if not self.is_plain_monomial:
            raise ValueError(f"{self} is not a unit-coefficient monomial")
        _, holo, antiholo = self.terms[0]
        return MonomialSymbol(holo, antiholo)

    # -- degrees --------------------------------------------------------------

    def coordinate_degrees(self) -> tuple[int, ...]:
        """Per-coordinate maximum of n_k + m_k over the terms."""
        return tuple(
            max((h[k] + a[k] for _, h, a in self.terms), default=0)
            for k in range(self.dim)
        )

    # -- algebra ----------------------------------------------------------------

    def conjugate(self) -> "PolySymbol":
        return _keep_float(
            PolySymbol._of_terms([(c.conjugate(), a, h) for c, h, a in self.terms], self.dim), self
        )

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        if not isinstance(other, PolySymbol):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in symbol sum")
        return _keep_float(PolySymbol._of_terms(self.terms + other.terms, self.dim), self, other)

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
            return _keep_float(PolySymbol._of_terms(terms, self.dim), self, other)
        scal = as_coeff(other)
        return _keep_float(PolySymbol._of_terms([(c * scal, h, a) for c, h, a in self.terms], self.dim), self)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolySymbol":
        return _power(self, exponent, _one(self.dim))

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
        return _keep_float(PolySymbol._of_terms(terms, self.dim - 1), self)

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
                return [str(c.re), str(c.im)]
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

        Coefficient parts are integers or strings of an integer or "num/den" in
        ASCII digits, the numbers of symbol text (exact, read by read_rational),
        or finite floats (which make the symbol inexact).
        """
        if not isinstance(obj, dict):
            raise SymbolParseError("JSON symbol must be an object")
        if "dim" not in obj:
            raise SymbolParseError('JSON symbol is missing "dim"')
        dim = _json_int(obj["dim"], '"dim"')
        if dim < 1:
            raise SymbolParseError(f"JSON symbol dim {dim} is below 1")
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
                try:
                    c = complex(float(re_v), float(im_v))
                except OverflowError:
                    raise SymbolParseError(f"{where}: coefficient part is too large for a float") from None
            holo = _json_exponents(t["holo"], f'{where}: "holo"')
            antiholo = _json_exponents(t["antiholo"], f'{where}: "antiholo"')
            terms.append((c, holo, antiholo))
        try:
            sym = cls(terms, dim=dim)
        except OverflowError:
            # an exact coefficient past the float range merged with a float one
            sym = None
        except ValueError as exc:
            raise SymbolParseError(str(exc)) from exc
        # terms of one monomial merge into their sum, which may leave the float range
        if sym is None or any(isinstance(c, complex) and not cmath.isfinite(c) for c, _, _ in sym.terms):
            raise SymbolParseError("the coefficients of a monomial sum past the float range")
        return sym


def _one(dim: int) -> PolySymbol:
    return PolySymbol._of_terms([(CRat(1), (0,) * dim, (0,) * dim)], dim)


def _keep_float(result: PolySymbol, *sources: PolySymbol) -> PolySymbol:
    # a symbol without terms has no coefficient left to carry a float flag, so a
    # zero result takes it from the symbols it was derived from
    if not result.terms and not all(s.is_exact for s in sources):
        result.is_exact = False
    return result


def _json_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SymbolParseError(f"{what} must be an integer, got {v!r}")
    return v


def _json_exponents(v, what: str) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise SymbolParseError(f"{what} must be a list of integers, got {v!r}")
    return tuple(_exponent(_json_int(e, what + " entry"), what + " entry") for e in v)


def _exponent(e: int, what: str = "an exponent") -> int:
    if e > MAX_EXPONENT:
        raise SymbolParseError(f"{what} exceeds the exponent bound {MAX_EXPONENT}")
    return e


def _dec_part(p, where: str):
    """One coefficient part: a Fraction for strings and ints, else a finite float."""
    if isinstance(p, str):
        try:
            return read_rational(p)
        except ValueError:
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


def _monomial_str(h: MultiIndex, a: MultiIndex) -> str | None:
    parts = [f"z{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(h) if e]
    parts += [f"zb{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(a) if e]
    return "*".join(parts) if parts else None


def _frac_coeff_str(v: Fraction, imag: bool) -> str:
    s = str(v)
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
    return f"({c.re}{sign}{im})"


# -- expression parsing ----------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<var>zb?[1-{MAX_COORDINATE}])(?![0-9a-zA-Z])|(?P<num>[0-9]+(?:\s*/\s*[0-9]+)?)|(?P<imag>i)(?![0-9a-zA-Z])"
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
        # a number token drops the spaces around its "/"
        tokens.append((m.lastgroup, "".join(m[m.lastgroup].split())))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.depth = 0
        self.work = 0  # in term pairs of 64 bits, the unit of MAX_TERM_PAIRS

    def charge(self, work: int) -> None:
        self.work += work
        if self.work > MAX_PARSE_WORK:
            raise SymbolParseError(f"the symbol text takes more than the work of {MAX_PARSE_WORK} term pairs of 64 bits")

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
        """A sum, merged once: adding one summand at a time would rebuild the running
        sum for each, quadratic in the number of summands."""
        parts = [self.term()]
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in "+-":
                break
            self.take()
            parts.append(self.term() if val == "+" else self.term() * -1)
        if len(parts) == 1:
            return parts[0]
        terms = [t for part in parts for t in part.terms]
        self.charge(len(terms))
        return PolySymbol._of_terms(terms, self.dim)

    def term(self) -> PolySymbol:
        out = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                out = self.product(out, self.factor())
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
            if kind != "num" or "/" in val:  # 4/2 would read as the integer 2
                raise SymbolParseError("exponent must be a non-negative integer")
            sym = _power(sym, _exponent(_read_number(val).numerator), _one(self.dim), self.product)
        return sym * -1 if negate else sym

    def product(self, a: PolySymbol, b: PolySymbol) -> PolySymbol:
        """a * b, refused before it is formed when the widest coefficient parts of a and b
        together take over MAX_COEFF_BITS bits, or when its term pairs times those bits (at
        least 64) are more work than MAX_TERM_PAIRS pairs of 64 bits.  An admitted product's
        work is charged to the whole parse."""
        bits = _coeff_bits(a) + _coeff_bits(b)
        if bits > MAX_COEFF_BITS:
            raise SymbolParseError(f"a product's coefficients exceed {MAX_COEFF_BITS} bits")
        work = len(a.terms) * len(b.terms) * max(bits, 64)
        if work > MAX_TERM_PAIRS * 64:
            raise SymbolParseError(
                f"a product of {len(a.terms)} by {len(b.terms)} terms with {bits}-bit coefficient pairs "
                f"exceeds the work of {MAX_TERM_PAIRS} term pairs of 64 bits"
            )
        self.charge(work // 64)
        return a * b

    def atom(self) -> PolySymbol:
        kind, val = self.take()
        if kind == "var":
            coord = int(val[-1])
            expo = [0] * self.dim
            expo[coord - 1] = 1
            if val.startswith("zb"):
                return PolySymbol._of_terms([(CRat(1), (0,) * self.dim, tuple(expo))], self.dim)
            return PolySymbol._of_terms([(CRat(1), tuple(expo), (0,) * self.dim)], self.dim)
        if kind == "num":
            return self.number(val)
        if kind == "imag":
            return PolySymbol._of_terms([(CRat(0, 1), (0,) * self.dim, (0,) * self.dim)], self.dim)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise SymbolParseError(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            sym = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return sym
        raise SymbolParseError(f"unexpected token {val!r}")

    def number(self, text: str) -> PolySymbol:
        value = _read_number(text)
        kind, val = self.peek()
        if kind == "imag":
            self.take()
            coeff = CRat(0, value)
        else:
            coeff = CRat(value)
        return PolySymbol._of_terms([(coeff, (0,) * self.dim, (0,) * self.dim)], self.dim)


def _read_number(text: str) -> Fraction:
    try:
        return read_rational(text)
    except ValueError as exc:
        raise SymbolParseError(str(exc)) from None


def _coeff_bits(sym: PolySymbol) -> int:
    """The bit length of the widest numerator or denominator of sym's exact coefficients."""
    parts = (p for c, _, _ in sym.terms for p in (c.re, c.im))
    return max((max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts), default=0)


def _max_coordinate(tokens) -> int:
    coords = [int(val[-1]) for kind, val in tokens if kind == "var"]
    return max(coords, default=1)


def parse_symbol(text: str, dim: int | None = None) -> PolySymbol:
    """Parse a symbol from the mini-language or a structured JSON term list.

    dim, when given, forces the ambient dimension (must not be smaller than
    the highest coordinate used).
    """
    if dim is not None and dim > MAX_COORDINATE:
        raise SymbolParseError(f"dim {dim} exceeds {MAX_COORDINATE}")
    stripped = text.strip()
    if stripped.startswith("{"):
        import json

        try:
            obj = json.loads(stripped)
        except ValueError as exc:
            raise SymbolParseError(f"invalid JSON symbol: {exc}") from None
        sym = PolySymbol.from_json_obj(obj)
        if sym.dim > MAX_COORDINATE:
            raise SymbolParseError(f"JSON symbol dim {sym.dim} exceeds {MAX_COORDINATE}")
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
        inferred = dim
    return _Parser(tokens, inferred).parse()

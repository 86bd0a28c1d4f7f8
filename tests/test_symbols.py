"""Symbol algebra, the expression mini-language, and serialization round-trips."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankel_spectra import MonomialSymbol, PolySymbol, SymbolParseError, parse_symbol
from hankel_spectra.rational import CRat
from hankel_spectra.symbols import MAX_EXPONENT, MAX_PARSE_WORK


def crat(re, im=0):
    return CRat(Fraction(re), Fraction(im))


def test_parse_single_monomials():
    s = parse_symbol("zb1")
    assert s.dim == 1 and s.terms == ((crat(1), (0,), (1,)),)
    s = parse_symbol("z1^2")
    assert s.terms == ((crat(1), (2,), (0,)),)
    s = parse_symbol("zb1^2*zb2^3")
    assert s.dim == 2 and s.terms == ((crat(1), (0, 0), (2, 3)),)


def test_parse_dim_forcing():
    s = parse_symbol("zb1", dim=2)
    assert s.dim == 2 and s.terms == ((crat(1), (0, 0), (1, 0)),)
    with pytest.raises(SymbolParseError):
        parse_symbol("zb2", dim=1)


def test_parse_product_expansion():
    s = parse_symbol("zb1*(zb2+1)")
    assert s.terms == (
        (crat(1), (0, 0), (1, 0)),
        (crat(1), (0, 0), (1, 1)),
    )


def test_parse_coefficients():
    s = parse_symbol("1/2*z1 + i*z2")
    assert set(s.terms) == {
        (crat(Fraction(1, 2)), (1, 0), (0, 0)),
        (crat(0, 1), (0, 1), (0, 0)),
    }
    s = parse_symbol("(1+2i)*zb1 - 3/4i")
    assert s.terms == ((crat(0, Fraction(-3, 4)), (0,), (0,)), (crat(1, 2), (0,), (1,)))


def test_parse_unary_minus_and_powers():
    s = parse_symbol("-zb1 + (z1+1)^2")
    expect = PolySymbol(
        [
            (crat(1), (0,), (0,)),
            (crat(-1), (0,), (1,)),
            (crat(2), (1,), (0,)),
            (crat(1), (2,), (0,)),
        ]
    )
    assert s == expect


def test_parse_errors():
    for bad in ("", "z9", "zb1^", "zb1*", "1/0", "z1 $ z2", "(z1", "zb1^-2", "zb1^4/2", "\u0663*zb1"):
        with pytest.raises(SymbolParseError):
            parse_symbol(bad)


def test_canonical_merge_and_zero():
    assert parse_symbol("zb1+zb1") == parse_symbol("2*zb1")
    assert parse_symbol("zb1-zb1").is_zero
    assert str(parse_symbol("zb1-zb1")) == "0"


def test_roundtrip_expressions():
    corpus = [
        "zb1",
        "z1^2",
        "zb1*zb2 + zb1",
        "zb1*(zb2+1)",
        "1/2*z1*zb1 - 2*zb2^3",
        "(1+2i)*z1 + (1/3-1/4i)*zb2",
        "i*z1 - i*zb1 + 5",
        "0",
        "3/7",
    ]
    for text in corpus:
        sym = parse_symbol(text, dim=2)
        again = parse_symbol(sym.to_expression(), dim=2)
        assert again == sym, text


def test_json_roundtrip():
    sym = parse_symbol("(1+2i)*z1*zb2 + 1/3*zb1^2")
    again = PolySymbol.from_json_obj(sym.to_json_obj())
    assert again == sym
    inexact = PolySymbol([(0.5 + 0.25j, (1,), (0,))])
    again = PolySymbol.from_json_obj(inexact.to_json_obj())
    assert again == inexact and not again.is_exact


def test_cancelled_float_terms_keep_an_exact_symbol_exact():
    # exactness follows the kept terms; only a symbol with none left reads it from its inputs
    half_zb = {"coeff": ["1/2", "0"], "holo": [0], "antiholo": [1]}
    for floats in ([[0.0, 0.0]], [[0.25, 0.5], [-0.25, -0.5]]):
        terms = [half_zb] + [{"coeff": c, "holo": [1], "antiholo": [0]} for c in floats]
        sym = parse_symbol(json.dumps({"dim": 1, "terms": terms}))
        assert sym.is_exact and sym == parse_symbol("1/2*zb1"), floats
        assert sym.to_json_obj() == parse_symbol("1/2*zb1").to_json_obj()
    assert not PolySymbol([(0.25, (1,), (0,)), (-0.25, (1,), (0,))]).is_exact
    assert parse_symbol("zb1 - zb1").is_exact and not parse_symbol("zb1 - zb1").as_float().is_exact


def test_parse_json_input():
    text = '{"dim": 2, "terms": [{"coeff": ["1/2", "0"], "holo": [0, 0], "antiholo": [1, 0]}]}'
    assert parse_symbol(text) == parse_symbol("1/2*zb1", dim=2)


def test_conjugate_and_modulus_squared():
    sym = parse_symbol("zb1*(zb2+1)")
    conj = sym.conjugate()
    assert conj == parse_symbol("z1*(z2+1)")
    mod = sym.modulus_squared()
    # |zb1|^2 (|zb2|^2 + zb2 + z2 + 1)
    assert mod == parse_symbol("z1*zb1*(z2*zb2 + z2 + zb2 + 1)")


def test_monomial_detection():
    assert parse_symbol("zb1*zb2").is_plain_monomial
    assert parse_symbol("zb1*zb2").to_monomial_symbol() == MonomialSymbol((0, 0), (1, 1))
    assert not parse_symbol("2*zb1").is_plain_monomial
    assert not parse_symbol("zb1+zb2").is_plain_monomial
    with pytest.raises(ValueError):
        parse_symbol("zb1+zb2").to_monomial_symbol()


def test_scalar_scaling_and_holomorphy():
    sym = parse_symbol("zb1") * 2
    assert sym == parse_symbol("2*zb1")
    assert parse_symbol("z1^3*z2").is_holomorphic
    assert not parse_symbol("z1*zb2").is_holomorphic


def test_substitute_coordinate_exact_and_float():
    sym = parse_symbol("zb1*(zb2+1)")
    sliced = sym.substitute_coordinate(2, CRat(1))
    assert sliced == parse_symbol("2*zb1")
    sliced = sym.substitute_coordinate(2, CRat(-1))
    assert sliced.is_zero
    import cmath

    q = cmath.exp(1j * 0.7)
    sliced = sym.substitute_coordinate(2, q)
    assert not sliced.is_exact
    (c, h, a), = sliced.terms
    assert (h, a) == ((0,), (1,))
    assert abs(complex(c) - (1 + q.conjugate())) < 1e-15


def test_evaluate():
    sym = parse_symbol("zb1*(zb2+1)")
    z = (0.3 + 0.4j, -0.2 + 0.1j)
    expect = z[0].conjugate() * (z[1].conjugate() + 1)
    assert abs(sym.evaluate(z) - expect) < 1e-15


def test_degrees():
    sym = parse_symbol("z1^2*zb1*zb2^3 + z2")
    assert sym.coordinate_degrees() == (3, 3)
    assert parse_symbol("0", dim=2).coordinate_degrees() == (0, 0)


def test_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    real = PolySymbol.__mul__

    def counting(self, other):
        calls.append(1)
        if len(calls) > 100:  # repeated multiplication would make 10^6 products
            raise AssertionError("too many symbol products for one power")
        return real(self, other)

    monkeypatch.setattr(PolySymbol, "__mul__", counting)
    s = parse_symbol("zb1^1000000")
    assert s.terms == ((crat(1), (0,), (1000000,)),)
    assert len(calls) <= 2 * 20 + 2  # 2*log2(10^6) + 2
    monkeypatch.undo()
    base = parse_symbol("(1/2+i)*zb1*z2 - 3*z1 + 1")
    prod = PolySymbol([(1, (0, 0), (0, 0))])
    for e in range(8):
        assert base**e == prod
        prod = prod * base


def test_parser_refuses_products_over_the_term_pair_budget(monkeypatch, capsys):
    real = PolySymbol.__mul__

    def bounded(self, other):
        if isinstance(other, PolySymbol) and len(self.terms) * len(other.terms) > 10_000:
            raise AssertionError("the parser formed a product of over 10^4 term pairs")
        return real(self, other)

    monkeypatch.setattr(PolySymbol, "__mul__", bounded)
    with pytest.raises(SymbolParseError, match="term pairs"):
        parse_symbol("(zb1+zb2+z1+z2)^40")  # (z1+z2+zb1+zb2)^8 has 165 terms
    wide = "(" + "+".join(f"z1^{k}" for k in range(65)) + ")"
    with pytest.raises(SymbolParseError, match="65 by 65 terms"):
        parse_symbol(wide + "*" + wide.replace("z1", "zb2"))
    narrow = "(" + "+".join(f"zb2^{k}" for k in range(63)) + ")"
    assert len(parse_symbol(wide + "*" + narrow).terms) == 65 * 63  # 4095 pairs are allowed
    monkeypatch.undo()
    from hankel_spectra.cli import main

    assert main(["approx", "(zb1+zb2+z1+z2)^40", "--degree", "1"]) == 2
    assert "term pairs" in capsys.readouterr().err
    # library algebra has no budget
    assert len(parse_symbol(wide).modulus_squared().terms) == 65 * 65


def test_parser_refuses_products_over_the_coefficient_budget():
    for text in ("2^20000*zb1", "(1/3+i)^2000000", "10^999999999*zb1", "(1/2)^20000"):
        with pytest.raises(SymbolParseError, match="16384 bits"):
            parse_symbol(text)
    assert parse_symbol("2^10000*zb1").terms == ((crat(2**10000), (0,), (1,)),)


def _wide_factor(wide: int) -> str:
    """A product of `wide` terms whose coefficient parts take about 7900 bits by 8 unit terms."""
    wide_sum = "+".join(f"((1/7)^{2790 + k}+(1/3)^{5000 + k}*i)*zb1^{k}" for k in range(wide))
    return f"({wide_sum})*({'+'.join(f'zb2^{k}' for k in range(8))})"


def test_parser_refuses_products_over_the_work_budget():
    # 64 pairs of 7937 bits are as much work as some 7900 pairs of unit coefficients
    q = _wide_factor(8)
    for text in (q, f"{q}*{q}"):
        start = time.perf_counter()
        with pytest.raises(SymbolParseError, match="8 by 8 terms with 7937-bit coefficient pairs"):
            parse_symbol(text)
        assert time.perf_counter() - start < 1.0
    # 32 pairs of at most 7937 + 1 bits stay within 4096 * 64, 40 pairs do not
    assert len(parse_symbol(_wide_factor(4)).terms) == 32
    with pytest.raises(SymbolParseError, match="5 by 8 terms"):
        parse_symbol(_wide_factor(5))


@pytest.mark.parametrize(
    "text",
    ["zb1^" + "9" * 4301, "1" * 4301 + "*zb1", "zb1^" + "0" * 4300 + "1"],
    ids=["exponent", "coefficient", "zero-padded-exponent"],
)
def test_a_number_past_the_digit_limit_is_one_parse_error(text):
    with pytest.raises(SymbolParseError) as info:
        parse_symbol(text)
    message = str(info.value)
    assert "4300 digits" in message and "\n" not in message and "set_int_max_str_digits" not in message


def test_an_exponent_past_the_bound_is_refused_at_once(capsys):
    # 4300 nines once took 0.5 s of squarings, and approx then printed Python's own digit-limit line
    for text in ("zb1^" + "9" * 4300, f"z1*zb2^{MAX_EXPONENT + 1}"):
        start = time.perf_counter()
        with pytest.raises(SymbolParseError, match=f"exceeds the exponent bound {MAX_EXPONENT}"):
            parse_symbol(text)
        assert time.perf_counter() - start < 0.1
    for key in ("holo", "antiholo"):
        term = {"coeff": [1, 0], "holo": [0, 0], "antiholo": [1, 0]} | {key: [0, MAX_EXPONENT + 1]}
        with pytest.raises(SymbolParseError, match=f'term 0: "{key}" entry exceeds the exponent bound'):
            parse_symbol(json.dumps({"dim": 2, "terms": [term]}))
    from hankel_spectra.cli import main

    assert main(["approx", "zb1^" + "9" * 4300]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "set_int_max_str_digits" not in err


def test_the_largest_exponent_parses():
    assert MAX_EXPONENT == 2**62 - 1
    assert parse_symbol(f"zb1^{MAX_EXPONENT}").terms == ((crat(1), (0,), (MAX_EXPONENT,)),)
    term = {"coeff": [1, 0], "holo": [MAX_EXPONENT], "antiholo": [0]}
    assert parse_symbol(json.dumps({"dim": 1, "terms": [term]})).terms == ((crat(1), (MAX_EXPONENT,), (0,)),)
    assert parse_symbol("z1*zb2^3100000000").terms == ((crat(1), (1, 0), (0, 3100000000)),)


_UNIT_PRODUCT = "({})*({})".format("+".join(f"z1^{k}" for k in range(64)), "+".join(f"zb2^{k}" for k in range(64)))


def test_parser_refuses_texts_over_the_whole_parse_budget():
    # each copy is one admitted product of 4096 unit pairs; ten of them once parsed in 1.8 s
    assert len(parse_symbol(_UNIT_PRODUCT).terms) == 4096
    start = time.perf_counter()
    with pytest.raises(SymbolParseError, match=f"more than the work of {MAX_PARSE_WORK} term pairs"):
        parse_symbol("+".join([_UNIT_PRODUCT] * 10))
    assert time.perf_counter() - start < 0.5


def test_a_text_just_inside_the_whole_parse_budget_parses():
    # a sum of n summands merges n terms once: MAX_PARSE_WORK of them are the whole budget
    assert parse_symbol("+".join(["zb1"] * MAX_PARSE_WORK)).terms == ((crat(MAX_PARSE_WORK), (0,), (1,)),)
    with pytest.raises(SymbolParseError, match="more than the work of"):
        parse_symbol("+".join(["zb1"] * (MAX_PARSE_WORK + 1)))
    # a sum is merged once, so its cost grows with its summands, not their square
    assert len(parse_symbol("+".join(f"z1^{k}" for k in range(300))).terms) == 300


_WHITESPACE = st.text(st.sampled_from([c for c in map(chr, range(0x3001)) if c.isspace()]), max_size=3)


@given(st.integers(0, 10**30), st.integers(1, 10**30), _WHITESPACE, _WHITESPACE)
def test_a_number_is_one_token_with_spaces_around_its_slash(p, q, before, after):
    value = Fraction(p, q)
    assert parse_symbol(f"{p}{before}/{after}{q}*zb1") == PolySymbol([(crat(value), (0,), (1,))])
    assert parse_symbol(f"{p}/{q}i") == PolySymbol([(crat(0, value), (0,), (0,))])


def test_float_zero_stays_float():
    zero = parse_symbol("zb1 - zb1", dim=2).as_float()
    one = parse_symbol("zb1", dim=2)
    assert not zero.is_exact
    derived = [
        zero.conjugate(), zero.modulus_squared(), zero.substitute_coordinate(2, 1j), zero.padded(3),
        zero * zero, zero * one, one * zero, zero + zero, zero - zero, zero * 2, zero**3,
    ]
    assert all(s.is_zero and not s.is_exact for s in derived)
    exact_zero = parse_symbol("zb1 - zb1", dim=2)
    assert exact_zero.conjugate().is_exact and (exact_zero * one).is_exact
    assert zero == exact_zero  # equality and hashing compare terms only


def _json_term(holo, antiholo):
    return {"coeff": [1, 0], "holo": holo, "antiholo": antiholo}


@pytest.mark.parametrize(
    "build, error, message",
    [
        # PolySymbol(...) validates every outside term
        (lambda: PolySymbol([(1, (1, -1), (0, 0))]), ValueError, "holo exponent entries must be non-negative: (1, -1)"),
        (lambda: PolySymbol([(1, (0, 0), (2, -1))]), ValueError, "antiholo exponent entries must be non-negative: (2, -1)"),
        (lambda: PolySymbol([(1, (1.5, 0), (0, 0))]), ValueError, "holo exponent entries must be integers: (1.5, 0)"),
        (lambda: PolySymbol([(1, (1, 0), (1,))]), ValueError, "mixed dimensions: [1, 2]"),
        (lambda: PolySymbol([(1, (1, 0), (0, 0)), (1, (1,), (0,))]), ValueError, "term dimension 1 != symbol dimension 2"),
        (lambda: PolySymbol([(1, (1, 0), (0, 0))], dim=3), ValueError, "term dimension 2 != symbol dimension 3"),
        (lambda: PolySymbol([]), ValueError, "dimension must be given for the empty symbol"),
        (lambda: PolySymbol([("x", (1,), (0,))]), TypeError, "unsupported coefficient type: str"),
        # JSON terms
        (lambda: parse_symbol(json.dumps({"dim": 2, "terms": [_json_term([1, -1], [0, 0])]})),
         SymbolParseError, "holo exponent entries must be non-negative: (1, -1)"),
        (lambda: parse_symbol(json.dumps({"dim": 2, "terms": [_json_term([1.5, 0], [0, 0])]})),
         SymbolParseError, 'term 0: "holo" entry must be an integer, got 1.5'),
        (lambda: parse_symbol(json.dumps({"dim": 2, "terms": [_json_term([1, 0], [1])]})),
         SymbolParseError, "mixed dimensions: [1, 2]"),
        (lambda: parse_symbol(json.dumps({"dim": 2, "terms": [_json_term([1, 0], [0, 0]), _json_term([1], [0])]})),
         SymbolParseError, "term dimension 1 != symbol dimension 2"),
        (lambda: parse_symbol(json.dumps({"dim": 2, "terms": [_json_term([1, 0, 0], [0, 0, 0])]})),
         SymbolParseError, "term dimension 3 != symbol dimension 2"),
        # symbol text: exponents are non-negative integer tokens, coordinates within dim
        (lambda: parse_symbol("zb1^-1"), SymbolParseError, "exponent must be a non-negative integer"),
        (lambda: parse_symbol("zb1^3/2"), SymbolParseError, "exponent must be a non-negative integer"),
        (lambda: parse_symbol("zb1^(1/2)"), SymbolParseError, "exponent must be a non-negative integer"),
        (lambda: parse_symbol("zb1^1.5"), SymbolParseError, "unexpected input at '.5'"),
        (lambda: parse_symbol("z1*zb3", dim=2), SymbolParseError, "dim 2 smaller than highest coordinate 3"),
    ],
)
def test_outside_terms_are_refused_with_their_messages(build, error, message):
    # terms derived from built symbols skip these checks (PolySymbol._of_terms); outside ones must not
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


_coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(max_denominator=5), st.complex_numbers(max_magnitude=4, allow_nan=False)
)
_terms = st.lists(
    st.tuples(_coefficients, st.tuples(st.integers(0, 2), st.integers(0, 2)), st.tuples(st.integers(0, 2), st.integers(0, 2))),
    max_size=4,
)


@given(_terms, _terms, _coefficients)
def test_the_algebra_builds_what_the_validating_constructor_builds(a, b, scalar):
    p, q = PolySymbol(a, dim=2), PolySymbol(b, dim=2)

    def same(sym, terms, dim=2):
        # the algebra's terms skip validation (PolySymbol._of_terms); PolySymbol(...) validates them
        again = PolySymbol(terms, dim=dim)
        assert (sym.dim, sym.terms) == (again.dim, again.terms)
        assert not sym.terms or sym.is_exact == again.is_exact

    def add(x, y):
        return tuple(map(sum, zip(x, y)))

    same(p * q, [(c1 * c2, add(h1, h2), add(a1, a2)) for c1, h1, a1 in p.terms for c2, h2, a2 in q.terms])
    same(p + q, p.terms + q.terms)
    same(p.conjugate(), [(c.conjugate(), m, n) for c, n, m in p.terms])
    same(p * scalar, [(c * scalar, n, m) for c, n, m in p.terms])
    same(p.as_float(), [(complex(c), n, m) for c, n, m in p.terms])
    same(p.padded(3), [(c, n + (0,), m + (0,)) for c, n, m in p.terms], dim=3)
    same(p.substitute_coordinate(1, 1j), [(c * (1j ** n[0] * (-1j) ** m[0]), n[1:], m[1:]) for c, n, m in p.terms], dim=1)

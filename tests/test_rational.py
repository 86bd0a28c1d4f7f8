"""CRat construction (which parts are kept, coerced or refused), integer powers and the
reader of exact number text."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_spectra.rational import CRat, read_rational
from hankel_spectra.symbols import PolySymbol


def test_fraction_parts_are_kept_as_they_are():
    re, im = Fraction(-7, 3), Fraction(5, 11)
    c = CRat(re, im)
    assert c.re is re and c.im is im


class _Half(Fraction):
    pass


@pytest.mark.parametrize(
    "re, im, want",
    [
        (3, 0, (Fraction(3), Fraction(0))),
        (True, False, (Fraction(1), Fraction(0))),
        (Fraction(1, 2), 2, (Fraction(1, 2), Fraction(2))),
        (-4, Fraction(2, 3), (Fraction(-4), Fraction(2, 3))),
        (_Half(1, 2), _Half(-3, 2), (Fraction(1, 2), Fraction(-3, 2))),
        (np.int64(5), Fraction(1, 5), (Fraction(5), Fraction(1, 5))),
    ],
)
def test_other_rational_parts_become_fractions(re, im, want):
    c = CRat(re, im)
    assert (c.re, c.im) == want
    assert type(c.re) is Fraction and type(c.im) is Fraction


@pytest.mark.parametrize(
    "re, im",
    [
        (0.5, 0),
        (Fraction(1, 2), 0.5),
        (0.5, Fraction(1, 2)),
        (1j, 0),
        (Fraction(1), Decimal("0.1")),
        ("1", Fraction(1)),
        (Fraction(1), None),
    ],
)
def test_non_rational_parts_are_refused(re, im):
    with pytest.raises(TypeError, match="CRat parts must be rational"):
        CRat(re, im)


def test_power_squares_repeatedly(monkeypatch):
    calls = []
    real = CRat.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(CRat, "__mul__", counting)
    assert CRat(0, 1) ** 4096 == CRat(1)
    assert CRat(Fraction(1, 2), 1) ** 0 == CRat(1)
    assert len(calls) <= 2 * (4096).bit_length()


_small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_crat = st.builds(CRat, _small, _small)


def _repeated(base, exponent, one):
    out = one
    for _ in range(exponent):
        out = out * base
    return out


@settings(max_examples=40, deadline=None)
@given(_crat, st.integers(0, 40))
def test_crat_power_equals_repeated_multiplication(base, exponent):
    assert base**exponent == _repeated(base, exponent, CRat(1))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda dim: st.lists(
            st.tuples(_crat, *(st.lists(st.integers(0, 2), min_size=dim, max_size=dim) for _ in range(2))),
            min_size=1,
            max_size=2,
        ).map(lambda terms: PolySymbol([(c, tuple(n), tuple(m)) for c, n, m in terms], dim=dim))
    ),
    st.integers(0, 40),
)
def test_symbol_power_equals_repeated_multiplication(sym, exponent):
    one = PolySymbol([(CRat(1), (0,) * sym.dim, (0,) * sym.dim)], dim=sym.dim)
    assert sym**exponent == _repeated(sym, exponent, one)


@pytest.mark.parametrize("base", [CRat(1, 2), PolySymbol([(CRat(1), (0,), (1,))])])
@pytest.mark.parametrize("exponent", [-1, 0.5])
def test_power_refuses_other_exponents(base, exponent):
    with pytest.raises(ValueError, match="^powers must be non-negative integers$"):
        base**exponent


@pytest.mark.parametrize(
    ("text", "want"),
    [("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("+0", Fraction(0)), ("-0/5", Fraction(0)), ("10/4", Fraction(5, 2))],
)
def test_read_rational_reads_integers_and_num_den(text, want):
    assert read_rational(text) == want


@pytest.mark.parametrize(
    "text",
    ["", "1/0", "0.5", "1e3", "1e30000000", "1_0", " 1/2", "1/2\n", "1/-2", "/2", "1/", "\u0663", "9" * 5000],
)
def test_read_rational_refuses_other_text(text):
    with pytest.raises(ValueError):
        read_rational(text)


@given(st.fractions())
def test_read_rational_reads_what_str_writes(value):
    assert read_rational(str(value)) == value


def test_read_rational_names_the_digit_limit_itself():
    # int()'s own message would point at sys.set_int_max_str_digits
    for text in ("9" * 4301, "-" + "9" * 4301, "1/" + "0" * 4300 + "1"):
        with pytest.raises(ValueError, match="^a number has a part of more than 4300 digits$"):
            read_rational(text)
    assert read_rational("-" + "9" * 4300 + "/1") == 1 - 10**4300

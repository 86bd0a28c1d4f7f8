"""CRat construction: which parts are kept, coerced or refused."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hankel_spectra.rational import CRat


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

"""Seeded request generator for the three benchmark workloads.

A workload is one *cycle*: a fixed schedule of request slots, each slot fixing
the subcommand, the dimension, the size (N, samples or cap) and the symbol
family.  The seed only fills the slots in: exponents, coefficients, the
sliced coordinate and the order of the slots.  Keeping the sizes in the
schedule and the content in the seed makes every seed cost about the same,
so runs with different seeds can be compared.

The program under test sees only the generated argv.  The structured fields
next to it (terms, sizes, flags) are what the output checks use.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("galerkin", "boundary", "exact")

# Wall seconds one cycle takes, output checks included, on the host the
# benchmark was written on.  A run of --seconds S sends round(S / CYCLE_S)
# whole cycles, so every run of a workload has the same request count and its
# tail percentile is the same one.
CYCLE_S = {"galerkin": 10.0, "boundary": 6.0, "exact": 7.5}

# (re, im) Gaussian-rational coefficients of the exact text symbols: both parts
# non-zero and of the same size, so no draw is much cheaper to multiply.
_EXACT_COEFFS = tuple(
    (Fraction(sr * re), Fraction(si * im))
    for re in (Fraction(1, 2), Fraction(1), Fraction(2))
    for im in (Fraction(1, 2), Fraction(1))
    for sr in (1, -1)
    for si in (1, -1)
)
CANDIDATES = 9  # symbols drawn per slot; the one of median assembly work is used

# A term is (coefficient, holo exponents, antiholo exponents); coefficients are
# (re, im) pairs of Fractions for exact symbols and of floats for float ones.
Term = tuple[tuple, tuple[int, ...], tuple[int, ...]]


@dataclass
class Request:
    """One CLI request plus what its output check needs to know."""

    kind: str  # "approx" | "boundary" | "exact" | "verify"
    argv: list[str]
    dim: int = 0
    terms: list[Term] = field(default_factory=list)
    degree: int = 0
    samples: int = 0
    coord: int = 0
    exact: bool = True
    dump: str | None = None
    monomial_in_coord: bool = False

    @property
    def key(self) -> str:
        """Identity of the request (for reference sharing across the cycle)."""
        return json.dumps(self.argv)


# -- symbol text and JSON ------------------------------------------------------


def _frac_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _coeff_text(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return _frac_text(re)
    mag = "i" if abs(im) == 1 else f"{_frac_text(abs(im))}i"
    if re == 0:
        return mag if im > 0 else "-" + mag
    return f"({_frac_text(re)}{'+' if im > 0 else '-'}{mag})"


def _monomial_text(holo, antiholo) -> str:
    parts = [f"z{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(holo) if e]
    parts += [f"zb{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(antiholo) if e]
    return "*".join(parts)


def symbol_text(terms: list[Term]) -> str:
    """Mini-language text of an exact symbol, e.g. '2*z1*zb2^2 + (1/2+i)*zb1'."""
    pieces = []
    for (re, im), holo, antiholo in terms:
        mono = _monomial_text(holo, antiholo)
        coeff = _coeff_text(re, im)
        if coeff.startswith("-"):  # a leading '-' would read as a CLI flag
            coeff = f"({coeff})"
        if not mono:
            pieces.append(coeff)
        elif coeff == "1":
            pieces.append(mono)
        else:
            pieces.append(f"{coeff}*{mono}")
    return " + ".join(pieces)


def symbol_json(terms: list[Term], dim: int) -> str:
    """Structured JSON form; float coefficients route the program to its float path."""
    return json.dumps(
        {
            "dim": dim,
            "terms": [
                {"coeff": [float(re), float(im)], "holo": list(h), "antiholo": list(a)}
                for (re, im), h, a in terms
            ],
        }
    )


def coeff_complex(coeff) -> complex:
    return complex(float(coeff[0]), float(coeff[1]))


# -- random symbols -------------------------------------------------------------


def _random_terms(rng: random.Random, dim: int, count: int, *, exact: bool) -> list[Term]:
    """count distinct terms, exponents 0..1 in z and 0..2 in zbar, not all holomorphic."""
    seen = set()
    terms: list[Term] = []
    while len(terms) < count:
        holo = tuple(rng.randint(0, 1) for _ in range(dim))
        antiholo = tuple(rng.randint(0, 2) for _ in range(dim))
        if (holo, antiholo) in seen or not any(antiholo):
            continue
        seen.add((holo, antiholo))
        if exact:
            coeff = rng.choice(_EXACT_COEFFS)
        else:
            coeff = (round(rng.uniform(-1.5, 1.5), 2) or 0.25, round(rng.uniform(-1.0, 1.0), 2))
        terms.append((coeff, holo, antiholo))
    return terms


def assembly_work(terms: list[Term], dim: int, degree: int) -> int:
    """Entries the Galerkin assembly computes, weighted by the term pairs behind each.

    The compression couples z^a to z^(a+d) for each difference d of two
    terms' windings; every such entry inside the (N+1)^dim box costs one pass
    over the pairs with that d plus one projection intersection.
    """
    pairs: dict[tuple[int, ...], int] = {}
    for _, hs, ms in terms:
        for _, ht, mt in terms:
            d = tuple((a - b) - (c - e) for a, b, c, e in zip(hs, ms, ht, mt))
            pairs[d] = pairs.get(d, 0) + 1
    work = 0
    for d, count in pairs.items():
        entries = 1
        for x in d:
            entries *= max(0, degree + 1 - abs(x))
        work += entries * (count + len(terms))
    return work


def _slice_terms(terms: list[Term], coord: int) -> list[Term]:
    k = coord - 1
    merged = {(h[:k] + h[k + 1:], a[:k] + a[k + 1:]): c for c, h, a in terms}
    return [(c, h, a) for (h, a), c in merged.items()]


def _median_draw(rng: random.Random, draw, work):
    """The candidate of median work among CANDIDATES draws.

    Per-seed content then varies without moving a slot's cost much, so runs
    with different seeds measure about the same amount of work.
    """
    candidates = sorted((draw() for _ in range(CANDIDATES)), key=work)
    return candidates[CANDIDATES // 2]


def _times(a: list[Term], b: list[Term]) -> list[Term]:
    """Product of two exact symbols, like terms merged, zero terms dropped."""
    acc: dict[tuple, tuple[Fraction, Fraction]] = {}
    for (r1, i1), h1, a1 in a:
        for (r2, i2), h2, a2 in b:
            key = (tuple(x + y for x, y in zip(h1, h2)), tuple(x + y for x, y in zip(a1, a2)))
            re, im = acc.get(key, (Fraction(0), Fraction(0)))
            acc[key] = (re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2)
    return [(c, h, a) for (h, a), c in sorted(acc.items()) if c != (0, 0)]


def _embed(terms: list[Term], dim: int, coords: list[int]) -> list[Term]:
    """Place terms living on len(coords) coordinates into dim coordinates."""
    out = []
    for c, h, a in terms:
        hh, aa = [0] * dim, [0] * dim
        for k, coord in enumerate(coords):
            hh[coord - 1], aa[coord - 1] = h[k], a[k]
        out.append((c, tuple(hh), tuple(aa)))
    return out


# -- workloads ----------------------------------------------------------------------

# galerkin: (dim, N, terms, variant); variant "json" sends float coefficients,
# "dump" adds --dump-matrix.  The slots form three cost groups: cheap float,
# D^3 and many-term requests; a sweep of 2-term requests that holds the median
# (2-term costs vary least with the seed); and six near-equal large 2-term D^2
# requests.  A run's 3 cycles put 18 requests in that last group, so the 11th
# largest latency, the tail, falls inside it.
GALERKIN_SLOTS = (
    (2, 24, 2, "json"),
    (3, 7, 2, "json"),
    (3, 6, 3, "text"),
    (2, 14, 4, "text"),
    (2, 18, 3, "text"),
    (3, 8, 2, "text"),
    (2, 22, 2, "dump"),
    (2, 24, 2, "text"),
    (2, 26, 2, "dump"),
    (2, 29, 2, "text"),
    (2, 30, 2, "text"),
    (2, 31, 2, "text"),
    (2, 31, 2, "text"),
    (2, 32, 2, "text"),
    (2, 32, 2, "text"),
)

# boundary: (dim, N, samples, family); "product" is phi(z') * chi(z_coord) with
# a non-monomial chi, "sliced-monomial" has a monomial chi (constant profile),
# "generic" is an unfactored 3-term symbol.
BOUNDARY_SLOTS = (
    (2, 8, 256, "product"),
    (2, 10, 256, "generic"),
    (2, 12, 256, "sliced-monomial"),
    (2, 12, 128, "product"),
    (2, 14, 128, "generic"),
    (2, 16, 128, "product"),
    (3, 4, 256, "product"),
    (3, 4, 128, "generic"),
    (3, 5, 128, "sliced-monomial"),
    (3, 5, 128, "product"),
)

# exact: (dim, cap, class) or ("verify", suite); "finite" uses every coordinate,
# "infinite" leaves one coordinate out of the symbol (essential = spectrum).
EXACT_SLOTS = (
    (2, 50, "finite"),
    (2, 60, "infinite"),
    (2, 70, "finite"),
    (2, 80, "infinite"),
    (2, 90, "finite"),
    (3, 10, "finite"),
    (3, 12, "infinite"),
    (3, 14, "finite"),
    (3, 16, "finite"),
    ("verify", None),
    ("verify", None),
)

# Tiny slots for the self-tests: same families, small sizes.
TINY_SLOTS = {
    "galerkin": ((2, 4, 3, "text"), (2, 5, 2, "json"), (2, 4, 2, "dump"), (3, 2, 2, "text")),
    "boundary": (
        (2, 4, 16, "product"),
        (2, 4, 16, "generic"),
        (2, 4, 16, "sliced-monomial"),
        (3, 2, 16, "product"),
    ),
    "exact": ((2, 6, "finite"), (2, 6, "infinite"), (3, 3, "finite"), ("verify", "fixtures")),
}


def _galerkin_request(rng, slot, scratch: str, index: int) -> Request:
    dim, degree, count, variant = slot
    exact = variant != "json"
    terms = _median_draw(
        rng,
        lambda: _random_terms(rng, dim, count, exact=exact),
        lambda t: assembly_work(t, dim, degree),
    )
    text = symbol_text(terms) if exact else symbol_json(terms, dim)
    argv = ["approx", text, "--dim", str(dim), "--degree", str(degree)]
    dump = None
    if variant == "dump":
        dump = f"{scratch}/dump-{index}.txt"
        argv += ["--dump-matrix", dump]
    return Request("approx", argv, dim=dim, terms=terms, degree=degree, exact=exact, dump=dump)


def _boundary_symbol(rng, dim: int, family: str) -> tuple[int, list[Term]]:
    coord = rng.randint(1, dim)
    rest = [k for k in range(1, dim + 1) if k != coord]
    if family == "generic":
        return coord, _random_terms(rng, dim, 3, exact=True)
    phi = _embed(_random_terms(rng, dim - 1, 2, exact=True), dim, rest)
    chi = _embed(_random_terms(rng, 1, 1 if family == "sliced-monomial" else 2, exact=True), dim, [coord])
    return coord, _times(phi, chi)


def _boundary_request(rng, slot) -> Request:
    dim, degree, samples, family = slot

    def work(drawn):
        coord, terms = drawn
        sliced = _slice_terms(terms, coord)
        return samples * assembly_work(sliced, dim - 1, degree) + assembly_work(terms, dim, degree)

    coord, terms = _median_draw(rng, lambda: _boundary_symbol(rng, dim, family), work)
    argv = [
        "boundary", symbol_text(terms), "--dim", str(dim), "--coord", str(coord),
        "--degree", str(degree), "--samples", str(samples),
    ]
    k = coord - 1
    sliced_monomial = len({(h[k], a[k]) for _, h, a in terms}) == 1
    return Request(
        "boundary", argv, dim=dim, terms=terms, degree=degree, samples=samples,
        coord=coord, monomial_in_coord=sliced_monomial,
    )


def _exact_request(rng, slot) -> Request:
    if slot[0] == "verify":
        argv = ["verify"] + (["--suite", slot[1]] if slot[1] else [])
        return Request("verify", argv)
    dim, cap, cls = slot
    absent = rng.randrange(dim) if cls == "infinite" else None
    while True:
        holo = [rng.randint(0, 2) for _ in range(dim)]
        antiholo = [rng.randint(0, 3) for _ in range(dim)]
        if absent is not None:
            holo[absent] = antiholo[absent] = 0
        present = all(h + a > 0 for h, a in zip(holo, antiholo))
        if any(antiholo) and present == (cls == "finite"):
            break
    terms = [((Fraction(1), Fraction(0)), tuple(holo), tuple(antiholo))]
    argv = ["exact", symbol_text(terms), "--dim", str(dim), "--cap", str(cap)]
    return Request("exact", argv, dim=dim, terms=terms)


def generate(workload: str, seed: int, scratch: str, *, tiny: bool = False) -> list[Request]:
    """The workload's request cycle for this seed, in the order it is sent."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    slots = TINY_SLOTS[workload] if tiny else {
        "galerkin": GALERKIN_SLOTS, "boundary": BOUNDARY_SLOTS, "exact": EXACT_SLOTS,
    }[workload]
    if workload == "galerkin":
        cycle = [_galerkin_request(rng, s, scratch, i) for i, s in enumerate(slots)]
    elif workload == "boundary":
        cycle = [_boundary_request(rng, s) for s in slots]
    else:
        cycle = [_exact_request(rng, s) for s in slots]
    rng.shuffle(cycle)
    return cycle

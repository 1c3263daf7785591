"""Exact sparse polynomial arithmetic in the coordinates (x, y, z, w).

A polynomial is a map from exponent 4-tuples to rational coefficients:

    z**2*w + 3  ->  {(0, 0, 2, 1): Fraction(1), (0, 0, 0, 0): Fraction(3)}

Coefficients are `fractions.Fraction`, so arithmetic, differentiation and
identity tests are exact: two polynomials are equal iff their term maps are
identical.  The zero polynomial is the empty map.  Instances are immutable
and hashable; every operation returns a new canonical polynomial (no stored
zero coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .codegen import function_source, kernel

VARS = ("x", "y", "z", "w")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, int, int, int]
Rational = Union[int, Fraction]
Scalar = Union[int, float, Fraction]


def _as_fraction(value: Scalar | str) -> Fraction:
    """Coerce to an exact Fraction; floats go through their repr so literals
    like 0.5 mean the decimal 1/2, strings may be "p/q"."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot use {value!r} as an exact coefficient")


class SparsePoly:
    """Immutable sparse polynomial over Q in the fixed variables x, y, z, w."""

    __slots__ = ("_terms", "_hash", "_ints")

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)  # type: ignore[assignment]
                if len(expo) != 4 or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo!r}")
                frac = _as_fraction(coeff)
                if frac != 0:
                    clean[expo] = frac  # type: ignore[index]
        self._terms = clean
        self._hash: int | None = None
        self._ints: tuple | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "SparsePoly":
        return cls({(0, 0, 0, 0): _as_fraction(value)})

    @classmethod
    def var(cls, name: str) -> "SparsePoly":
        expo = [0, 0, 0, 0]
        expo[_VAR_INDEX[name]] = 1
        return cls({tuple(expo): 1})

    @classmethod
    def monomial(cls, coeff: Scalar, exponents: Iterable[int]) -> "SparsePoly":
        return cls({tuple(exponents): coeff})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Copy of the term map (canonical: no zero coefficients)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def degree_in(self, name: str) -> int:
        """Degree in a single variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        i = _VAR_INDEX[name]
        return max(e[i] for e in self._terms)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "SparsePoly | Scalar") -> "SparsePoly":
        other = _coerce(other)
        out = dict(self._terms)
        for expo, coeff in other._terms.items():
            acc = out.get(expo, Fraction(0)) + coeff
            if acc:
                out[expo] = acc
            else:
                out.pop(expo, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "SparsePoly | Scalar") -> "SparsePoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "SparsePoly":
        return _coerce(other) - self

    def __mul__(self, other: "SparsePoly | Scalar") -> "SparsePoly":
        other = _coerce(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                expo = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                acc = out.get(expo, Fraction(0)) + ca * cb
                if acc:
                    out[expo] = acc
                else:
                    out.pop(expo, None)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = SparsePoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ---------------------------------------------------------

    def diff(self, name: str) -> "SparsePoly":
        """Exact partial derivative with respect to x, y, z or w."""
        i = _VAR_INDEX[name]
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self._terms.items():
            if expo[i] == 0:
                continue
            lowered = list(expo)
            lowered[i] -= 1
            out[tuple(lowered)] = coeff * expo[i]
        return _raw(out)

    def subs(self, name: str, value: Rational) -> "SparsePoly":
        """Exact substitution of a rational value for one variable."""
        i = _VAR_INDEX[name]
        value = _as_fraction(value)
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self._terms.items():
            scaled = coeff * value ** expo[i]
            if not scaled:
                continue
            reduced = list(expo)
            reduced[i] = 0
            key = tuple(reduced)
            acc = out.get(key, Fraction(0)) + scaled
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return _raw(out)

    # -- evaluation -------------------------------------------------------

    def eval_exact(self, point: "Point4") -> Fraction:
        """Exact value at ``point.as_fractions()``: N / (L·D^m) of ``eval_integer``."""
        powers = point.powers()
        value, lcm, m = self.eval_integer(powers)
        return Fraction(value, lcm * powers[4][m])

    def eval_integer(self, powers: tuple[list[int], ...]) -> tuple[int, int, int]:
        """(N, L, m) at the point P/D of ``Point4.powers``, whose rows it grows
        to m: L is the lcm of the coefficient denominators, m the degree (0 for
        the zero polynomial) and N = value·L·D^m.  The integer form (L, m and
        per term n·L/d, e and the padding m − |e|) is built once and kept."""
        if self._ints is None:
            lcm = math.lcm(*(c.denominator for c in self._terms.values()))
            m = max(self.degree(), 0)
            self._ints = lcm, m, tuple((c.numerator * (lcm // c.denominator), *e, m - sum(e))
                                       for e, c in self._terms.items())
        lcm, m, terms = self._ints
        if len(powers[4]) <= m:
            for row in powers:
                row += [row[1] ** k for k in range(len(row), m + 1)]
        px, py, pz, pw, pd = powers
        total = 0
        for c, ex, ey, ez, ew, pad in terms:
            total += c * px[ex] * py[ey] * pz[ez] * pw[ew] * pd[pad]
        return total, lcm, m

    def eval(self, point: "Point4") -> float:
        """Value at a point as a float, rounded from ``eval_exact`` when it is rational."""
        if point.is_rational:
            return float(self.eval_exact(point))
        return self.compile()(*(float(c) for c in point.as_tuple()))

    def float_source(self) -> str:
        """Python expression of the float value at (x, y, z, w): the terms in
        exponent order summed onto 0.0, each its coefficient times the powers
        ``v**e`` (a first power is the coordinate itself)."""
        parts = ["0.0"]
        for expo, coeff in sorted(self._terms.items()):
            factors = [repr(float(coeff))]
            for name, e in zip(VARS, expo):
                if e:
                    factors.append(name if e == 1 else f"{name}**{e}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def compile(self) -> Callable[[float, float, float, float], float]:
        """Float evaluator f(x, y, z, w), generated from float_source().

        A power past the float range raises OverflowError."""
        return kernel(
            function_source("evaluate(x, y, z, w)", [f"return {self.float_source()}"]),
            "evaluate",
        )

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        """Encode as ``[[coeff, [ex, ey, ez, ew]], ...]`` with integer
        coefficients as JSON numbers and non-integers as "p/q" strings.
        Entries are sorted by exponent so the encoding is canonical."""
        out = []
        for expo, coeff in sorted(self._terms.items()):
            enc = int(coeff) if coeff.denominator == 1 else f"{coeff.numerator}/{coeff.denominator}"
            out.append([enc, list(expo)])
        return out

    @classmethod
    def from_json(cls, data: list) -> "SparsePoly":
        """Decode :meth:`to_json`'s encoding.  Coefficients may be integers,
        decimal floats or "p/q" strings; exponents must be integral (``1.0``
        reads as 1).  A malformed term raises ValueError naming it."""
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"expected a list of [coefficient, [ex, ey, ez, ew]] terms, "
                             f"got {data!r}")
        terms: dict[Exponent, Fraction] = {}
        for entry in data:
            key, coeff = _json_term(entry)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(terms)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparsePoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == SparsePoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for expo, coeff in sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0])):
            factors = []
            for name, e in zip(VARS, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts).replace("+ -", "- ")
        return text


def _json_term(entry) -> tuple[Exponent, Fraction]:
    """One ``[coeff, [ex, ey, ez, ew]]`` entry of :meth:`SparsePoly.from_json`.

    Booleans are not numbers here, though Python counts them as ints."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and isinstance(entry[1], (list, tuple)) and len(entry[1]) == 4):
        raise ValueError(f"bad term {entry!r}: expected [coefficient, [ex, ey, ez, ew]]")
    coeff_raw, expo = entry
    for e in expo:
        integral = isinstance(e, int) or (isinstance(e, float) and e.is_integer())
        if isinstance(e, bool) or not integral or e < 0:
            raise ValueError(f"bad term {entry!r}: exponent {e!r} is not a non-negative integer")
    if isinstance(coeff_raw, bool) or not isinstance(coeff_raw, (int, float, str)):
        raise ValueError(f"bad term {entry!r}: coefficient {coeff_raw!r} is not a number "
                         f"or a \"p/q\" string")
    try:
        coeff = _as_fraction(coeff_raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad term {entry!r}: coefficient {coeff_raw!r} is not a finite "
                         f"rational") from exc
    return tuple(int(e) for e in expo), coeff  # type: ignore[return-value]


def _raw(terms: dict[Exponent, Fraction]) -> SparsePoly:
    """Build from an already-canonical term dict without re-validation."""
    poly = SparsePoly.__new__(SparsePoly)
    poly._terms = terms
    poly._hash = None
    poly._ints = None
    return poly


def _coerce(value: "SparsePoly | Scalar") -> SparsePoly:
    if isinstance(value, SparsePoly):
        return value
    return SparsePoly.const(value)


X = SparsePoly.var("x")
Y = SparsePoly.var("y")
Z = SparsePoly.var("z")
W = SparsePoly.var("w")
ZERO = SparsePoly.zero()
ONE = SparsePoly.const(1)


@dataclass(frozen=True)
class Point4:
    """A point of the chart, with float or exact rational coordinates.

    Exact evaluation (``as_fractions``, ``powers``, ``eval_exact``, the growth
    vector) reads a float coordinate at the decimal value of its repr, as
    ``SparsePoly`` reads float coefficients; ``SparsePoly.eval`` uses float
    arithmetic unless every coordinate is an int or a Fraction.
    """

    x: Scalar
    y: Scalar
    z: Scalar
    w: Scalar

    def __post_init__(self) -> None:
        for c in self.as_tuple():
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError(f"non-finite coordinate {c!r}")

    def as_tuple(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.x, self.y, self.z, self.w)

    def as_floats(self) -> tuple[float, float, float, float]:
        return (float(self.x), float(self.y), float(self.z), float(self.w))

    def as_fractions(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The exact coordinates, a float at the decimal value of its repr
        (0.1 is 1/10)."""
        return tuple(_as_fraction(c) for c in self.as_tuple())  # type: ignore[return-value]

    def powers(self) -> tuple[list[int], ...]:
        """The exact coordinates as integer numerators P over their least common
        denominator D: rows [1, P_x], [1, P_y], [1, P_z], [1, P_w], [1, D] of
        powers, grown by ``SparsePoly.eval_integer`` for every polynomial."""
        ratios = [c.as_integer_ratio() for c in self.as_fractions()]
        den = math.lcm(*[d for _, d in ratios])
        return (*[[1, n * (den // d)] for n, d in ratios], [1, den])

    @property
    def is_rational(self) -> bool:
        """Whether every coordinate is an int or a Fraction, so that
        ``SparsePoly.eval`` takes the exact route."""
        return all(isinstance(c, (int, Fraction)) for c in self.as_tuple())

    @classmethod
    def origin(cls) -> "Point4":
        return cls(0, 0, 0, 0)


def random_poly(
    rng,
    max_degree: int = 3,
    max_terms: int = 6,
    coeff_range: tuple[int, int] = (-4, 4),
    max_denominator: int = 3,
) -> SparsePoly:
    """Random low-degree polynomial with small rational coefficients.

    Uses a numpy Generator so sampling is reproducible from a seed.
    """
    n_terms = int(rng.integers(0, max_terms + 1))
    terms: dict[Exponent, Fraction] = {}
    for _ in range(n_terms):
        while True:
            expo = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=4))
            if sum(expo) <= max_degree:
                break
        num = int(rng.integers(coeff_range[0], coeff_range[1] + 1))
        den = int(rng.integers(1, max_denominator + 1))
        if num == 0:
            continue
        terms[expo] = terms.get(expo, Fraction(0)) + Fraction(num, den)  # type: ignore[index]
    return SparsePoly(terms)

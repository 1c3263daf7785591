"""Exact sparse polynomial arithmetic in the coordinates (x, y, z, w).

A polynomial is a map from exponent 4-tuples to rational coefficients, held
as one positive integer denominator and an int numerator per term:

    z**2*w + 3/2  ->  den 2, {(0, 0, 2, 1): 2, (0, 0, 0, 0): 3}

The form is canonical: the denominator and the numerators have gcd 1, no
numerator is zero, and the zero polynomial is the empty map over 1.  Sums,
products and derivatives run on ints and normalise once, by one gcd; two
polynomials are equal iff their forms are identical.  ``terms`` gives the
coefficients as Fractions.  Instances are immutable and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from .codegen import function_source, kernel

VARS = ("x", "y", "z", "w")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, int, int, int]
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

    __slots__ = ("_den", "_nums", "_hash", "_degrees")

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
        # over the lcm of reduced denominators the numerators share no factor with it
        self._den = math.lcm(*(c.denominator for c in clean.values()))
        self._nums = {e: c.numerator * (self._den // c.denominator) for e, c in clean.items()}
        self._hash: int | None = None
        self._degrees: tuple[int, ...] | None = None

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

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The term map with Fraction coefficients, built on each call
        (canonical: no zero coefficients)."""
        return {e: Fraction(n, self._den) for e, n in self._nums.items()}

    def is_zero(self) -> bool:
        return not self._nums

    def degree_in(self, name: str) -> int:
        """Degree in a single variable; -1 for the zero polynomial."""
        if not self._nums:
            return -1
        i = _VAR_INDEX[name]
        return max(e[i] for e in self._nums)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "SparsePoly | Scalar") -> "SparsePoly":
        other = _coerce(other)
        den = math.lcm(self._den, other._den)
        ka, kb = den // self._den, den // other._den
        out = {e: n * ka for e, n in self._nums.items()}
        for e, n in other._nums.items():
            out[e] = out.get(e, 0) + n * kb
        return _canonical(den, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return _canonical(self._den, {e: -n for e, n in self._nums.items()})

    def __sub__(self, other: "SparsePoly | Scalar") -> "SparsePoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "SparsePoly":
        return _coerce(other) - self

    def __mul__(self, other: "SparsePoly | Scalar") -> "SparsePoly":
        other = _coerce(other)
        out: dict[Exponent, int] = {}
        get = out.get
        for (a0, a1, a2, a3), na in self._nums.items():
            for (b0, b1, b2, b3), nb in other._nums.items():
                expo = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                out[expo] = get(expo, 0) + na * nb
        return _canonical(self._den * other._den, out)

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
        out: dict[Exponent, int] = {}
        for expo, n in self._nums.items():
            if expo[i]:
                out[expo[:i] + (expo[i] - 1,) + expo[i + 1:]] = n * expo[i]
        return _canonical(self._den, out)

    # -- evaluation -------------------------------------------------------

    def eval_exact(self, point: "Point4") -> Fraction:
        """Exact value at ``point.as_fractions()``: N / S of ``eval_integer``."""
        return Fraction(*self.eval_integer(point.powers()))

    def eval_integer(self, powers: tuple[tuple[dict, ...], dict]) -> tuple[int, int]:
        """(N, S) with S > 0 and N / S the value at the point of
        ``Point4.powers``, from its rows for the polynomial's degrees (m_x,
        m_y, m_z, m_w), which it adds if they are missing: S is the
        denominator times d^m per coordinate p/d, and each term adds its
        numerator times p^e d^(m-e) per coordinate."""
        nums, (coords, by_degrees) = self._nums, powers
        if self._degrees is None:
            self._degrees = tuple(map(max, zip(*nums))) if nums else (0, 0, 0, 0)
        rows = by_degrees.get(self._degrees)
        if rows is None:
            rows = by_degrees[self._degrees] = tuple(map(_row, coords, self._degrees))
        rx, ry, rz, rw = rows
        total = 0
        for (ex, ey, ez, ew), n in nums.items():
            total += n * rx[ex] * ry[ey] * rz[ez] * rw[ew]
        return total, self._den * rx[0] * ry[0] * rz[0] * rw[0]

    def float_source(self) -> str:
        """Python expression of the float value at (x, y, z, w): the terms in
        exponent order summed onto 0.0, each its coefficient (n / den, the
        correctly rounded float of the Fraction) times the powers ``v**e`` (a
        first power is the coordinate itself)."""
        parts = ["0.0"]
        for expo, n in sorted(self._nums.items()):
            factors = [repr(n / self._den)]
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
        return [[coeff, list(expo)] for expo, coeff in self._coefficients()]

    def _coefficients(self) -> list[tuple[Exponent, int | str]]:
        """Each term's exponent and coefficient in lowest terms, an int or a
        "p/q" string, in exponent order."""
        out = []
        for expo, n in sorted(self._nums.items()):
            g = math.gcd(n, self._den)
            out.append((expo, n // g if g == self._den else f"{n // g}/{self._den // g}"))
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
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        if isinstance(other, SparsePoly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._nums.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for expo, coeff in sorted(self._coefficients(), key=lambda t: (sum(t[0]), t[0])):
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


def _canonical(den: int, nums: dict[Exponent, int]) -> SparsePoly:
    """Build from a positive denominator and int numerators: zero numerators
    are dropped and one gcd of den and the numerators divided out."""
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    g = math.gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        den //= g
        nums = {e: n // g for e, n in nums.items()}
    poly = SparsePoly.__new__(SparsePoly)
    poly._den, poly._nums, poly._hash, poly._degrees = den, nums, None, None
    return poly


def _coerce(value: "SparsePoly | Scalar") -> SparsePoly:
    if isinstance(value, SparsePoly):
        return value
    return SparsePoly.const(value)


def _row(rows: dict[int, list[int]], m: int) -> list[int]:
    """Row m of one coordinate's table in ``Point4.powers``, built from row m - 1."""
    row = rows.get(m)
    if row is None:
        (d, p), prev = rows[1], _row(rows, m - 1)
        row = rows[m] = [r * d for r in prev] + [prev[-1] * p]
    return row


@dataclass(frozen=True)
class Point4:
    """A point of the chart, with float or exact rational coordinates.

    Exact evaluation (``as_fractions``, ``powers``, ``eval_exact``, the growth
    vector) reads a float coordinate at the decimal value of its repr, as
    ``SparsePoly`` reads float coefficients.
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

    def powers(self) -> tuple[tuple[dict[int, list[int]], ...], dict]:
        """The exact coordinates, each an integer numerator p over its own
        denominator d, as one table per point: per coordinate, degree m -> the
        row [p^e d^(m-e) for e = 0..m]; and degrees (m_x, m_y, m_z, m_w) -> the
        four rows.  Built on the first call and kept, so every polynomial
        evaluated at the point shares it; ``SparsePoly.eval_integer`` adds the
        rows it reads."""
        if "_powers" not in self.__dict__:
            ratios = (c.as_integer_ratio() for c in self.as_fractions())
            coords = tuple({0: [1], 1: [d, p]} for p, d in ratios)
            object.__setattr__(self, "_powers", (coords, {}))
        return self.__dict__["_powers"]

    @classmethod
    def origin(cls) -> "Point4":
        return cls(0, 0, 0, 0)


def random_poly(rng, max_degree: int = 3, max_terms: int = 6) -> SparsePoly:
    """Random low-degree polynomial with rational coefficients p/q,
    |p| <= 4 and 1 <= q <= 3.

    Uses a numpy Generator so sampling is reproducible from a seed.
    """
    n_terms = int(rng.integers(0, max_terms + 1))
    terms: dict[Exponent, Fraction] = {}
    for _ in range(n_terms):
        while True:
            expo = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=4))
            if sum(expo) <= max_degree:
                break
        num = int(rng.integers(-4, 5))
        den = int(rng.integers(1, 4))
        if num == 0:
            continue
        terms[expo] = terms.get(expo, Fraction(0)) + Fraction(num, den)  # type: ignore[index]
    return SparsePoly(terms)

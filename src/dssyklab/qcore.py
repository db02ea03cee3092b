"""Exact arithmetic foundation: sparse polynomials in (q, qt, theta) over the
rationals, and the q-deformed integers / factorials / binomials built on them.

Coefficients are exact: integral coefficients are stored as ``int``, others
as ``fractions.Fraction``, so the integer arithmetic that carries almost all
of the work never builds a Fraction.  Nothing in this module ever touches
floating point except the explicit ``evaluate`` helpers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

# exponent triple: (power of q, power of qt, power of theta)
Exponent = tuple[int, int, int]
Coefficient = int | Fraction


def _canonical(value) -> Coefficient:
    """An exact coefficient as an int when integral, else as a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(value).__name__}")


def _wrap(sums: dict[Exponent, Coefficient]) -> "MultiPoly":
    """A MultiPoly from accumulated sums: zeros dropped, coefficients canonical."""
    result = MultiPoly.__new__(MultiPoly)
    result._terms = {exp: c if type(c) is int else _canonical(c)
                     for exp, c in sums.items() if c}
    return result


class MultiPoly:
    """Multivariate polynomial in the formal variables q, qt and theta.

    Terms are stored sparsely as a map from exponent triples to nonzero
    coefficients; integral coefficients are stored as int, others as
    Fraction, so equal polynomials have identical term maps.  Instances are
    immutable after construction: every operation returns a new polynomial,
    so values can be shared freely (including across threads and caches).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, Coefficient] | None = None):
        clean: dict[Exponent, Coefficient] = {}
        if terms:
            for exp, coeff in terms.items():
                qp, qtp, tp = exp
                if qp < 0 or qtp < 0 or tp < 0:
                    raise ValueError(f"negative exponent in term {exp}")
                c = _canonical(coeff)
                if c:
                    clean[(int(qp), int(qtp), int(tp))] = c
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        return cls({(0, 0, 0): value})

    @classmethod
    def monomial(cls, q_pow=0, qt_pow=0, theta_pow=0, coeff=1) -> "MultiPoly":
        return cls({(q_pow, qt_pow, theta_pow): coeff})

    @classmethod
    def q(cls) -> "MultiPoly":
        return cls.monomial(q_pow=1)

    @classmethod
    def qt(cls) -> "MultiPoly":
        return cls.monomial(qt_pow=1)

    @classmethod
    def theta(cls) -> "MultiPoly":
        return cls.monomial(theta_pow=1)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Coefficient]:
        """Copy of the term map (canonical content, not canonical order)."""
        return dict(self._terms)

    def items(self) -> Iterable[tuple[Exponent, Coefficient]]:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(exp == (0, 0, 0) for exp in self._terms)

    def constant_value(self) -> Coefficient:
        """The coefficient of the constant term (polynomial need not be constant)."""
        return self._terms.get((0, 0, 0), 0)

    def coefficient(self, q_pow=0, qt_pow=0, theta_pow=0) -> Coefficient:
        return self._terms.get((q_pow, qt_pow, theta_pow), 0)

    def degree(self, variable: str) -> int:
        """Largest exponent of ``variable`` ('q', 'qt' or 'theta'); -1 if zero poly."""
        idx = {"q": 0, "qt": 1, "theta": 2}[variable]
        if not self._terms:
            return -1
        return max(exp[idx] for exp in self._terms)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self._terms)
        get = out.get
        for exp, coeff in other._terms.items():
            new = get(exp, 0) + coeff
            if type(new) is not int:
                new = _canonical(new)
            if new:
                out[exp] = new
            else:  # coefficients are nonzero, so a zero sum had a left term
                del out[exp]
        result = MultiPoly.__new__(MultiPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        result = MultiPoly.__new__(MultiPoly)
        result._terms = {exp: -c for exp, c in self._terms.items()}
        return result

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        left, right = self._terms, self._coerce(other)._terms
        if len(left) < len(right):
            left, right = right, left
        if len(right) == 1:  # a scalar or a monomial: shift and scale, nothing collides
            ((a2, b2, c2), y), = right.items()
            return _wrap({(a1 + a2, b1 + b2, c1 + c2): x * y
                          for (a1, b1, c1), x in left.items()})
        out: dict[Exponent, Coefficient] = {}
        get = out.get
        right = list(right.items())
        for (a1, b1, c1), x in left.items():
            for (a2, b2, c2), y in right:
                exp = (a1 + a2, b1 + b2, c1 + c2)
                out[exp] = get(exp, 0) + x * y
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its Fraction (and int), so it must hash like one
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self._terms.items()))

    # -- specialization and evaluation ----------------------------------

    def substitute(self, q=None, qt=None, theta=None) -> "MultiPoly":
        """Exactly substitute rational values for any subset of the variables.

        Every term is scaled to one integer common denominator: the lcm of
        the coefficients' denominators times each substituted value's
        denominator to the largest power of its variable.  A term then
        becomes an integer times integer powers read from a table, the
        terms of one output exponent sum as integers, and each sum is
        divided once.  Output terms keep the order in which their exponents
        first appear.
        """
        terms = self._terms
        scale = math.lcm(*(c.denominator for c in terms.values() if type(c) is not int))
        den = scale
        powers = []  # powers[i][e] = num^e vden^(top - e) for variable i's value num/vden
        for i, value in enumerate((q, qt, theta)):
            if value is None:
                powers.append(None)
                continue
            value = _canonical(value)
            num, vden = value.numerator, value.denominator
            top = max((exp[i] for exp in terms), default=0)
            powers.append([num ** e * vden ** (top - e) for e in range(top + 1)])
            den *= vden ** top
        pq, pqt, ptheta = powers
        out: dict[Exponent, int] = {}
        get = out.get
        for (a, b, c), factor in terms.items():
            if type(factor) is int:
                factor *= scale
            else:
                factor = factor.numerator * (scale // factor.denominator)
            if pq is not None:
                factor *= pq[a]
                a = 0
            if pqt is not None:
                factor *= pqt[b]
                b = 0
            if ptheta is not None:
                factor *= ptheta[c]
                c = 0
            exp = (a, b, c)
            out[exp] = get(exp, 0) + factor
        if den == 1:
            return _wrap(out)
        return _wrap({exp: Fraction(total, den) for exp, total in out.items()})

    def evaluate(self, q=None, qt=None, theta=None) -> float:
        """Numeric evaluation (floats); use substitute() for the exact path.

        Every variable the polynomial contains must be given a value.
        """
        values = {"q": q, "qt": qt, "theta": theta}
        missing = [name for name, value in values.items()
                   if value is None and self.degree(name) > 0]
        if missing:
            raise ValueError(f"evaluate needs a value for {', '.join(missing)}")
        q, qt, theta = (0.0 if value is None else value for value in values.values())
        return float(sum(float(c) * q**a * qt**b * theta**c2
                         for (a, b, c2), c in self._terms.items()))

    def evaluate_exact(self, q, qt, theta) -> Fraction:
        q, qt, theta = _canonical(q), _canonical(qt), _canonical(theta)
        return sum((c * q**a * qt**b * theta**c2
                    for (a, b, c2), c in self._terms.items()), Fraction(0))

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form: term records sorted by exponent triple."""
        return [
            {"q": a, "qt": b, "theta": c, "num": str(v.numerator), "den": str(v.denominator)}
            for (a, b, c), v in self.items()
        ]

    @classmethod
    def from_json_obj(cls, records: list[dict]) -> "MultiPoly":
        terms = {}
        for rec in records:
            exp = (int(rec["q"]), int(rec["qt"]), int(rec["theta"]))
            terms[exp] = Fraction(int(rec["num"]), int(rec["den"]))
        return cls(terms)

    def __repr__(self):
        return f"MultiPoly({self!s})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (a, b, c), coeff in self.items():
            factors = []
            if coeff != 1 or (a, b, c) == (0, 0, 0):
                factors.append(str(coeff))
            for sym, p in (("q", a), ("qt", b), ("theta", c)):
                if p == 1:
                    factors.append(sym)
                elif p > 1:
                    factors.append(f"{sym}^{p}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class HermiteExpansion:
    """A finite expansion in the monic q-Hermite basis H_0, H_1, ...

    coeffs[d] is the MultiPoly coefficient of H_d; trailing zero
    coefficients are trimmed on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[MultiPoly]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> MultiPoly:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return MultiPoly.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermiteExpansion):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        body = " + ".join(f"({c})*H{d}" for d, c in enumerate(self.coeffs) if not c.is_zero())
        return f"HermiteExpansion[{body or '0'}]"


# ---------------------------------------------------------------------------
# packed polynomials in q (Kronecker substitution)
# ---------------------------------------------------------------------------

# format codes of the machine words that digits of 8, 16, 32 and 64 bits fill
_WORD_CODES = {8 * memoryview(bytes(8)).cast(code).itemsize: code for code in "BHIQ"}


def pack(poly: MultiPoly, width: int, qt_pow: int = 0) -> int:
    """A polynomial in q with nonnegative int coefficients, read at q = 2^width.

    Each coefficient becomes one width-bit digit, so one integer product of
    two packed polynomials is their polynomial product (Kronecker
    substitution; Harvey, J. Symbolic Comput. 44 (2009)), exact as long
    as no coefficient of the product reaches 2^width: callers bound the
    coefficients first.  Every term must carry qt^qt_pow, which is dropped,
    and no theta; a term with another qt or theta power, a negative or
    non-integral coefficient, or one of width bits or more, is a ValueError.
    Linear in the size of the result: digits of a machine word's width are
    written as words into one buffer, others as one binary string.
    """
    terms = poly._terms
    top = max(terms)[0] + 1 if terms else 0
    code = _WORD_CODES.get(width)
    if code is not None:
        raw = bytearray(top * (width // 8))
        digits = memoryview(raw).cast(code)
    else:
        digits = [0] * top
    for (a, b, c), coeff in terms.items():
        if b != qt_pow or c:
            raise ValueError(f"cannot pack q^{a} qt^{b} theta^{c}: only qt^{qt_pow} "
                             f"times powers of q pack")
        if type(coeff) is not int or coeff < 0 or coeff >> width:
            raise ValueError(f"cannot pack the coefficient {coeff} of q^{a} "
                             f"into a {width}-bit digit")
        digits[a] = coeff
    if code is not None:
        return int.from_bytes(raw, sys.byteorder)
    return int("".join(format(d, f"0{width}b") for d in reversed(digits)) or "0", 2)


def unpack(value: int, width: int, block: int = 0) -> MultiPoly:
    """The polynomial whose coefficients are the width-bit digits of value.

    Digit i is the coefficient of q^i; given a block of q digits, it is
    that of q^(i mod block) qt^(i div block), the layout of a value packed
    at q = 2^width and qt = 2^(block width).  Terms come in ascending order
    of their digits.  Linear in the size of value: digits of a machine
    word's width are read as words from `int.to_bytes`, others from the
    binary string.
    """
    code = _WORD_CODES.get(width)
    if code is not None:
        raw = value.to_bytes(-(-value.bit_length() // width) * (width // 8), sys.byteorder)
        digits = memoryview(raw).cast(code).tolist()
    else:
        bits = format(value, "b")
        digits = [int(bits[max(0, end - width):end], 2) for end in range(len(bits), 0, -width)]
    terms = {}
    for i, digit in enumerate(digits):
        if digit:
            terms[(i % block, i // block, 0) if block else (i, 0, 0)] = digit
    result = MultiPoly.__new__(MultiPoly)
    result._terms = terms
    return result


def word_width(largest: int) -> int:
    """The narrowest digit width that holds every int up to `largest` and
    that the codec reads as machine words: 8, 16, 32 or 64 bits, else the
    bit length of `largest`."""
    bits = largest.bit_length()
    return next((width for width in _WORD_CODES if width >= bits), bits)


def involution_number(n: int) -> int:
    """T(n), the number of partial matchings of n points:
    T(n) = T(n-1) + (n-1) T(n-2), T(0) = T(1) = 1.

    At q = qt = theta = 1 the coefficients that the exact lab packs count
    partial matchings, or pairs of a word and a matching (Ismail, Stanton
    and Viennot, Europ. J. Combin. 8 (1987)), so bounds built from T size
    the digits of its packed polynomials (`word_width`).
    """
    prev, cur = 1, 1  # T(0), T(1)
    for j in range(1, n):
        prev, cur = cur, cur + j * prev
    return cur


# ---------------------------------------------------------------------------
# q-deformed integers, factorials, binomials
# ---------------------------------------------------------------------------

def q_integer(n: int) -> MultiPoly:
    """[n]_q = 1 + q + ... + q^(n-1); the empty sum for n = 0."""
    if n < 0:
        raise ValueError("q_integer requires n >= 0")
    return MultiPoly({(k, 0, 0): 1 for k in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> MultiPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    out = MultiPoly.one()
    for k in range(1, n + 1):
        out = out * q_integer(k)
    return out


_Q_PASCAL: dict[tuple[int, int], MultiPoly] = {}


def q_binomial(n: int, k: int) -> MultiPoly:
    """Gaussian binomial [n choose k]_q via the q-Pascal recurrence.

    Addition-only: C(n,k) = C(n-1,k-1) + q^k * C(n-1,k).  Memoized entry by
    entry: the values are immutable, so every caller shares them, and each
    entry is built once.  The entries (n, k) depends on are filled row by
    row in a loop, so a large n costs no recursion depth.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"q_binomial requires 0 <= k <= n, got n={n} k={k}")
    table = _Q_PASCAL
    if (n, k) not in table:
        for m in range(n + 1):
            for j in range(max(0, k - n + m), min(m, k) + 1):
                if (m, j) in table:
                    continue
                if j in (0, m):
                    table[m, j] = MultiPoly.one()
                else:
                    qj = MultiPoly.monomial(q_pow=j)
                    table[m, j] = table[m - 1, j - 1] + qj * table[m - 1, j]
    return table[n, k]


def q_binomial_by_division(n: int, k: int) -> MultiPoly:
    """[n choose k]_q = [n]_q! / ([k]_q! [n-k]_q!), via exact expansion.

    Test-only oracle for q_binomial: it divides q-factorials by exact
    univariate long division and never calls q_binomial, so the two routes
    stay independent.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"q_binomial requires 0 <= k <= n, got n={n} k={k}")
    numerator = q_factorial(n)
    denominator = q_factorial(k) * q_factorial(n - k)
    return _exact_divide_q(numerator, denominator)


def _exact_divide_q(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact division of polynomials in q alone; raises if not divisible."""
    num_c = _q_coeff_list(num)
    den_c = _q_coeff_list(den)
    if not den_c:
        raise ZeroDivisionError("division by zero polynomial")
    quot = [0] * (len(num_c) - len(den_c) + 1) if len(num_c) >= len(den_c) else []
    rem = list(num_c)
    for i in range(len(quot) - 1, -1, -1):
        c = _canonical(Fraction(rem[i + len(den_c) - 1], den_c[-1]))
        quot[i] = c
        if c != 0:
            for j, d in enumerate(den_c):
                rem[i + j] -= c * d
    if any(r != 0 for r in rem):
        raise ValueError("polynomials do not divide exactly")
    return MultiPoly({(i, 0, 0): c for i, c in enumerate(quot) if c != 0})


def _q_coeff_list(poly: MultiPoly) -> list[Coefficient]:
    deg = poly.degree("q")
    if poly.degree("qt") > 0 or poly.degree("theta") > 0:
        raise ValueError("expected a polynomial in q only")
    out = [0] * (deg + 1)
    for (a, _, _), c in poly.terms.items():
        out[a] = c
    return out


def q_multinomial(n: int, parts: list[int]) -> MultiPoly:
    """q-multinomial [n choose parts]_q as a product of nested q-binomials."""
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts must sum to n: sum({parts}) != {n}")
    out = MultiPoly.one()
    remaining = n
    for p in parts:
        if 0 < p < remaining:  # the end binomials are 1
            out = out * q_binomial(remaining, p)
        remaining -= p
    return out

"""Exact arithmetic kernel.

Tiling counts are plain Python ints (arbitrary precision) and exact ratios
are fractions.Fraction; this module adds what the standard library lacks:
Laurent polynomials in a single variable q with integer coefficients, and
equality of ratios of such polynomials decided by cross-multiplication
instead of division. No floating point anywhere.

QPoly.__mul__ has two algorithms, chosen by the operands' term counts
alone. A product of at most MUL_CROSSOVER_PAIRS term pairs, len(a) *
len(b), or with an operand of at most 2 terms, whatever the other's
length, sums v*w into the coefficient of q^(e+f) over the pairs, the
shorter operand in the outer loop, and drops the coefficients that
cancel to zero. Other products run on CPython's big-int multiply
(Kronecker substitution): a polynomial with coefficients c_i, shifted so
its lowest exponent is 0, is packed into the single int sum c_i *
2^(k*i), k = 8*width bits per coefficient. Packed values multiply as the
polynomials do, and QPoly.from_packed reads the product back as balanced
digits in (-2^(k-1), 2^(k-1)), which is exact as long as every
coefficient lies in that range. The crossover is there because packing
and reading back cost tens of microseconds per product whatever its
size. That is several times the term-by-term loop on the monomials and
short polynomials that the identity checks mostly multiply. Over the
2,146 products of a seed-7 verify round with both operands longer than
2 terms, timed one by one, the two algorithms cost the same at about 135
term pairs; the round's product time is least with the crossover at
132-138 and 0.7% more at 192, which is kept. Kronecker's cost follows
the longer operand's exponent span and the loop's the pair count, so a
monomial or binomial times a long polynomial goes term by term at any
length: a binomial
times 160 dense terms took 56 us that way and 123 us packed (Python
3.11, one core of a 2-vCPU machine).

digit_width(bound) picks the least whole-byte k with bound < 2^(k-1).
Only the digits that are read back, and the operands _pack writes, need
the bound; QPoly.packed evaluates P(2^k) as the sum of its terms shifted,
so the coefficients it packs may be any size. The bounds:

- QPoly.__mul__, Kronecker branch only: a product coefficient sums at
  most min(len a, len b) terms, each at most max|a| * max|b| in
  magnitude.
- engines.qcount_axis: the result's coefficients are nonnegative and sum
  to count_axis(spec). Its weights, products of binomials q^d - 1, enter
  the determinant as QPoly.packed values whatever their coefficients.
- engines.qcount_brute: the same rule, with the count of the oracle's
  own counting pass. The DP only shifts and adds exact ints, so its
  partial values may carry across digits; only the final value is read
  back.

Both q-engines then require the digits they read back to sum to the
count, and raise ExactnessError when they do not.

QPoly.from_packed turns a packed value into bytes with one to_bytes
call and reads the digits back from them. Digits of up to 8 bytes are
read in C: width strided slice copies move byte j of every digit to byte
j of an 8-byte word, and one struct.unpack reads all the words. Wider
digits are read one int.from_bytes call per digit. The width alone picks
the path. Every workload of perfbench reads digits of 1 to 6 bytes, and
so does the q-oracle on the demo region (6 bytes); it reads wider ones
on larger regions (10 bytes on hex(8,8)). The 6,013 read-backs of a seed-7 verify round
took 0.08-0.10 s in C against 0.14-0.16 s digit by digit (Python 3.11,
one core of a 2-vCPU machine).

_pack writes the Kronecker operands one to_bytes call per digit. A
writer in C that mirrors from_packed, one struct.pack of 8-byte words
and width strided copies, needs a separate range check, since a
strided copy truncates a digit silently. On the 2,762 operands packed
in a seed-7 verify round (41 digits on average, 1 to 6 bytes wide) it
took 8.3 us per operand against 6.6 us digit by digit (Python 3.11, one
core of a 2-vCPU machine), and it gains only from about 100 digits on,
so the writer stays per digit.

A packed operand holds one digit per exponent from its lowest to its
highest, so the Kronecker branch costs time and memory in proportion to
each operand's exponent span, not its term count. The term-by-term
branch does not: (1 + q^100000) * (1 + q) is 4 term pairs and takes
microseconds. A sparse product above the crossover still pays for its
span.

Errors: ExactnessError when an exact result breaks an invariant that
holds by construction, and the builtin ZeroDivisionError when a QRatio
has a zero denominator or one that vanishes to higher order at q = 1
than its numerator.
"""

from __future__ import annotations

import struct
from collections import Counter
from itertools import accumulate
from operator import sub
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


class ExactnessError(ArithmeticError):
    """An exact result broke an invariant it must satisfy by construction,
    such as a remainder left by one_minus_q_quotient.

    Raised instead of a bare assert so the check still runs under
    ``python -O``.
    """


# Products of at most this many term pairs, len(a) * len(b), or with an
# operand of at most 2 terms, are summed term by term; larger ones go
# through Kronecker substitution.
MUL_CROSSOVER_PAIRS = 192


class QPoly:
    """Laurent polynomial in q with exact integer coefficients.

    Stored as a map exponent -> coefficient with zero coefficients absent.
    Exponents may be negative. Instances are immutable; all operators
    return new values, so sharing across workers is safe.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    c[int(e)] = c.get(int(e), 0) + int(v)
                    if not c[int(e)]:
                        del c[int(e)]
        self._c = c

    @classmethod
    def _raw(cls, c: dict[int, int]) -> "QPoly":
        p = object.__new__(cls)
        p._c = c
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "QPoly":
        return cls._raw({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "QPoly":
        return cls._raw({exponent: coeff} if coeff else {})

    @classmethod
    def from_packed(cls, n: int, width: int, low: int) -> "QPoly":
        """q^low * P, where P is the polynomial with P(2^k) = n, k = 8*width.

        Reads n as balanced digits c_i in (-2^(k-1), 2^(k-1)), lowest first,
        as the coefficients of P: exact whenever every coefficient of P lies
        in that range.
        """
        k = 8 * width
        count = n.bit_length() // k + 1
        buf = (n + _offset(count, width)).to_bytes(count * width, "little")
        if width <= 8:
            # byte j of digit i becomes byte j of 8-byte word i, and one
            # unpack reads every word in C
            words = bytearray(8 * count)
            for j in range(width):
                words[j::8] = buf[j::width]
            digits = struct.unpack(f"<{count}Q", words)
        else:
            digits = [int.from_bytes(buf[i:i + width], "little")
                      for i in range(0, count * width, width)]
        h = 1 << (k - 1)
        return cls._raw({e: v - h for e, v in enumerate(digits, low) if v != h})

    def packed(self, width: int) -> int:
        """P(2^k), k = 8*width, for a polynomial P with no negative exponent:
        the sum of c * 2^(k*e) over its terms, whatever their size."""
        c = self._c
        if c and min(c) < 0:
            raise ValueError("packed() needs a polynomial without negative "
                             "exponents")
        k = 8 * width
        return sum(v << k * e for e, v in c.items())

    def items(self):
        return self._c.items()

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPoly.monomial(0, other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant hashes as the int it equals; zero as 0
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "QPoly":
        return QPoly._raw({e: -v for e, v in self._c.items()})

    def __add__(self, other) -> "QPoly":
        if isinstance(other, int):
            other = QPoly.monomial(0, other)
        if not isinstance(other, QPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        return QPoly._raw(c)

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        if not isinstance(other, (int, QPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, int):
            if not other:
                return QPoly.zero()
            return QPoly._raw({e: v * other for e, v in self._c.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return QPoly.zero()
        la, lb = len(a), len(b)
        if la <= 2 or lb <= 2 or la * lb <= MUL_CROSSOVER_PAIRS:
            if la > lb:  # the inner loop over the longer operand
                a, b = b, a
            c: dict[int, int] = {}
            get = c.get
            bi = b.items()
            for e, v in a.items():
                for f, w in bi:
                    c[e + f] = get(e + f, 0) + v * w
            return QPoly._raw({e: v for e, v in c.items() if v})
        # no product coefficient exceeds bound in magnitude
        bound = (min(la, lb) * max(map(abs, a.values()))
                 * max(map(abs, b.values())))
        width = digit_width(bound)
        alow, blow = min(a), min(b)
        n = _pack(a, alow, max(a), width) * _pack(b, blow, max(b), width)
        return QPoly.from_packed(n, width, alow + blow)

    __rmul__ = __mul__

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    def eval_one(self) -> int:
        """Value at q=1, i.e. the sum of coefficients."""
        return sum(self._c.values())

    def invert_variable(self) -> "QPoly":
        """Substitute q -> 1/q (an involution on Laurent polynomials)."""
        return QPoly._raw({-e: v for e, v in self._c.items()})

    def shifted(self, k: int) -> "QPoly":
        """Multiply by the monomial q^k."""
        return QPoly._raw({e + k: v for e, v in self._c.items()})

    def render(self) -> str:
        """Canonical text form: exponent-ascending "c*q^e" terms.

        The constant term is printed bare, e.g. "1*q^-1 + 2 + 1*q^2".
        """
        if not self._c:
            return "0"
        c = self._c
        return " + ".join([str(c[e]) if e == 0 else f"{c[e]}*q^{e}"
                           for e in sorted(c)])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QPoly({self.render()!r})"


def digit_width(bound: int) -> int:
    """Bytes per packed coefficient when every coefficient has magnitude at
    most bound: the least k = 8*width with bound < 2^(k-1)."""
    return bound.bit_length() // 8 + 1


def _offset(count: int, width: int) -> int:
    """sum of 2^(k-1) * 2^(k*i) over i < count, k = 8*width."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(c: Mapping[int, int], low: int, high: int, width: int) -> int:
    """sum of c[low+i] * 2^(k*i) over low <= low+i <= high, k = 8*width,
    for coefficients of magnitude below 2^(k-1).

    Each coefficient is offset by 2^(k-1) into one nonnegative k-bit digit,
    and the offsets are subtracted from the packed int in one step. A
    coefficient outside its digit raises ExactnessError: the caller's bound
    was wrong.
    """
    h = 1 << (8 * width - 1)
    get = c.get
    try:
        digits = b"".join([(get(e, 0) + h).to_bytes(width, "little")
                           for e in range(low, high + 1)])
    except OverflowError:  # a digit below 0 or of 2^k or more
        raise ExactnessError("a packed coefficient does not fit its "
                             "digit") from None
    return int.from_bytes(digits, "little") - _offset(high - low + 1, width)


def one_minus_q_quotient(num_exps: Iterable[int], den_exps: Iterable[int]) -> QPoly:
    """prod(1 - q^a) / prod(1 - q^b), which must come out a polynomial.

    Common exponents cancel as a multiset first; the remaining product is
    built densely, each factor 1 - q^a one slice assignment. Each
    denominator factor 1 - q^b is removed by r[k] = p[k] + r[k-b], a
    prefix sum along each residue class k = c (mod b), which
    itertools.accumulate computes in C; it is exact iff the top b
    coefficients vanish. Both closed-form q-counts, formulas.pp_q and
    formulas.clp_q_dents, are one call each, so it avoids general
    polynomial division. Every caller divides by a theorem, so a remainder
    is a broken invariant: ExactnessError.
    """
    cn = Counter(map(int, num_exps))
    cd = Counter(map(int, den_exps))
    if min((*cn, *cd), default=1) <= 0:
        raise ValueError("factor exponents must be positive")
    common = cn & cd
    cn -= common
    cd -= common
    poly = [1]
    for a in cn.elements():
        nxt = poly + [0] * a
        nxt[a:] = map(sub, nxt[a:], poly)
        poly = nxt
    for b in cd.elements():
        n = len(poly)
        if b >= n:  # poly has degree n - 1 and constant term 1
            raise ExactnessError("denominator factor exceeds degree")
        for c in range(b):  # r[k] = p[k] + r[k-b]: a prefix sum mod b
            poly[c::b] = accumulate(poly[c::b])
        if any(poly[n - b:]):
            raise ExactnessError("denominator factor does not divide")
        del poly[n - b:]
    return QPoly._raw({e: v for e, v in enumerate(poly) if v})


@dataclass(frozen=True, eq=False)
class QRatio:
    """A ratio of Laurent polynomials, compared by cross-multiplication.

    Unhashable: equal ratios such as 2q/2 and q/1 have no cheap common
    form to hash.
    """

    num: QPoly
    den: QPoly

    def __post_init__(self):
        if not self.den:
            raise ZeroDivisionError("QRatio denominator is zero")

    @classmethod
    def from_int(cls, n: int) -> "QRatio":
        return cls(QPoly.monomial(0, n), QPoly.one())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QRatio.from_int(other)
        if not isinstance(other, QRatio):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def limit_at_one(self) -> Fraction:
        """Exact value of num/den as q -> 1, by l'Hopital's rule.

        The j-th derivative of sum c_e q^e at q = 1 is
        sum c_e e(e-1)...(e-j+1), negative e included, so step j multiplies
        each coefficient by e - j + 1 and sums. The first j at which either
        side's sum is nonzero gives the limit, their quotient; a nonzero
        Laurent denominator vanishes to finite order at q = 1, so the loop
        ends. No polynomial is divided.
        """
        num, den = self.num._c, self.den._c
        j = 0
        while not (sum(num.values()) or sum(den.values())):
            num = {e: v * (e - j) for e, v in num.items()}
            den = {e: v * (e - j) for e, v in den.items()}
            j += 1
        d = sum(den.values())
        if d == 0:
            raise ZeroDivisionError("denominator vanishes to higher order at q=1")
        return Fraction(sum(num.values()), d)

    def render(self) -> str:
        if self.num == self.den:
            return "1"
        return f"({self.num.render()}) / ({self.den.render()})"

    def __str__(self) -> str:
        return self.render()


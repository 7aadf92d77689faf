import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from dentedhex import exactnum, formulas
from dentedhex.exactnum import (MUL_CROSSOVER_PAIRS, ExactnessError, QPoly,
                                QRatio, one_minus_q_quotient)

q = QPoly.monomial(1)


def test_mul_basic():
    assert (q - 1) * (q + 1) == QPoly.monomial(2) - 1
    assert (QPoly.monomial(2) + 3 * q) * QPoly.zero() == QPoly.zero()


def test_laurent_mul():
    p = QPoly.monomial(-1) + 1
    assert p * q == 1 + q
    assert QPoly.monomial(-2, 5) * QPoly.monomial(2) == 5


def schoolbook(a, b):
    c = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
    return QPoly(c)


def test_mul_matches_schoolbook():
    rng = random.Random(16)
    for _ in range(300):
        a, b = (random_qpoly(rng, max_terms=rng.choice((1, 4, 30)),
                             max_exp=20,
                             max_coeff=2 ** rng.choice((1, 7, 64, 200)))
                for _ in range(2))
        assert a * b == schoolbook(a, b)
        assert a * 0 == QPoly.zero() == QPoly.zero() * a
        n = rng.randint(-2 ** 70, 2 ** 70)
        assert a * n == n * a == schoolbook(a, QPoly.monomial(0, n))


def test_mul_stores_no_zero_coefficients():
    cases = [
        (q - 1, q + 1),
        (1 - q + QPoly.monomial(2), 1 + q),
        (sum((QPoly.monomial(i) for i in range(9)), QPoly.zero()), 1 - q),
        (2 ** 200 * q + 3 ** 90, 2 ** 200 * q - 3 ** 90),
        (QPoly.monomial(-5, 7) - q, QPoly.monomial(-5, 7) + q),
    ]
    for a, b in cases:
        p = a * b
        assert p == schoolbook(a, b)
        assert 0 not in dict(p.items()).values()
    assert (1 - q + QPoly.monomial(2)) * (1 + q) == 1 + QPoly.monomial(3)


def evaluate(p, x):
    return sum((Fraction(x) ** e * v for e, v in p.items()), Fraction(0))


def with_terms(rng, n, max_coeff):
    """A random polynomial with exactly n terms, negative exponents included."""
    exps = rng.sample(range(-60, 60), n) if n <= 120 else range(-n, 0)
    return QPoly({e: rng.choice((-1, 1)) * rng.randint(1, max_coeff)
                  for e in exps})


def assert_product(a, b):
    p = a * b
    for x in (2, 3, -1):
        assert evaluate(p, x) == evaluate(a, x) * evaluate(b, x)
    assert 0 not in dict(p.items()).values()
    return p


def test_mul_on_both_sides_of_the_crossover():
    # operands with exactly MUL_CROSSOVER_PAIRS term pairs take the
    # term-by-term branch, one pair more the Kronecker branch; each product
    # is checked by evaluation, which depends on neither algorithm
    rng = random.Random(17)
    for pairs in (MUL_CROSSOVER_PAIRS, MUL_CROSSOVER_PAIRS + 1):
        shapes = {(d, pairs // d) for d in range(1, pairs + 1)
                  if pairs % d == 0}
        for la, lb in sorted(shapes):
            for max_coeff in (1, 9, 2 ** 64, 2 ** 200):
                a = with_terms(rng, la, max_coeff)
                b = with_terms(rng, lb, max_coeff)
                assert len(a.items()) * len(b.items()) == pairs
                assert_product(a, b)
                n = rng.randint(-2 ** 200, 2 ** 200)
                assert a * n == n * a == a * QPoly.monomial(0, n)
                assert evaluate(a * n, 3) == evaluate(a, 3) * n
        # a product that cancels, with 2m term pairs, the least even count
        # >= pairs: (1 + ... + q^(m-1)) * (1 - q) = 1 - q^m, scaled by
        # 2^200 and shifted to negative exponents
        m = pairs // 2 + pairs % 2
        big = 2 ** 200
        ones = QPoly({e: big for e in range(-m, 0)})
        step = QPoly({-7: big, -6: -big})
        p = assert_product(ones, step)
        assert p == QPoly({-m - 7: big * big, -7: -big * big})
        assert assert_product(ones, -step) == -p


def test_mul_with_an_operand_of_at_most_two_terms():
    # a 1- or 2-term operand is multiplied term by term whatever the other
    # operand's length; each product is checked, in both orders, by
    # evaluation, which depends on neither algorithm
    rng = random.Random(18)
    for ls, ll in ((1, 300), (2, 160), (2, 300)):
        for max_coeff in (1, 9, 2 ** 200):
            short = with_terms(rng, ls, max_coeff)
            long = with_terms(rng, ll, max_coeff)
            assert assert_product(short, long) == assert_product(long, short)
    # cancelling: (q^-160 + ... + q^-1) * (1 - q) = q^-160 - 1, scaled
    big = 2 ** 200
    ones = QPoly({e: big for e in range(-160, 0)})
    step = QPoly({0: big, 1: -big})
    want = QPoly({-160: big * big, 0: -big * big})
    assert assert_product(ones, step) == want == assert_product(step, ones)


def _unpacked(*args):
    raise AssertionError("a sparse product packed its exponent span")


def test_sparse_product_is_four_terms(monkeypatch):
    # a 2-term operand is multiplied term by term: packing would lay out
    # 100,002 digits for these four terms
    monkeypatch.setattr(exactnum, "_pack", _unpacked)
    p = (1 + QPoly.monomial(100000)) * (1 + q)
    assert dict(p.items()) == {0: 1, 1: 1, 100000: 1, 100001: 1}


def test_mul_at_the_coefficient_bound():
    # (1+q+...+q^n)^2 has middle coefficient n+1 = min(len) * max|a| * max|b|;
    # n+1 = 127 and 255 sit on the edge of one- and two-byte digits
    for n in (0, 1, 126, 127, 254, 255):
        ones = QPoly({i: 1 for i in range(n + 1)})
        want = QPoly({m: min(m, 2 * n - m) + 1 for m in range(2 * n + 1)})
        assert ones * ones == want
        assert (-ones) * ones == -want
        big = 2 ** 200 - 1
        assert (big * ones) * (big * ones) == big * big * want
    alt = QPoly({i: (-1) ** i for i in range(128)})
    assert alt * alt == schoolbook(alt, alt)


def test_packed_evaluates_at_a_power_of_two():
    rng = random.Random(14)
    for width in (1, 2, 5):
        h = 1 << (8 * width - 1)
        for _ in range(20):
            p = QPoly({e: rng.randint(-h + 1, h - 1)
                       for e in rng.sample(range(0, 30), rng.randint(1, 8))})
            n = p.packed(width)
            assert n == sum(v << 8 * width * e for e, v in p.items())
            assert QPoly.from_packed(n, width, 0) == p
    assert QPoly.zero().packed(1) == 0
    with pytest.raises(ValueError):
        QPoly.monomial(-1).packed(1)


def test_packed_evaluates_coefficients_wider_than_the_digit():
    # the weights of qcount_axis are evaluated at 2^k whatever their size
    rng = random.Random(19)
    for width in (1, 2, 9):
        k = 8 * width
        for _ in range(20):
            p = QPoly({e: rng.randint(-2 ** (3 * k), 2 ** (3 * k))
                       for e in rng.sample(range(0, 40), rng.randint(1, 10))})
            assert p.packed(width) == sum(v * 2 ** (k * e)
                                          for e, v in p.items())
    assert QPoly.monomial(3, 2 ** 20).packed(1) == 2 ** 44
    with pytest.raises(ValueError, match="^packed\\(\\) needs"):
        (QPoly.monomial(-1, 2 ** 20) + q).packed(1)


@pytest.mark.parametrize("width", range(1, 11))
def test_pack_round_trips_through_from_packed(width):
    # from_packed reads widths up to 8 in C and 9 and 10 digit by digit;
    # negative coefficients and runs of zero digits included
    rng = random.Random(100 + width)
    h = 1 << (8 * width - 1)
    for _ in range(30):
        low = rng.randint(-20, 20)
        high = low + rng.randint(0, 50)
        c = {e: rng.choice((-h + 1, h - 1, -1, 1, rng.randint(-h + 1, h - 1)))
             for e in rng.sample(range(low, high + 1),
                                 rng.randint(1, high - low + 1))}
        c[low] = c[high] = rng.choice((-h + 1, -1, 1, h - 1))
        n = exactnum._pack(c, low, high, width)
        assert n == sum(v << 8 * width * (e - low) for e, v in c.items())
        assert QPoly.from_packed(n, width, low) == QPoly(c)
    # -2^(k-1) is the digit 0; outside [-2^(k-1), 2^(k-1)) none fits
    assert exactnum._pack({0: 1, 1: -h, 2: -1}, 0, 2, width) == (
        1 - (h << 8 * width) - (1 << 16 * width))
    for v in (h, -h - 1, 4 * h, -4 * h):
        with pytest.raises(ExactnessError, match="^a packed coefficient "
                           "does not fit its digit$"):
            exactnum._pack({0: 1, 1: v, 2: -1}, 0, 2, width)


def per_digit(n, width, low):
    """q^low * P with P(2^k) = n, read one int.from_bytes call per digit."""
    k = 8 * width
    count = n.bit_length() // k + 1
    h = 1 << (k - 1)
    offset = sum(h << k * i for i in range(count))
    buf = (n + offset).to_bytes(count * width, "little")
    digits = [int.from_bytes(buf[i:i + width], "little")
              for i in range(0, count * width, width)]
    return QPoly({e: v - h for e, v in enumerate(digits, low)})


@pytest.mark.parametrize("width", range(1, 10))
def test_from_packed_matches_the_per_digit_reader(width):
    # widths up to 8 are read in C, 9 digit by digit
    rng = random.Random(width)
    h = 1 << (8 * width - 1)
    edge = (h - 1, -(h - 1), 1, -1)
    for _ in range(40):
        span = rng.randint(1, 60)
        p = QPoly({e: rng.choice(edge) if rng.random() < 0.3
                   else rng.randint(-h + 1, h - 1)
                   for e in rng.sample(range(span), rng.randint(1, span))})
        # runs of zero digits between and around the terms
        p = p + QPoly.monomial(span + rng.randint(1, 20), rng.choice(edge))
        low = rng.randint(-30, 30)
        n = p.packed(width)
        got = QPoly.from_packed(n, width, low)
        assert got == per_digit(n, width, low) == p.shifted(low)
        # a negative packed value is the negated polynomial
        assert QPoly.from_packed(-n, width, low) == per_digit(-n, width, low)
        assert QPoly.from_packed(-n, width, low) == -p.shifted(low)
    assert QPoly.from_packed(0, width, 0) == QPoly.zero()
    assert QPoly.from_packed(0, width, -5) == QPoly.zero()


def test_eval_one():
    assert (QPoly.monomial(2) + q).eval_one() == 2
    assert QPoly.zero().eval_one() == 0
    assert (3 * q - 3).eval_one() == 0


def test_invert_variable():
    p = QPoly.monomial(2) + 1
    assert p.invert_variable() == QPoly.monomial(-2) + 1
    assert p.invert_variable().invert_variable() == p
    assert QPoly.monomial(-1).invert_variable() == q


def random_qpoly(rng, max_terms=5, max_exp=6, max_coeff=9):
    n = rng.randint(0, max_terms)
    return QPoly({rng.randint(-max_exp, max_exp):
                  rng.randint(-max_coeff, max_coeff) for _ in range(n)})


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (random_qpoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * QPoly.one() == a


def test_eval_one_is_homomorphism():
    rng = random.Random(12)
    for _ in range(200):
        a, b = random_qpoly(rng), random_qpoly(rng)
        assert (a * b).eval_one() == a.eval_one() * b.eval_one()
        assert (a + b).eval_one() == a.eval_one() + b.eval_one()


def test_invert_variable_is_ring_map():
    rng = random.Random(13)
    for _ in range(200):
        a, b = random_qpoly(rng), random_qpoly(rng)
        assert (a * b).invert_variable() == a.invert_variable() * b.invert_variable()
        assert (a + b).invert_variable() == a.invert_variable() + b.invert_variable()


def test_one_minus_q_quotient_times_denominator_is_numerator():
    # an exact quotient is unique, so multiplying back checks it
    rng = random.Random(15)
    for _ in range(100):
        den = [rng.randint(1, 5) for _ in range(rng.randint(0, 3))]
        extra = [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
        num = den + extra
        rng.shuffle(num)
        prod_num = QPoly.one()
        for a in num:
            prod_num = prod_num * (1 - QPoly.monomial(a))
        prod_den = QPoly.one()
        for b in den:
            prod_den = prod_den * (1 - QPoly.monomial(b))
        assert one_minus_q_quotient(num, den) * prod_den == prod_num


def times_binomials(poly, exps):
    """poly * prod (1 - q^a) over a in exps, term by term; lists of
    coefficients, lowest first."""
    for a in exps:
        out = poly + [0] * a
        for k, v in enumerate(poly):
            out[k + a] -= v
        poly = out
    return poly


def over_binomials(poly, exps):
    """poly / prod (1 - q^b) over b in exps by long division from the top,
    or None when a division leaves a remainder."""
    for b in exps:
        r = list(poly)
        quo = [0] * max(len(r) - b, 0)
        for i in reversed(range(len(quo))):
            c = quo[i] = -r[i + b]  # the leading term of 1 - q^b is -q^b
            r[i] -= c
            r[i + b] = 0
        if any(r):
            return None
        poly = quo
    return poly


def plain_quotient(num, den):
    """one_minus_q_quotient's value, or None when it is no polynomial."""
    cn, cd = Counter(num), Counter(den)
    common = cn & cd  # (1 - q^e) / (1 - q^e) = 1 keeps the lists short
    p = over_binomials(times_binomials([1], (cn - common).elements()),
                       (cd - common).elements())
    return None if p is None else QPoly(dict(enumerate(p)))


def test_one_minus_q_quotient_matches_long_division():
    # seeded exponent multisets, exact and not, against a term-by-term
    # product and long division; then the 40-dent semihexagon of CI
    rng = random.Random(41)
    cases = []
    for _ in range(300):
        den = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        num = [rng.randint(1, 12) for _ in range(rng.randint(0, 8))]
        if rng.random() < 0.5:
            num += den  # an exact quotient
        rng.shuffle(num)
        cases.append((num, den))
    S = tuple(range(1, 80, 2))
    cases.append((list(formulas._gaps(S)), list(formulas._gaps(range(40)))))
    exact = 0
    for num, den in cases:
        want = plain_quotient(num, den)
        if want is None:
            with pytest.raises(ExactnessError, match="^denominator factor "):
                one_minus_q_quotient(num, den)
        else:
            got = one_minus_q_quotient(num, den)
            assert got == want
            assert 0 not in dict(got.items()).values()
            exact += 1
    assert 150 < exact < len(cases) - 50
    assert len(want.items()) == 10661  # the 40-dent case, exact


def test_one_minus_q_quotient_refuses_inexact_quotients():
    # 1 - q^2 has a higher degree than 1 - q, and does not divide 1 - q^3;
    # every caller divides by a theorem, so a remainder is a broken invariant
    with pytest.raises(ExactnessError, match="^denominator factor "
                       "exceeds degree$"):
        one_minus_q_quotient([1], [2])
    with pytest.raises(ExactnessError, match="^denominator factor "
                       "does not divide$"):
        one_minus_q_quotient([3], [2])


def test_one_minus_q_quotient_refuses_nonpositive_exponents():
    # 1 - q^0 is zero, and a negative exponent is no factor of this form
    for num, den in (([0], []), ([], [0]), ([2], [-1]), ([-2], [1])):
        with pytest.raises(ValueError):
            one_minus_q_quotient(num, den)


def test_render_canonical():
    p = QPoly.monomial(-1) + 2 + QPoly.monomial(2)
    assert p.render() == "1*q^-1 + 2 + 1*q^2"
    assert QPoly.zero().render() == "0"
    assert (2 * q).render() == "2*q^1"


def test_qratio_eq():
    a = QRatio(QPoly.monomial(2) - 1, q - 1)
    b = QRatio(q + 1, QPoly.one())
    assert a == b
    assert QRatio(q, QPoly.one()) == QRatio(QPoly.one(), QPoly.monomial(-1))
    assert QRatio(q, QPoly.one()) != QRatio(QPoly.one(), QPoly.one())


_VANISHES = "^denominator vanishes to higher order at q=1$"


def test_qratio_zero_denominator():
    with pytest.raises(ZeroDivisionError,
                       match="^QRatio denominator is zero$"):
        QRatio(q, QPoly.zero())
    # the denominator vanishes to a higher order at q = 1 than the numerator
    with pytest.raises(ZeroDivisionError, match=_VANISHES):
        QRatio(q - 1, (q - 1) * (q - 1)).limit_at_one()


def test_qratio_limit_at_one():
    r = QRatio((QPoly.monomial(2) - 1) * (q - 1), (q - 1) * (q - 1) * 3)
    # (q+1)/3 at q=1
    assert r.limit_at_one() == Fraction(2, 3)
    inv = QPoly.monomial(-1) - 1
    assert QRatio(inv, q - 1).limit_at_one() == -1  # -1/q, a Laurent input
    assert QRatio(QPoly.zero(), q - 1).limit_at_one() == 0
    # (q - 1)^2 / q^2 over (q - 1)^2: both sides vanish to order 2
    assert QRatio(inv * inv, (q - 1) * (q - 1)).limit_at_one() == 1


def test_qratio_limit_at_one_strips_powers_of_q_minus_one():
    # (q - 1)^i A / ((q - 1)^j B) with A(1) B(1) != 0 tends to A(1)/B(1)
    # when i = j and to 0 when i > j; when i < j the denominator vanishes
    # to a higher order
    rng = random.Random(16)
    done = 0
    while done < 400:
        a, b = random_qpoly(rng), random_qpoly(rng)
        if not a.eval_one() * b.eval_one():
            continue
        i, j = rng.randint(0, 6), rng.randint(0, 6)
        r = QRatio(prod([q - 1] * i, start=a), prod([q - 1] * j, start=b))
        if i < j:
            with pytest.raises(ZeroDivisionError, match=_VANISHES):
                r.limit_at_one()
        else:
            want = Fraction(a.eval_one(), b.eval_one()) if i == j else 0
            assert r.limit_at_one() == want
        done += 1


def test_equal_values_hash_equal():
    assert QPoly.monomial(0, 5) == 5
    assert hash(QPoly.monomial(0, 5)) == hash(5)
    assert 5 in {QPoly.monomial(0, 5)}
    assert QPoly.monomial(0, 5) in {5}
    assert QPoly.zero() == 0
    assert hash(QPoly.zero()) == hash(0) == 0
    assert 0 in {QPoly.zero()}
    for n in (-1, 2 ** 200, -(3 ** 90)):
        assert hash(QPoly.monomial(0, n)) == hash(n)
    assert hash((q + 1) * (q - 1)) == hash(QPoly.monomial(2) - 1)
    assert len({(q + 1) * (q - 1), QPoly.monomial(2) - 1,
                QPoly.monomial(0, 1), 1}) == 2


def test_qratio_is_unhashable():
    a = QRatio(2 * q, QPoly.monomial(0, 2))
    b = QRatio(q, QPoly.one())
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a, b}

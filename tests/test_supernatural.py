"""Supernatural arithmetic, the Steinitz lattice laws, and the codec."""

from __future__ import annotations

import random

import pytest

from formatio.errors import DiagonalPair, InvalidExponentFunction, SpecSyntaxError, TooLarge
from formatio.supernatural import (
    FULL,
    INF,
    ONE,
    ExponentFunction,
    Supernatural,
    complement,
    decode_supernatural,
    divides,
    divides_int,
    ef_join,
    ef_meet,
    encode_function,
    encode_value_at,
    format_exponent_function,
    format_supernatural,
    from_int,
    gcd,
    is_complete,
    is_natural,
    lcm,
    make_exponent_function,
    make_supernatural,
    pair_components,
    pair_index,
    parse_exponent_function,
    parse_supernatural,
    prime_power,
    to_int,
)

PRIME_POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def random_supernatural(rng, allow_inf_default=True):
    values = {}
    for p in PRIME_POOL:
        roll = rng.random()
        if roll < 0.55:
            continue
        if roll < 0.75:
            values[p] = INF
        else:
            values[p] = rng.randrange(1, 8)
    default = INF if (allow_inf_default and rng.random() < 0.3) else 0
    return make_supernatural(values, default=default)


def random_complete(rng):
    values = {p: INF for p in PRIME_POOL if rng.random() < 0.4}
    default = INF if rng.random() < 0.5 else 0
    return make_supernatural({p: e for p, e in values.items() if e != default},
                             default=default)


def test_natural_lcm_gcd():
    a, b = from_int(12), from_int(18)
    assert to_int(lcm(a, b)) == 36
    assert to_int(gcd(a, b)) == 6


def test_lcm_with_infinities():
    x = parse_supernatural("2^inf*3")
    y = parse_supernatural("2*3^inf")
    assert format_supernatural(lcm(x, y)) == "2^inf*3^inf"
    assert to_int(gcd(x, y)) == 6


def test_everything_divides_full():
    rng = random.Random(11)
    for _ in range(25):
        omega = random_supernatural(rng)
        assert divides(omega, FULL)
        assert divides(ONE, omega)


def test_divides_int():
    omega = parse_supernatural("2^inf*3")
    assert divides_int(24, omega)
    assert not divides_int(9, omega)
    assert divides_int(1, ONE)


def test_complete_and_natural_predicates():
    assert is_complete(make_supernatural({2: INF, 5: INF}))
    assert not is_complete(from_int(12))
    assert is_complete(FULL) and is_complete(ONE)
    assert is_natural(from_int(12))
    assert not is_natural(prime_power(2, INF))


def test_lattice_laws_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        a, b, c = (random_supernatural(rng) for _ in range(3))
        assert lcm(a, b) == lcm(b, a)
        assert gcd(a, b) == gcd(b, a)
        assert lcm(a, lcm(b, c)) == lcm(lcm(a, b), c)
        assert gcd(a, gcd(b, c)) == gcd(gcd(a, b), c)
        assert lcm(a, gcd(a, b)) == a
        assert gcd(a, lcm(a, b)) == a
        assert lcm(a, gcd(b, c)) == gcd(lcm(a, b), lcm(a, c))
        assert gcd(a, lcm(b, c)) == lcm(gcd(a, b), gcd(a, c))


def test_complete_subalgebra_closed_and_complemented():
    rng = random.Random(31)
    for _ in range(50):
        a, b = random_complete(rng), random_complete(rng)
        assert is_complete(lcm(a, b))
        assert is_complete(gcd(a, b))
        comp = complement(a)
        assert lcm(a, comp) == FULL
        assert gcd(a, comp) == ONE


def test_complement_requires_complete():
    with pytest.raises(ValueError):
        complement(from_int(12))


def test_prime_enumeration_and_its_inverse(monkeypatch):
    from formatio import arith

    # the first 10^4 primes by trial division
    primes = [p for p in range(2, 104730) if arith.is_prime(p)]
    assert len(primes) == 10**4 and primes[-1] == 104729
    indices = list(range(1, len(primes) + 1))
    for nth_first in (True, False):
        # sieve from scratch, grown by either function
        monkeypatch.setattr(arith, "_PRIMES", [2])
        monkeypatch.setattr(arith, "_sieved", 2)
        if nth_first:
            assert [arith.nth_prime(i) for i in indices] == primes
        assert [arith.prime_index(p) for p in primes] == indices
        assert [arith.nth_prime(i) for i in indices] == primes
    with pytest.raises(ValueError):
        arith.prime_index(104730)


def test_pairing_first_index():
    assert pair_index(1, 2) == 1
    assert pair_components(1) == (1, 2)


def test_pairing_round_trips():
    for a in range(1, 51):
        for b in range(1, 51):
            if a != b:
                assert pair_components(pair_index(a, b)) == (a, b)
    for i in range(1, 2000):
        a, b = pair_components(i)
        assert a != b
        assert pair_index(a, b) == i


def _pairs_by_walking_the_diagonals(count):
    """The first `count` pairs, walked one anti-diagonal at a time."""
    pairs = []
    s = 3
    while len(pairs) < count:
        pairs += [(a, s - a) for a in range(1, s) if 2 * a != s]
        s += 1
    return pairs[:count]


def test_pairing_closed_form_matches_the_diagonal_walk():
    for i, (a, b) in enumerate(_pairs_by_walking_the_diagonals(20000), start=1):
        assert pair_components(i) == (a, b), i
        assert pair_index(a, b) == i, (a, b)


def test_pairing_rejects_diagonal():
    with pytest.raises(DiagonalPair):
        pair_index(3, 3)


def test_exponent_function_validation():
    with pytest.raises(InvalidExponentFunction):
        ExponentFunction(((2, from_int(8)),), ONE)  # finite 2-part at 2


def test_exponent_function_default_patching():
    f = make_exponent_function({}, default=ONE)
    assert f.at(5) == prime_power(5, INF)
    g = make_exponent_function({}, default=FULL)
    assert g.at(7) == FULL


def test_unlisted_values_are_built_once_and_stay_out_of_the_record():
    import pickle

    f = make_exponent_function({2: prime_power(2, INF)}, default=from_int(3))
    fresh = make_exponent_function({2: prime_power(2, INF)}, default=from_int(3))
    text, key = str(f), hash(f)
    first = f.at(5)
    assert first == lcm(from_int(3), prime_power(5, INF))
    assert f.at(5) is first
    assert f.at(2) == prime_power(2, INF)
    assert (f == fresh, hash(f), str(f), repr(f)) == (True, key, text, text)
    assert pickle.loads(pickle.dumps(f)) == fresh


def test_encode_full_function_is_full():
    assert encode_function(make_exponent_function({}, default=FULL)) == FULL


def test_encode_single_deviation_positions():
    # f(2) = 2^inf over a full default: only positions pairing the first
    # prime with another one drop to zero
    f = make_exponent_function({2: prime_power(2, INF)}, default=FULL)
    omega = encode_function(f)
    for i in range(1, 101):
        k, j = pair_components(i)
        expected = 0 if k == 1 else INF
        assert encode_value_at(f, i) == expected
        if i <= 60:  # within the materialized horizon for sure
            from formatio.arith import nth_prime

            assert omega.v(nth_prime(i)) == expected


def test_decode_one_gives_prime_powers():
    f = decode_supernatural(ONE)
    for p in (2, 3, 5, 7, 11):
        assert f.at(p) == prime_power(p, INF)


def test_decode_full_gives_full():
    f = decode_supernatural(FULL)
    assert all(f.at(p) == FULL for p in (2, 3, 5))


def test_encode_decode_round_trip_fixed():
    for omega in (ONE, from_int(12), prime_power(2, INF),
                  lcm(prime_power(2, INF), from_int(2187))):
        assert encode_function(decode_supernatural(omega)) == omega


def test_encode_decode_round_trip_random():
    rng = random.Random(404)
    for _ in range(20):
        omega = random_supernatural(rng)
        assert encode_function(decode_supernatural(omega)) == omega


def test_join_meet_idempotent():
    rng = random.Random(9)
    f = decode_supernatural(random_supernatural(rng))
    assert ef_join(f, f) == f
    assert ef_meet(f, f) == f


def random_exponent_function(rng):
    """f over {2, 3, 5, 7}: each prime listed or not, with values near the
    default's, so that some entries equal the value of an unlisted prime."""
    default = rng.choice((ONE, FULL, from_int(3), prime_power(5, INF)))
    values = {}
    for p in (2, 3, 5, 7):
        if rng.random() < 0.6:
            values[p] = lcm(prime_power(p, INF), rng.choice(
                (ONE, default, from_int(6), prime_power(7, INF), FULL)))
    return make_exponent_function(values, default=default)


def test_exponent_function_lattice_laws_on_records():
    rng = random.Random(2025)
    for _ in range(200):
        f, g, h = (random_exponent_function(rng) for _ in range(3))
        assert ef_join(f, g) == ef_join(g, f) and ef_meet(f, g) == ef_meet(g, f)
        assert ef_join(f, ef_join(g, h)) == ef_join(ef_join(f, g), h)
        assert ef_meet(f, ef_meet(g, h)) == ef_meet(ef_meet(f, g), h)
        assert ef_join(f, f) == f and ef_meet(f, f) == f
        assert ef_join(f, ef_meet(f, g)) == f
        assert ef_meet(f, ef_join(f, g)) == f
        assert ef_join(f, ef_meet(g, h)) == ef_meet(ef_join(f, g), ef_join(f, h))
        assert ef_meet(f, ef_join(g, h)) == ef_join(ef_meet(f, g), ef_meet(f, h))


def test_exponent_function_drops_the_unlisted_value():
    g = make_exponent_function({}, default=ONE)
    f = make_exponent_function({2: lcm(prime_power(2, INF), from_int(3))}, default=ONE)
    assert ef_join(g, ef_meet(g, f)) == g
    assert make_exponent_function({2: prime_power(2, INF)}, default=ONE) == g
    assert parse_exponent_function("2->2^inf,default->1") == g
    assert format_exponent_function(ef_meet(g, f)) == "default->1"
    with pytest.raises(InvalidExponentFunction, match="non-canonical entry 2->2\\^inf"):
        ExponentFunction(((2, prime_power(2, INF)),), ONE)


def test_codec_is_lattice_morphism():
    rng = random.Random(77)
    for _ in range(20):
        f1 = decode_supernatural(random_supernatural(rng))
        f2 = decode_supernatural(random_supernatural(rng))
        assert encode_function(ef_join(f1, f2)) == lcm(encode_function(f1),
                                                       encode_function(f2))
        assert encode_function(ef_meet(f1, f2)) == gcd(encode_function(f1),
                                                       encode_function(f2))


def test_supernatural_text_round_trips():
    rng = random.Random(5)
    for _ in range(40):
        omega = random_supernatural(rng)
        assert parse_supernatural(format_supernatural(omega)) == omega
    for text in ("1", "full", "36", "2^3*5^inf", "7^2;default=inf"):
        omega = parse_supernatural(text)
        assert parse_supernatural(format_supernatural(omega)) == omega


def test_exponent_function_text_round_trips():
    f = parse_exponent_function("2->2^inf*3,3->3^inf,default->full")
    assert parse_exponent_function(format_exponent_function(f)) == f
    assert f.at(2) == parse_supernatural("2^inf*3")
    assert f.at(5) == FULL


def test_supernatural_parse_errors():
    for bad in ("", "2^", "4^2", "2^inf*2", "x", "2^-1", "5;default=2",
                "0", "-3", "0;default=inf"):
        with pytest.raises(SpecSyntaxError):
            parse_supernatural(bad)


def test_prime_and_exponent_literals_have_at_most_12_digits():
    assert parse_supernatural("2^999999999999") == prime_power(2, 999999999999)
    assert parse_supernatural("999999999989^2") == prime_power(999999999989, 2)
    for bad in ("1000000000039^2", "2^1000000000000", "0000000000002^2"):
        with pytest.raises(SpecSyntaxError, match="longer than 12 digits"):
            parse_supernatural(bad)
    with pytest.raises(SpecSyntaxError, match="longer than 12 digits"):
        parse_exponent_function("1000000000039->1000000000039^inf")


def test_decimal_literal_factors_below_the_trial_limit():
    assert parse_supernatural("1" + "0" * 60) == make_supernatural({2: 60, 5: 60})
    assert parse_supernatural("1999999999978") == make_supernatural({2: 1, 999999999989: 1})
    for bad in ("99999999999999999999999",  # 9 times the repunit prime R23
                str(1000003 ** 3)):
        with pytest.raises(SpecSyntaxError, match="at most one prime below 10"):
            parse_supernatural(bad)


def test_long_literals_parse_in_under_a_tenth_of_a_second(monkeypatch):
    import time

    from formatio import arith

    for text in ("999999999989", "999999999989*2", "3000000000117",
                 "99999999999999999989"):
        best = 1.0
        for _ in range(3):
            # each attempt from an empty sieve
            monkeypatch.setattr(arith, "_PRIMES", [2])
            monkeypatch.setattr(arith, "_sieved", 2)
            start = time.perf_counter()
            try:
                parse_supernatural(text)
            except SpecSyntaxError:
                pass
            best = min(best, time.perf_counter() - start)
        assert best < 0.1, (text, best)


def test_trial_division_by_sieved_primes_matches_the_odd_number_loop(monkeypatch):
    from formatio import arith

    def odd_loop(n, trial_limit):
        out, d = {}, 2
        while d * d <= n and d < trial_limit:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    monkeypatch.setattr(arith, "_PRIMES", [2])
    monkeypatch.setattr(arith, "_sieved", 2)
    rng = random.Random(22)
    sample = [rng.randrange(1, 10**13) for _ in range(6)]
    sample += [999999999989, 1999999999978, 3000000000117, 1000003 ** 2,
               999983 * 999979, 2**40]
    for n in sample:
        assert arith.factorize(n, trial_limit=10**6) == odd_loop(n, 10**6), n
    for n in (999999999989, 999983 * 999979, 10**12 + 39):
        assert arith.is_prime(n) == (odd_loop(n, n) == {n: 1}), n
    # past the sieve, trial division goes on over the odd numbers
    assert not arith.is_prime(1000003 ** 2)
    assert arith._sieved > 2
    # small numbers, and large ones whose small factors leave less than
    # 10^6, never start the sieve
    monkeypatch.setattr(arith, "_PRIMES", [2])
    monkeypatch.setattr(arith, "_sieved", 2)
    for n in range(1, 5000):
        assert arith.factorize(n) == odd_loop(n, n), n
    assert [n for n in range(1000) if arith.is_prime(n)][-1] == 997
    assert arith.factorize(997 * 991) == {991: 1, 997: 1}
    assert arith.factorize(2**80 * 999983) == {2: 80, 999983: 1}
    assert arith.is_prime(999983) and not arith.is_prime(2**80 * 999983)
    assert parse_supernatural("1" + "0" * 60) == make_supernatural({2: 60, 5: 60})
    assert arith._sieved == 2


def test_to_int_refuses_more_than_4300_digits():
    assert len(format_supernatural(prime_power(2, 14284))) == 4300
    with pytest.raises(TooLarge):
        to_int(prime_power(2, 14285))  # 4301 digits
    with pytest.raises(TooLarge):
        format_supernatural(prime_power(2, 10**11))


def test_canonical_form_strips_defaults():
    omega = make_supernatural({2: 0, 3: INF}, default=0)
    assert omega.explicit == ((3, INF),)
    with pytest.raises(ValueError):
        Supernatural(((3, 0),), 0)  # non-canonical entry equal to default


def test_encode_injective_on_test_family():
    rng = random.Random(123)
    family = [make_exponent_function({}, default=ONE),
              make_exponent_function({}, default=FULL),
              make_exponent_function({2: prime_power(2, INF)}, default=FULL)]
    family += [decode_supernatural(random_supernatural(rng)) for _ in range(10)]
    encodings = [encode_function(f) for f in family]
    for i, fi in enumerate(family):
        for j in range(i):
            if family[j] != fi:
                assert encodings[i] != encodings[j], (i, j)

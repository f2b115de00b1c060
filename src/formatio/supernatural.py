"""Supernatural numbers, their lattice, and the exponent-function codec.

A supernatural number is a formal product over all primes with exponents in
{0, 1, 2, ...} or infinity.  Values are stored as a finite list of explicit
(prime, exponent) deviations over a default exponent (0 or infinity) that
applies to every unlisted prime, so lcm/gcd/divisibility are exact.

Exponent functions map each prime p to a supernatural number whose p-adic
value is infinite; they are stored the same way, with the convention that an
unlisted prime p maps to lcm(default, p^inf).  The codec between exponent
functions and single supernatural numbers interleaves all (p, q) positions
through a fixed pairing bijection; the encoded value is exact at every
position up to a horizon (default `PRIME_HORIZON`) and exact lazily at any
position via `encode_value_at`.

The text rules every grammar shares live here too: prime literals
(`parse_prime`), `P->value` lists (`parse_entries`), argument lists and the
nesting check.
"""

from __future__ import annotations

from functools import cached_property
from math import inf as INF, isqrt, log10

from .arith import factorize, is_prime, nth_prime, prime_index
from .errors import (DiagonalPair, InvalidExponentFunction, SpecSyntaxError, TooLarge,
                     UnsupportedParameter)
from .records import record

Exponent = int | float  # a natural number or INF

# Parsing tests prime literals and factors decimal literals by trial division.
# Trial division finds the prime factors below TRIAL_LIMIT in under 0.1 s, and
# what it leaves of a decimal is prime when below TRIAL_LIMIT**2.  Prime and
# exponent literals have at most MAX_LITERAL_DIGITS digits, so every prime
# listed in a supernatural number is below 10^12, and testing one takes under
# 0.1 s (the time grows tenfold with every two digits more).
TRIAL_LIMIT = 10**6
MAX_LITERAL_DIGITS = 12
# CPython's default limit on the digits of an int converted to a string.
MAX_DECIMAL_DIGITS = 4300
# Positions of the pairing codec that `encode_function` materializes.
PRIME_HORIZON = 128
# The largest prime `decode_supernatural` accepts: finding a prime's position
# sieves every number up to it, in about 0.2 s for this bound.
DECODE_PRIME_BOUND = 10**7


def _check_exponent(e: Exponent) -> Exponent:
    if e == INF:
        return INF
    if isinstance(e, int) and e >= 0:
        return e
    raise UnsupportedParameter(f"exponent must be a natural number or inf, got {e!r}")


@record
class Supernatural:
    """Formal product of prime powers; `default` applies to unlisted primes."""

    explicit: tuple[tuple[int, Exponent], ...] = ()
    default: Exponent = 0

    def __post_init__(self):
        if self.default not in (0, INF):
            raise UnsupportedParameter("default exponent must be 0 or inf")
        last = 0
        for p, e in self.explicit:
            if not is_prime(p):
                raise UnsupportedParameter(f"{p} is not prime")
            if p <= last:
                raise UnsupportedParameter("explicit primes must be strictly increasing")
            last = p
            _check_exponent(e)
            if e == self.default:
                raise UnsupportedParameter(f"non-canonical entry {p}^{e} equals the default")

    def v(self, p: int) -> Exponent:
        """The exponent of the prime p."""
        for q, e in self.explicit:
            if q == p:
                return e
            if q > p:
                break
        return self.default

    def is_one(self) -> bool:
        return not self.explicit and self.default == 0

    def is_full(self) -> bool:
        return not self.explicit and self.default == INF

    def __str__(self) -> str:
        return format_supernatural(self)

    __repr__ = __str__


def make_supernatural(values: dict[int, Exponent], default: Exponent = 0) -> Supernatural:
    """Canonicalize an exponent mapping into a Supernatural."""
    explicit = tuple(sorted((p, _check_exponent(e)) for p, e in values.items()
                            if e != default))
    return Supernatural(explicit, default)


ONE = Supernatural((), 0)
FULL = Supernatural((), INF)


def from_int(n: int) -> Supernatural:
    if n < 1:
        raise UnsupportedParameter(f"natural numbers start at 1, got {n}")
    return make_supernatural({p: e for p, e in factorize(n).items()})


def prime_power(p: int, e: Exponent) -> Supernatural:
    return make_supernatural({p: e})


def _pointwise(a: Supernatural, b: Supernatural, pick) -> Supernatural:
    primes = {p for p, _ in a.explicit} | {p for p, _ in b.explicit}
    values = {p: pick(a.v(p), b.v(p)) for p in primes}
    return make_supernatural(values, default=pick(a.default, b.default))


def lcm(a: Supernatural, b: Supernatural) -> Supernatural:
    return _pointwise(a, b, max)


def gcd(a: Supernatural, b: Supernatural) -> Supernatural:
    return _pointwise(a, b, min)


def divides(a: Supernatural, b: Supernatural) -> bool:
    if a.default > b.default:
        return False
    primes = {p for p, _ in a.explicit} | {p for p, _ in b.explicit}
    return all(a.v(p) <= b.v(p) for p in primes)


def divides_int(n: int, omega: Supernatural) -> bool:
    """Whether the natural number n divides the supernatural number omega."""
    return all(e <= omega.v(p) for p, e in factorize(n).items())


def is_complete(omega: Supernatural) -> bool:
    """All exponents are 0 or infinity."""
    return all(e in (0, INF) for _, e in omega.explicit)


def is_natural(omega: Supernatural) -> bool:
    """Finitely many finite exponents: an ordinary natural number."""
    return omega.default == 0 and all(e != INF for _, e in omega.explicit)


def to_int(omega: Supernatural) -> int:
    if not is_natural(omega):
        raise UnsupportedParameter(f"{omega} is not a natural number")
    if sum(e * log10(p) for p, e in omega.explicit) >= MAX_DECIMAL_DIGITS:
        raise TooLarge(f"natural number with more than {MAX_DECIMAL_DIGITS} decimal digits")
    n = 1
    for p, e in omega.explicit:
        n *= p ** int(e)
    return n


def complement(omega: Supernatural) -> Supernatural:
    """For a complete number, the complete number with 0/inf swapped."""
    if not is_complete(omega):
        raise UnsupportedParameter(f"{omega} is not complete")
    flip = {0: INF, INF: 0}
    values = {p: flip[e] for p, e in omega.explicit}
    return make_supernatural(values, default=flip[omega.default])


# ---------------------------------------------------------------------------
# Pairing bijection between positive naturals and off-diagonal pairs.
#
# Pairs (a, b) with a != b are enumerated along anti-diagonals a + b = 3, 4,
# 5, ... and by increasing a within a diagonal, skipping a == b:
#   1 -> (1,2), 2 -> (2,1), 3 -> (1,3), 4 -> (3,1), 5 -> (1,4), 6 -> (2,3), ...


def _pairs_before(s: int) -> int:
    """Number of pairs on the diagonals 3 .. s-1."""
    return (s - 2) * (s - 1) // 2 - (s - 1) // 2


def pair_components(i: int) -> tuple[int, int]:
    """The pair enumerated at index i >= 1."""
    if i < 1:
        raise UnsupportedParameter(f"pair index must be >= 1, got {i}")
    s = max(3, isqrt(2 * i))  # _pairs_before(s) is about s*s/2
    while _pairs_before(s) >= i:
        s -= 1
    while _pairs_before(s + 1) < i:
        s += 1
    a = i - _pairs_before(s)
    if s % 2 == 0 and 2 * a >= s:  # skip the diagonal point a == s/2
        a += 1
    return a, s - a


def pair_index(n1: int, n2: int) -> int:
    """Index of the pair (n1, n2); inverse of pair_components."""
    if n1 < 1 or n2 < 1:
        raise UnsupportedParameter("pair entries must be >= 1")
    if n1 == n2:
        raise DiagonalPair(f"({n1}, {n2}) lies on the diagonal")
    s = n1 + n2
    return _pairs_before(s) + n1 - (1 if s % 2 == 0 and 2 * n1 > s else 0)


# ---------------------------------------------------------------------------
# Exponent functions


@record
class ExponentFunction:
    """A map from primes to supernatural numbers with v_p(f(p)) infinite.

    Unlisted primes map to lcm(default, p^inf), so the infinite-p-part
    requirement holds at every prime by construction; explicit entries are
    validated.
    """

    explicit: tuple[tuple[int, Supernatural], ...] = ()
    default: Supernatural = ONE

    def __post_init__(self):
        last = 0
        for p, omega in self.explicit:
            if not is_prime(p):
                raise InvalidExponentFunction(f"{p} is not prime")
            if p <= last:
                raise InvalidExponentFunction("explicit primes must be strictly increasing")
            last = p
            if omega.v(p) != INF:
                raise InvalidExponentFunction(
                    f"value at {p} must have infinite {p}-part, got {omega}")

    @cached_property
    def _unlisted(self) -> dict[int, Supernatural]:
        """lcm(default, p^inf) per unlisted prime p asked for so far.  Kept
        beside the fields, so equality, hash and text do not see it."""
        return {}

    def at(self, p: int) -> Supernatural:
        for q, omega in self.explicit:
            if q == p:
                return omega
            if q > p:
                break
        got = self._unlisted.get(p)
        if got is None:
            got = self._unlisted[p] = lcm(self.default, prime_power(p, INF))
        return got

    def __str__(self) -> str:
        return format_exponent_function(self)

    __repr__ = __str__


def make_exponent_function(values: dict[int, Supernatural],
                           default: Supernatural = ONE) -> ExponentFunction:
    explicit = tuple(sorted(values.items()))
    return ExponentFunction(explicit, default)


def _ef_pointwise(f1: ExponentFunction, f2: ExponentFunction, pick) -> ExponentFunction:
    primes = {p for p, _ in f1.explicit} | {p for p, _ in f2.explicit}
    values = {p: pick(f1.at(p), f2.at(p)) for p in primes}
    return make_exponent_function(values, default=pick(f1.default, f2.default))


def ef_join(f1: ExponentFunction, f2: ExponentFunction) -> ExponentFunction:
    return _ef_pointwise(f1, f2, lcm)


def ef_meet(f1: ExponentFunction, f2: ExponentFunction) -> ExponentFunction:
    return _ef_pointwise(f1, f2, gcd)


def encode_value_at(f: ExponentFunction, i: int) -> Exponent:
    """Exact exponent of the i-th prime in the encoding of f, any i >= 1."""
    k, j = pair_components(i)
    return f.at(nth_prime(k)).v(nth_prime(j))


def encode_function(f: ExponentFunction, horizon: int = PRIME_HORIZON) -> Supernatural:
    """Interleave all values of f into one supernatural number.

    Position i carries the q-adic value of f(r) where (index of r, index of q)
    is the i-th off-diagonal pair.  Exact on the first `horizon` primes; the
    tail is represented by the generic default (exact whenever all of f's
    deviations pair into positions below the horizon).
    """
    tail_default = f.default.default
    values: dict[int, Exponent] = {}
    for i in range(1, horizon + 1):
        e = encode_value_at(f, i)
        if e != tail_default:
            values[nth_prime(i)] = e
    return make_supernatural(values, default=tail_default)


def decode_supernatural(omega: Supernatural) -> ExponentFunction:
    """The exponent function whose encoding is omega (exactly)."""
    deviations: dict[int, dict[int, Exponent]] = {}
    # the largest prime first, so that one sieve finds every position
    for p, e in reversed(omega.explicit):
        if p > DECODE_PRIME_BOUND:
            raise TooLarge(f"decode lists the prime {p}, above the bound {DECODE_PRIME_BOUND}")
        k, j = pair_components(prime_index(p))
        deviations.setdefault(k, {})[j] = e
    values: dict[int, Supernatural] = {}
    for k, per_prime in deviations.items():
        pk = nth_prime(k)
        entry = {nth_prime(j): e for j, e in per_prime.items()}
        entry[pk] = INF
        values[pk] = make_supernatural(entry, default=omega.default)
    return make_exponent_function(values, default=Supernatural((), omega.default))


# ---------------------------------------------------------------------------
# Text syntax
#
#   supernatural   ::= "1" | "full" | INT | factors [";default=" ("0"|"inf")]
#   factors        ::= prime ["^" (INT|"inf")] ("*" factors)*
#   exponent fn    ::= entry ("," entry)*   with  entry ::= prime "->" sn
#                      and an optional "default->" sn entry
#   prime          ::= a decimal prime of at most MAX_LITERAL_DIGITS digits


def format_supernatural(omega: Supernatural) -> str:
    if omega.is_one():
        return "1"
    if omega.is_full():
        return "full"
    if is_natural(omega):
        return str(to_int(omega))
    parts = []
    for p, e in omega.explicit:
        if e == 1:
            parts.append(str(p))
        elif e == INF:
            parts.append(f"{p}^inf")
        else:
            parts.append(f"{p}^{e}")
    body = "*".join(parts)
    if omega.default == INF:
        return f"{body};default=inf"
    return body


def check_literal_length(token: str, text: str) -> None:
    """Reject a prime or exponent literal longer than MAX_LITERAL_DIGITS characters."""
    if len(token.strip()) > MAX_LITERAL_DIGITS:
        raise SpecSyntaxError(
            f"integer literal longer than {MAX_LITERAL_DIGITS} digits in {text!r}")


def parse_prime(token: str, text: str) -> int:
    """The prime literal `token`, read from the expression `text`."""
    check_literal_length(token, text)
    try:
        p = int(token)
    except ValueError:
        raise SpecSyntaxError(f"expected a prime in {text!r}") from None
    if not is_prime(p):
        raise SpecSyntaxError(f"{p} is not prime in {text!r}")
    return p


def parse_entries(items: list[str], text: str, where: str, parse_value):
    """The `P->value` items of a list, read from the expression `text`, as
    ({p: value}, the `default->` value or None when there is none); `where`
    names the list in the message for a repeated key."""
    values = {}
    default = None
    for item in items:
        lhs, sep, rhs = item.partition("->")
        if not sep:
            raise SpecSyntaxError(f"missing '->' in entry {item!r}")
        lhs = lhs.strip()
        value = parse_value(rhs)
        if lhs == "default":
            if default is not None:
                raise SpecSyntaxError(f"default repeated in {where}")
            default = value
        else:
            p = parse_prime(lhs, text)
            if p in values:
                raise SpecSyntaxError(f"prime {p} repeated in {where}")
            values[p] = value
    return values, default


def split_args(body: str) -> list[str]:
    """The comma-separated items of an argument list, split at depth 0; a
    blank body has no items, and an empty item is a syntax error."""
    if not body.strip():
        return []
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    items = [p.strip() for p in parts]
    if "" in items:
        raise SpecSyntaxError(f"empty item in the list {body!r}")
    return items


MAX_NESTING = 32  # deeper specs would overflow the recursive parser and evaluator


def check_nesting(text: str) -> None:
    """Reject unbalanced parentheses, and nesting deeper than MAX_NESTING.

    Well-formed input costs two counts; the depth scan runs only when there
    are more opening parentheses than the limit.
    """
    opened = text.count("(")
    if opened != text.count(")"):
        raise SpecSyntaxError(f"unbalanced parenthesis in {text!r}")
    if opened > MAX_NESTING:
        depth = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise SpecSyntaxError(
                    f"expression nested deeper than {MAX_NESTING} levels")


def _parse_decimal(n: int, text: str) -> Supernatural:
    """The decimal literal n >= 1, which must factor into primes below
    TRIAL_LIMIT times at most one prime below TRIAL_LIMIT**2."""
    factors = factorize(n, trial_limit=TRIAL_LIMIT)
    if max(factors, default=1) >= TRIAL_LIMIT ** 2:
        raise SpecSyntaxError(
            f"integer literal {text!r} is not a product of primes below 10^6 "
            f"and at most one prime below 10^12")
    return make_supernatural(factors)


def parse_supernatural(text: str) -> Supernatural:
    s = text.strip().replace(" ", "")
    if not s:
        raise SpecSyntaxError("empty supernatural literal")
    if s == "full":
        return FULL
    default: Exponent = 0
    if ";" in s:
        body, _, suffix = s.partition(";")
        if suffix == "default=inf":
            default = INF
        elif suffix == "default=0":
            default = 0
        else:
            raise SpecSyntaxError(f"bad supernatural suffix {suffix!r}")
        s = body
    if "^" not in s and "*" not in s:
        try:
            n = int(s)
        except ValueError:
            raise SpecSyntaxError(f"bad supernatural literal {text!r}") from None
        if n < 1:
            raise SpecSyntaxError(f"supernatural literal {text!r} is below 1")
        return Supernatural(_parse_decimal(n, text).explicit, default)
    values: dict[int, Exponent] = {}
    for factor in s.split("*"):
        base, caret, exp = factor.partition("^")
        p = parse_prime(base, text)
        if p in values:
            raise SpecSyntaxError(f"prime {p} repeated in {text!r}")
        if caret and not exp:
            raise SpecSyntaxError(f"dangling '^' in {text!r}")
        if not exp:
            e: Exponent = 1
        elif exp == "inf":
            e = INF
        else:
            check_literal_length(exp, text)
            try:
                e = int(exp)
            except ValueError:
                raise SpecSyntaxError(f"bad exponent {exp!r} in {text!r}") from None
            if e < 0:
                raise SpecSyntaxError(f"negative exponent in {text!r}")
        values[p] = e
    return make_supernatural(values, default=default)


def format_exponent_function(f: ExponentFunction) -> str:
    parts = [f"{p}->{format_supernatural(omega)}" for p, omega in f.explicit]
    parts.append(f"default->{format_supernatural(f.default)}")
    return ",".join(parts)


def parse_exponent_function(text: str) -> ExponentFunction:
    s = text.strip()
    if s.startswith("f:"):
        s = s[2:]
    if not s.strip():
        raise SpecSyntaxError(f"empty exponent function literal {text!r}")
    # values hold no ',' or parenthesis, so a plain split finds the entries
    items = [chunk.strip() for chunk in s.split(",")]
    if "" in items:
        raise SpecSyntaxError(f"empty entry in exponent function {text!r}")
    values, default = parse_entries(items, text, "exponent function", parse_supernatural)
    return make_exponent_function(values, ONE if default is None else default)

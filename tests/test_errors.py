"""Bad input to a library function raises a typed `FormatioError`."""

from __future__ import annotations

import pytest

from formatio.arith import factorize, multiplicative_order, nth_prime, prime_index
from formatio.constructions import cyclic
from formatio.errors import FormatioError
from formatio.groups import Subgroup
from formatio.subnormality import is_prime_index_subnormal
from formatio.supernatural import (
    INF,
    Supernatural,
    from_int,
    make_supernatural,
    pair_components,
    pair_index,
    to_int,
)

Z4 = cyclic(4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: is_prime_index_subnormal(Z4, Subgroup(Z4, (1,))), id="not-a-subgroup"),
    pytest.param(lambda: make_supernatural({2: -1}), id="negative-exponent"),
    pytest.param(lambda: Supernatural((), 1), id="default-not-0-or-inf"),
    pytest.param(lambda: Supernatural(((4, 1),)), id="listed-non-prime"),
    pytest.param(lambda: Supernatural(((3, 1), (2, 1))), id="primes-out-of-order"),
    pytest.param(lambda: Supernatural(((2, 0),)), id="entry-equal-to-default"),
    pytest.param(lambda: from_int(0), id="from_int"),
    pytest.param(lambda: to_int(Supernatural(((2, INF),))), id="to_int"),
    pytest.param(lambda: pair_components(0), id="pair_components"),
    pytest.param(lambda: pair_index(0, 1), id="pair_index"),
    pytest.param(lambda: nth_prime(0), id="nth_prime"),
    pytest.param(lambda: prime_index(4), id="prime_index"),
    pytest.param(lambda: factorize(0), id="factorize"),
    pytest.param(lambda: multiplicative_order(2, 4), id="multiplicative_order"),
])
def test_bad_input_raises_a_formatio_error(call):
    with pytest.raises(FormatioError):
        call()

import pytest

from kcalc import arith


@pytest.fixture(autouse=True)
def cold_factorization_memo():
    """Start every test with an empty factorization memo, so that a test of a
    splitting route cannot pass on an answer an earlier test left there."""
    arith._factor_pairs.cache_clear()

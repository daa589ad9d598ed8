"""Tests for the finite-level Hilbert-module identity checks."""

from fractions import Fraction

import pytest

from kcalc import odometer
from kcalc.odometer import CorrespondenceIdentityError, CorrespondenceReport, verify_correspondence_identities
from kcalc.odometer import _inner, _left_action, _right_action


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identities_hold_on_random_samples(k, n):
    report = verify_correspondence_identities(k, n, 100, seed=k * 10 + n)
    assert report == CorrespondenceReport(k, n, 100)
    assert report.samples == 100
    assert report.positivity_checks == 100
    assert report.module_identity_checks == 100
    assert report.rank_one_checks == 100


def test_deterministic_for_fixed_seed():
    a = verify_correspondence_identities(2, 3, 10, seed=5)
    b = verify_correspondence_identities(2, 3, 10, seed=5)
    assert a == b


def test_single_edge_inner_product_is_source_indicator():
    k, n = 2, 3
    xi = tuple(
        tuple(Fraction(1 if (i, x) == (1, 2) else 0) for x in range(n))
        for i in range(k)
    )
    assert _inner(k, n, xi, xi) == (0, 0, 1)


def test_left_action_rotates_vertex_argument():
    k, n = 2, 3
    f = (Fraction(10), Fraction(20), Fraction(30))
    xi = tuple(tuple(Fraction(1) for _ in range(n)) for _ in range(k))
    acted = _left_action(k, n, f, xi)
    # edge (x, i) has range x + 1, so the value at x picks up f(x + 1)
    assert acted[0] == (20, 30, 10)


def test_module_identity_shape():
    k, n = 2, 2
    xi = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    g = (Fraction(5), Fraction(7))
    lhs = _inner(k, n, xi, _right_action(k, n, xi, g))
    rhs = tuple(v * g[x] for x, v in enumerate(_inner(k, n, xi, xi)))
    assert lhs == rhs


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        verify_correspondence_identities(0, 3, 5)
    with pytest.raises(ValueError):
        verify_correspondence_identities(2, 0, 5)
    with pytest.raises(ValueError):
        verify_correspondence_identities(2, 3, -5)


# Each identity check can fail: break the helper it uses and the check raises,
# so a report's count of that check, equal to its samples, counts passed checks.
def test_broken_positivity_raises(monkeypatch):
    monkeypatch.setattr(odometer, "_inner", lambda k, n, xi, eta: tuple(-1 - v for v in _inner(k, n, xi, eta)))
    with pytest.raises(CorrespondenceIdentityError, match="negative"):
        verify_correspondence_identities(2, 3, 1)


def test_broken_module_identity_raises(monkeypatch):
    monkeypatch.setattr(
        odometer, "_right_action", lambda k, n, xi, g: _right_action(k, n, xi, tuple(2 * v for v in g))
    )
    with pytest.raises(CorrespondenceIdentityError, match=r"<xi, eta\.g>"):
        verify_correspondence_identities(2, 3, 1)


def test_broken_rank_one_decomposition_raises(monkeypatch):
    monkeypatch.setattr(odometer, "_left_action", lambda k, n, f, xi: _left_action(k, n, f[::-1], xi))
    with pytest.raises(CorrespondenceIdentityError, match="rank-one"):
        verify_correspondence_identities(2, 3, 1)

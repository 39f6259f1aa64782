"""Counting series: 2-colored partitions and the closed-form characters."""

import itertools

import pytest
from references import geometric, ref_eta_inverse_squared, series_mul, series_one

import tcdo.qseries
from tcdo.qseries import OrderMismatchError, QSeries, char_H1, char_L, eta_inverse_squared


def brute_2colored(j: int) -> int:
    """Count pairs of partitions with total size j by direct enumeration."""

    def partitions(n):
        if n == 0:
            yield ()
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    return sum(
        sum(1 for _ in partitions(a)) * sum(1 for _ in partitions(j - a))
        for a in range(j + 1)
    )


# frozen from the brute-force oracle above
TWO_COLORED = [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]


def test_two_colored_oracle_agrees_with_frozen_table():
    assert [brute_2colored(j) for j in range(len(TWO_COLORED))] == TWO_COLORED


def test_count_2colored_matches_oracle():
    for j, expected in enumerate(TWO_COLORED):
        assert eta_inverse_squared(j).coeffs[j] == expected


def test_eta_inverse_squared_is_the_generating_series():
    eta2 = eta_inverse_squared(10)
    assert list(eta2.coeffs) == TWO_COLORED


def test_geometric_series():
    g = geometric(3, 9)
    assert [g.coeffs[j] for j in range(10)] == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_series_arithmetic_round_trip():
    one = series_one(6)
    g = geometric(2, 6)
    # (1 - q^2) * geometric(2) == 1
    q2 = QSeries((0, 0, 1, 0, 0, 0, 0), 6)
    assert series_mul(one - q2, g) == one


def test_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatchError):
        series_one(4) + series_one(5)
    with pytest.raises(OrderMismatchError):
        series_mul(series_one(4), series_one(5))


def test_char_L_small_values():
    # weight-j coefficient of char_L(n) is (n+1) * p2(j - floor-shifts): here the
    # series is (n+1)/((1-q^(n+1)) prod (1-q^j)^2), checked against convolution
    for n in range(4):
        lhs = char_L(n, 8)
        rhs = (n + 1) * series_mul(geometric(n + 1, 8), eta_inverse_squared(8))
        assert lhs == rhs
    with pytest.raises(ValueError):
        char_L(-1, 4)


def _orders_off_the_convolution(max_order=30, max_n=8):
    """The orders at which a character differs from the convolution reference."""
    off = set()
    for order in range(max_order + 1):
        eta = ref_eta_inverse_squared(order)
        if eta_inverse_squared(order) != eta:
            off.add(order)
        for n in range(max_n + 1):
            want = (n + 1) * series_mul(geometric(n + 1, order), eta)
            if char_L(n, order) != want or char_H1(n, order) != want.shift(n + 1):
                off.add(order)
    return sorted(off)


def test_characters_match_the_convolution_reference():
    # the in-place recurrence against the Cauchy products it replaced
    assert _orders_off_the_convolution() == []


def test_a_top_down_divide_fails_the_convolution_reference(monkeypatch):
    # run from the top, each entry gains the old value p below, so the
    # recurrence divides by (1 - q^p) only to first order
    def top_down(coeffs, p):
        for j in range(len(coeffs) - 1, p - 1, -1):
            coeffs[j] += coeffs[j - p]

    monkeypatch.setattr(tcdo.qseries, "_divide", top_down)
    assert len(_orders_off_the_convolution()) >= 29


def test_char_H1_is_shift_of_char_L():
    for n in range(3):
        h1 = char_H1(n, 9)
        l = char_L(n, 9)
        for j in range(10):
            assert h1.coeffs[j] == (l.coeffs[j - n - 1] if j >= n + 1 else 0)


def test_shift_and_coeff():
    s = geometric(1, 5).shift(2)
    assert s.coeffs[0] == 0 and s.coeffs[1] == 0
    assert all(s.coeffs[j] == 1 for j in range(2, 6))

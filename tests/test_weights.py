import math

import numpy as np
import pytest

from lassoagg.errors import InvalidInputError
from lassoagg.weights import (log_inv_weight, total_mass, verify_weight_bounds,
                              weight_table)


def test_empty_support_weight_is_log_hp():
    for p in (1, 5, 17):
        hp = (math.e - math.exp(-p)) / (math.e - 1.0)
        assert log_inv_weight(p, 0) == pytest.approx(math.log(hp), rel=1e-14)


def test_p1_k0_direct_evaluation():
    # (e - e^-1)/(e - 1) evaluated directly
    expected = math.log((math.e - math.exp(-1)) / (math.e - 1.0))
    assert log_inv_weight(1, 0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.3132616875182228, abs=1e-12)


def test_p4_k2_direct_evaluation():
    hp = (math.e - math.exp(-4)) / (math.e - 1.0)
    expected = math.log(hp) + math.log(6.0) + 2.0
    assert log_inv_weight(4, 2) == pytest.approx(expected, rel=1e-13)


def test_weight_table_matches_pointwise():
    for p in range(1, 400):
        tbl = weight_table(p)
        assert tbl.tolist() == [log_inv_weight(p, k) for k in range(p + 1)]
        assert np.all(tbl >= 0.0)


@pytest.mark.parametrize("p", [1, 2, 4, 10, 33, 64, 65, 1000, 100_000])
def test_weight_bounds_hold(p):
    assert verify_weight_bounds(p) is True


@pytest.mark.parametrize("p", [*range(1, 32), 65, 1000, 100_000])
def test_total_mass_is_one(p):
    assert total_mass(p) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("check", [verify_weight_bounds, total_mass])
def test_weight_checks_reject_an_empty_design(check):
    with pytest.raises(InvalidInputError, match="p must be >= 1"):
        check(0)


def test_total_mass_geometric_identity():
    # sum_k C(p,k) * weight(k) = (1/H_p) * sum_k e^-k, a finite geometric sum
    p = 20
    hp = (math.e - math.exp(-p)) / (math.e - 1.0)
    geo = sum(math.exp(-k) for k in range(p + 1)) / hp
    assert total_mass(p) == pytest.approx(geo, rel=1e-12)
    assert geo == pytest.approx(1.0, abs=1e-12)


def test_monotone_in_k_below_binomial_peak():
    for p in (6, 11, 30):
        vals = [log_inv_weight(p, k) for k in range(p // 2 + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_out_of_range_k_rejected():
    with pytest.raises(InvalidInputError):
        log_inv_weight(4, 5)
    with pytest.raises(InvalidInputError):
        log_inv_weight(4, -1)
    with pytest.raises(InvalidInputError):
        log_inv_weight(0, 0)

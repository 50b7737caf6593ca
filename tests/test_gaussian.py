from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from dirss import ConfigurationError, RandomStream


def test_same_key_is_bit_identical():
    a = RandomStream(123, 7).standard_normal(64)
    b = RandomStream(123, 7).standard_normal(64)
    np.testing.assert_array_equal(a, b)


def test_sample_standard_normal_determinism():
    p1 = RandomStream(5, 2).standard_normal(3)
    p2 = RandomStream(5, 2).standard_normal(3)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (3,)


def test_distinct_stream_ids_differ():
    a = RandomStream(123, 0).standard_normal(64)
    b = RandomStream(123, 1).standard_normal(64)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RandomStream(1, 0).standard_normal(64)
    b = RandomStream(2, 0).standard_normal(64)
    assert not np.array_equal(a, b)


def test_moments_one_dimensional():
    # 3-sigma CLT bounds: sd(mean) = 1/sqrt(n), sd(sample var) ~ sqrt(2/n)
    n = 10**6
    draws = RandomStream(11).standard_normal(n)
    assert abs(draws.mean()) < 3.0 / np.sqrt(n)
    assert abs(draws.var(ddof=1) - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_positive_quadrant_symmetry():
    n = 10**6
    pts = RandomStream(12).standard_normal((n, 2))
    frac = np.mean((pts[:, 0] > 0) & (pts[:, 1] > 0))
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(frac - 0.25) < 3.0 * sigma


def test_kolmogorov_smirnov_against_standard_normal():
    draws = RandomStream(13).standard_normal(10**5)
    result = stats.kstest(draws, stats.norm.cdf)
    assert result.pvalue > 0.001


@pytest.mark.parametrize("seed,stream_id",
                         [(-1, 0), (0, -3), (2**64, 0), (0, 2**64), (True, 0)])
def test_key_out_of_range_rejected(seed, stream_id):
    with pytest.raises(ConfigurationError):
        RandomStream(seed, stream_id)


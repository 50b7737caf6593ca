from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirss import (
    ConfigurationError,
    RandomStream,
    make_angular_sectors_2d,
    make_halfspace,
    make_orthants,
    make_single_bin,
)
from dirss.partition import BLOCK, from_spec

CASE1_CUTS = (-math.pi + 0.8, 0.8)
QUADRANT_CUTS = (-math.pi / 2, 0.0, math.pi / 2, math.pi)
EIGHTH_CUTS = tuple(-3 * math.pi / 4 + k * math.pi / 4 for k in range(8))


def builtin_partitions():
    return [
        make_single_bin(2),
        make_angular_sectors_2d(CASE1_CUTS),
        make_angular_sectors_2d(QUADRANT_CUTS),
        make_angular_sectors_2d(EIGHTH_CUTS),
        make_halfspace(1, 2),
        make_halfspace(2, 2),
        make_orthants(2),
    ]


def test_single_bin():
    part = make_single_bin(2)
    assert part.n_bins == 1
    assert part.classify(np.array([[3.0, -2.0]])).tolist() == [0]
    np.testing.assert_allclose(part.probs, [1.0])
    for dimension in (0, 2.5):
        with pytest.raises(ConfigurationError, match="at least 1"):
            make_single_bin(dimension)


def test_angular_two_equal_sectors():
    part = make_angular_sectors_2d(CASE1_CUTS)
    np.testing.assert_allclose(part.probs, [0.5, 0.5], atol=1e-15)
    # dominant direction (angle 0) in the first sector, secondary (pi/2) in the wrap
    assert part.classify(np.array([[4.0, 0.0], [0.0, 5.0]])).tolist() == [0, 1]


def test_angular_quadrants_and_eighths():
    quad = make_angular_sectors_2d(QUADRANT_CUTS)
    np.testing.assert_allclose(quad.probs, [0.25] * 4, atol=1e-15)
    octo = make_angular_sectors_2d(EIGHTH_CUTS)
    np.testing.assert_allclose(octo.probs, [0.125] * 8, atol=1e-15)
    # the four quadrants land in four distinct bins
    pts = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
    assert len(set(quad.classify(pts).tolist())) == 4


def test_angular_boundary_goes_to_left_closed_sector():
    part = make_angular_sectors_2d(QUADRANT_CUTS)
    # angle exactly on a cut belongs to the sector starting there
    # angle pi/2, just past the cut, just before the cut
    on_cut, inside, before = part.classify(np.array([[0.0, 3.0], [-0.1, 3.0], [0.1, 3.0]]))
    assert on_cut == inside
    assert on_cut != before


# the angles of points on the axes and of (1, 1) are cuts often enough to
# hit the boundary rule exactly
_ANGLES = st.one_of(st.floats(-math.pi, math.pi, exclude_min=True, allow_nan=False),
                    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]))


@given(
    cuts=st.lists(_ANGLES, min_size=2, max_size=8, unique=True).map(sorted),
    scales=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=4),
    others=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=20),
)
def test_angular_sector_is_the_cuts_at_or_below_the_angle(cuts, scales, others):
    # sector j holds the angles in [cuts[j], cuts[j+1]); the angles below the
    # first cut, the ones from the last cut on, and NaN wrap to the last sector
    cuts = np.array(cuts)
    part = make_angular_sectors_2d(cuts)
    rays = np.stack([np.cos(cuts), np.sin(cuts)], axis=1)
    special = [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -0.0], [-1, 0.0], [0, 0], [-0.0, -0.0],
               [1, 1], [math.nan, 0], [0, math.nan], [math.nan, math.nan]]
    pts = np.concatenate([s * rays for s in scales] + [np.array(special), np.reshape(others, (-1, 2))])
    sector = np.arange(cuts.size + 1) - 1
    sector[0] = cuts.size - 1
    expected = sector[cuts.searchsorted(np.arctan2(pts[:, 1], pts[:, 0]), side="right")]
    np.testing.assert_array_equal(part.classify(pts), expected)


def test_angular_validation():
    with pytest.raises(ConfigurationError):
        make_angular_sectors_2d([0.4])
    with pytest.raises(ConfigurationError):
        make_angular_sectors_2d([0.5, 0.5])
    with pytest.raises(ConfigurationError):
        make_angular_sectors_2d([-4.0, 0.0])
    with pytest.raises(ConfigurationError):
        make_angular_sectors_2d([0.0, 3.5])
    for cuts in ([math.nan, 0.8], [-1.0, math.nan, 0.8], [-math.inf, 0.8]):
        with pytest.raises(ConfigurationError, match="finite"):
            make_angular_sectors_2d(cuts)


def test_halfspace_classification():
    part = make_halfspace(2, 2)
    assert part.classify(np.array([[5.0, -1.0]])).tolist() == [0]
    part1 = make_halfspace(1, 2)
    # boundary goes to the >= side
    assert part1.classify(np.array([[-0.1, 9.0], [0.0, 0.0]])).tolist() == [0, 1]
    with pytest.raises(ConfigurationError):
        make_halfspace(3, 2)
    with pytest.raises(ConfigurationError):
        make_halfspace(0, 2)


def test_orthants():
    part = make_orthants(2)
    np.testing.assert_allclose(part.probs, [0.25] * 4)
    plus_plus, also = part.classify(np.array([[1.0, 1.0], [2.0, 0.5]]))
    assert plus_plus == also
    assert make_orthants(3).n_bins == 8
    with pytest.raises(ConfigurationError):
        make_orthants(31)
    for dimension in (0, 2.5):
        with pytest.raises(ConfigurationError, match="at least 1"):
            make_orthants(dimension)


_COORDS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                    st.floats(-1e3, 1e3))


@given(dimension=st.integers(1, 20), data=st.data(), blocks=st.booleans())
def test_orthant_is_the_sign_pattern_of_the_point(dimension, data, blocks):
    # bit d of the bin is set where coordinate d is >= 0, -0.0 included and NaN
    # not: the matmul of the signs, here over more rows than a block too
    rows = data.draw(st.lists(st.lists(_COORDS, min_size=dimension, max_size=dimension),
                              min_size=1, max_size=20))
    pts = np.tile(np.array(rows), (BLOCK // len(rows) + 1 if blocks else 1, 1))
    expected = (pts >= 0.0).astype(np.int64) @ (2 ** np.arange(dimension))
    np.testing.assert_array_equal(make_orthants(dimension).classify(pts), expected)


@pytest.mark.parametrize("part", builtin_partitions(), ids=lambda p: p.kind + str(p.n_bins))
def test_probs_sum_to_one_and_positive(part):
    assert abs(part.probs.sum() - 1.0) < 1e-12
    assert (part.probs > 0).all()


@pytest.mark.parametrize("part", builtin_partitions(), ids=lambda p: p.kind + str(p.n_bins))
def test_cone_structure(part):
    pts = RandomStream(21).standard_normal((300, part.dimension))
    base = part.classify(pts)
    for c in (0.3, 2.0, 25.0):
        np.testing.assert_array_equal(part.classify(c * pts), base)


@pytest.mark.parametrize("part", builtin_partitions(), ids=lambda p: p.kind + str(p.n_bins))
def test_empirical_bin_fractions(part):
    n = 10**5
    pts = RandomStream(22).standard_normal((n, part.dimension))
    counts = np.bincount(part.classify(pts), minlength=part.n_bins)
    sigma = np.sqrt(part.probs * (1.0 - part.probs) / n)
    assert (np.abs(counts / n - part.probs) < 4.0 * sigma + 1e-12).all()


def test_from_spec():
    assert from_spec("single", 3).n_bins == 1
    assert from_spec("angular", 2, cuts=QUADRANT_CUTS).n_bins == 4
    assert from_spec("halfspace", 2, axis=2).n_bins == 2
    assert from_spec("orthants", 2).n_bins == 4
    with pytest.raises(ConfigurationError):
        from_spec("voronoi", 2)
    with pytest.raises(ConfigurationError):
        from_spec("angular", 3, cuts=QUADRANT_CUTS)
    with pytest.raises(ConfigurationError):
        from_spec("angular", 2)
    with pytest.raises(ConfigurationError):
        from_spec("halfspace", 2)

import numpy as np
import pytest

from das import make_swiss_roll
from das.errors import InputError
from helpers import roll_residual


def test_noiseless_points_on_spiral():
    pts = make_swiss_roll(1000, noise=0.0, seed=0)
    assert roll_residual(pts).max() < 1e-9


def test_inside_box():
    for noise in (0.0, 0.1, 0.5):
        pts = make_swiss_roll(2000, noise=noise, seed=1)
        assert np.all(np.abs(pts) <= 3.0)


def test_deterministic():
    np.testing.assert_array_equal(make_swiss_roll(64, 0.05, seed=9), make_swiss_roll(64, 0.05, seed=9))


def test_spans_the_roll():
    pts = make_swiss_roll(5000, noise=0.0, seed=2)
    radii = np.hypot(pts[:, 0], pts[:, 2])
    assert radii.min() < 1.2 and radii.max() > 2.9
    assert pts[:, 1].min() < -2.8 and pts[:, 1].max() > 2.8


def test_needs_positive_count():
    with pytest.raises(InputError):
        make_swiss_roll(0)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpnse.cutoffs import chi, partition, phi, smooth_step


def test_smooth_step_endpoints():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    # interior value from the closed form 1/(1 + exp(1/t - 1/(1-t)))
    t = 0.25
    expected = 1.0 / (1.0 + math.exp(1.0 / t - 1.0 / (1.0 - t)))
    assert smooth_step(t) == pytest.approx(expected, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-2.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=1e-3))
def test_smooth_step_monotone(t, dt):
    assert smooth_step(t + dt) - smooth_step(t) >= -1e-12


def test_chi_plateau_and_support():
    assert chi(0.0) == 1.0
    assert chi(0.5) == 1.0
    assert chi(0.75) == 1.0
    assert chi(4.0 / 3.0) == 0.0
    assert chi(1.5) == 0.0
    # transition midpoint value from the step's closed form
    expected = 1.0 / (1.0 + math.exp(7.0 / 4.0 - 7.0 / 3.0))
    assert chi(1.0) == pytest.approx(expected, rel=1e-15)


def test_phi_support_and_plateau():
    assert phi(0.7) == 0.0
    assert phi(0.75) == 0.0
    assert phi(2.7) == 0.0
    assert phi(8.0 / 3.0) == 0.0
    np.testing.assert_allclose(phi(np.linspace(4.0 / 3.0, 1.5, 50)), 1.0)


def test_profiles_bounded():
    r = np.linspace(0.0, 8.0, 4001)
    for vals in (chi(r), phi(r)):
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0)


def test_chi_nonincreasing():
    r = np.linspace(0.0, 3.0, 2001)
    vals = chi(r)
    assert np.all(np.diff(vals) <= 1e-15)


@pytest.mark.parametrize("levels", [0, 1, 3, 6])
def test_partition_telescopes(levels):
    # chi + sum of shells collapses to the dilated low-pass exactly
    r = np.linspace(0.0, 0.75 * 2.0 ** (levels + 1), 3001)
    total = partition(r, levels)
    np.testing.assert_allclose(total, chi(r / 2.0 ** (levels + 1)),
                               rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-14)


def test_partition_unity_residual():
    levels = 6
    r = np.linspace(0.0, 0.75 * 2.0 ** (levels + 1), 4097)
    residual = np.max(np.abs(partition(r, levels) - 1.0))
    assert residual <= 1e-14


"""Property tests of the svec lift and the LU stability verdict."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multinoise import is_mean_square_stable, moment_operator, spectral_radius
from multinoise.stability import _mss_holds, _svec_lift

from conftest import VERDICT_BAND

#: derandomized, so that every run draws the same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def instances(draw):
    """A seeded closed loop with 0-3 directions, n in 1..5."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_cl = rng.normal(size=(n, n))
    dirs = [(rng.normal(size=(n, n)), float(rng.uniform(0.0, 1.0)))
            for _ in range(p)]
    return A_cl, dirs


@PROPERTY
@given(instances(), st.floats(0.05, 20.0))
def test_svec_lift_homogeneous_of_degree_two(instance, c):
    A_cl, dirs = instance
    S = _svec_lift(A_cl, dirs)
    scaled = _svec_lift(c * A_cl, [(c * D, a) for D, a in dirs])
    np.testing.assert_allclose(scaled, c * c * S, rtol=1e-12,
                               atol=1e-12 * c * c * np.abs(S).max())


@PROPERTY
@given(instances(),
       st.floats(0.01, 4.0).filter(lambda r: abs(r - 1.0) > 2 * VERDICT_BAND))
def test_lu_verdict_agrees_with_radius_outside_band(instance, target):
    A0, dirs0 = instance
    r0 = spectral_radius(moment_operator(A0, dirs0))
    assume(r0 > 0.0)
    # rescaled to the target radius, as in conftest.random_mss_instance
    s = np.sqrt(target / r0)
    A_cl, dirs = s * A0, [(D, s * s * a) for D, a in dirs0]
    mss, _ = is_mean_square_stable(A_cl, dirs)
    assert _mss_holds(A_cl, dirs) == mss == (target < 1.0)

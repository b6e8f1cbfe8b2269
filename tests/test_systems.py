import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab as e
from ergolab.systems import DoublingPoint, FloatBits, make_system

PLAN = e.RandomPlan(1234)


def test_rotation_step_and_orbit():
    sys_r = make_system(e.rotation(0.25))
    assert sys_r.step(0.1) == pytest.approx(0.35)
    orb = sys_r.orbit(0.1, 5)
    assert orb[4] == pytest.approx(0.1 + 4 * 0.25 - 1.0)
    # orbit values match repeated stepping
    np.testing.assert_allclose(sys_r.value_orbit(0.1, 5), orb)


def test_rotation_invertible():
    sys_r = make_system(e.rotation(e.GOLDEN))
    x = 0.37
    assert sys_r.step(sys_r.step(x, 5), -5) == pytest.approx(x)


def test_rotation_param_validation():
    with pytest.raises(e.InvalidParameterError):
        e.rotation(1.5)
    with pytest.raises(e.InvalidParameterError):
        e.bernoulli_shift(0.0)
    with pytest.raises(e.InvalidParameterError):
        e.odometer(1)


def test_doubling_matches_float_iteration():
    """First ~40 iterates of a dyadic point agree with plain 2x mod 1."""
    sys_d = make_system(e.doubling())
    x = 0.371238462  # binary expansion of a float: 53 bits, exact
    vals = sys_d.value_orbit(x, 40)
    y = x
    for i in range(40):
        assert vals[i] == pytest.approx(y, abs=1e-3)
        y = (2 * y) % 1.0


def test_doubling_two_sided_inverse():
    sys_d = make_system(e.doubling())
    p = sys_d.sample_measure(1, PLAN)[0]
    q = sys_d.step(sys_d.step(p, 3), -3)
    assert q.value == p.value
    np.testing.assert_array_equal(q.bits(-5, 20), p.bits(-5, 20))


def test_doubling_halving_relation():
    # T^{-1} of the natural extension halves the value (up to the new bit)
    sys_d = make_system(e.doubling())
    p = sys_d.sample_measure(1, PLAN)[0]
    back = sys_d.step(p, -1)
    assert sys_d.step(back).value == pytest.approx(p.value, abs=1e-15)


def test_bernoulli_shift_moves_coordinates():
    sys_b = make_system(e.bernoulli_shift(0.5))
    x = sys_b.sample_measure(1, PLAN)[0]
    y = sys_b.step(x, 3)
    np.testing.assert_array_equal(x.symbols(3, 10), y.symbols(0, 7))


def test_bernoulli_symbols_reproducible():
    sys_b = make_system(e.bernoulli_shift(0.5))
    x = sys_b.sample_measure(1, PLAN)[0]
    np.testing.assert_array_equal(x.symbols(-4, 4), x.symbols(-4, 4))


def test_bernoulli_marginals():
    """Symbol frequencies follow the (1-p, p/(k-1)...) convention."""
    sys_b = make_system(e.bernoulli_shift(0.3, 4))
    x = sys_b.sample_measure(1, PLAN)[0]
    syms = x.symbols(0, 40000)
    counts = np.bincount(syms, minlength=4)
    probs = [0.7, 0.1, 0.1, 0.1]
    assert e.frequency_check(counts, probs, tolerance_sigmas=5)


def test_sturmian_group_law_exact():
    # shifting the origin equals advancing the angle: no drift at n = 10^6
    sys_s = make_system(e.sturmian(e.GOLDEN))
    x = sys_s.point(0.2)
    far = sys_s.step(x, 10**6)
    assert sys_s.rows([far], 0, 1)[0, 0] == sys_s.rows([x], 10**6, 10**6 + 1)[0, 0]


def test_odometer_carry_chain():
    sys_o = make_system(e.odometer(2))
    x = sys_o.point(digits=(1, 1, 1, 0))
    y = sys_o.step(x)  # 1+1 carries three places
    np.testing.assert_array_equal(y.digits(4), [0, 0, 0, 1])
    z = sys_o.step(y, -1)
    np.testing.assert_array_equal(z.digits(4), [1, 1, 1, 0])


def test_product_metric_is_max():
    spec = e.product(e.rotation(0.1), e.rotation(0.2))
    sys_p = make_system(spec)
    a, b = (0.0, 0.0), (0.1, 0.3)
    assert sys_p.metric(a, b) == pytest.approx(0.3)


def test_spec_json_roundtrip():
    for spec in [
        e.rotation(0.25),
        e.doubling(),
        e.bernoulli_shift(0.4, 3),
        e.sturmian(0.3),
        e.odometer(3),
        e.identity(),
        e.product(e.rotation(0.1), e.doubling()),
    ]:
        assert e.spec_from_json(spec.to_json()) == spec


def test_is_rational_angle():
    assert e.is_rational_angle(0.5)
    assert not e.is_rational_angle(e.GOLDEN)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=50, deadline=None)
def test_floatbits_reconstructs_value(x):
    p = DoublingPoint(FloatBits.from_float(x))
    assert p.value == pytest.approx(x, abs=2**-52)


@given(st.integers(min_value=0, max_value=2**31), st.integers(-50, 50))
@settings(max_examples=50, deadline=None)
def test_metric_symmetry_and_identity(seed, k):
    sys_b = make_system(e.bernoulli_shift(0.5))
    x, y = sys_b.sample_measure(2, e.RandomPlan(seed))
    assert sys_b.metric(x, y) == sys_b.metric(y, x)
    assert sys_b.metric(x, x) == 0.0
    # shifting both preserves the stream relation
    assert sys_b.metric(sys_b.step(x, k), sys_b.step(x, k)) == 0.0


def test_measure_invariance_rotation():
    """Push-forward of sampled measure under T keeps cell frequencies."""
    sys_r = make_system(e.rotation(e.GOLDEN))
    pts = sys_r.sample_measure(20000, PLAN)
    stepped = (pts + sys_r.theta) % 1.0
    for cloud in (pts, stepped):
        counts = np.histogram(cloud, bins=4, range=(0, 1))[0]
        assert e.frequency_check(counts, [0.25] * 4, tolerance_sigmas=5)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridweld.coupling import (ALPHA_BLOCK, ALPHA2_BLOCK,
                               aggregate_current_d_to_t,
                               distribute_dual_t_to_d,
                               distribute_voltage_t_to_d, poi_voltage_price,
                               port_dual_prices, round_trip_check)
from gridweld.netmodel import CouplingSpec

from oracles import ALPHA


def port(kappa=1.0):
    return CouplingSpec("t", "d", s_base=kappa * 7500.0, v_base=7500.0)


def as_complex(pair_or_six):
    arr = np.asarray(pair_or_six)
    return arr[0::2] + 1j * arr[1::2]


def test_rotation_block_identities():
    assert np.allclose(ALPHA_BLOCK @ ALPHA_BLOCK, ALPHA2_BLOCK, atol=1e-15)
    a3 = ALPHA_BLOCK @ ALPHA_BLOCK @ ALPHA_BLOCK
    assert np.max(np.abs(a3 - np.eye(2))) < 1e-14
    s = np.eye(2) + ALPHA_BLOCK + ALPHA2_BLOCK
    assert np.max(np.abs(s)) < 1e-14
    # orthonormal rotations
    assert np.allclose(ALPHA_BLOCK @ ALPHA_BLOCK.T, np.eye(2), atol=1e-15)


def test_aggregate_balanced_set_is_identity():
    p = port(kappa=1.0)
    i_abc = []
    for ph_rot in (1.0, ALPHA ** 2, ALPHA):
        c = ph_rot * (1.0 + 0j)
        i_abc += [c.real, c.imag]
    assert aggregate_current_d_to_t(p, i_abc) == pytest.approx((1.0, 0.0),
                                                               abs=1e-15)


def test_aggregate_zero():
    assert aggregate_current_d_to_t(port(2.0), np.zeros(6)).tolist() == [0.0, 0.0]


def test_aggregate_unbalanced_matches_complex_oracle(rng):
    p = port(kappa=2.0)
    got = aggregate_current_d_to_t(p, [1, 0, 0, 0, 0, 0])
    assert got == pytest.approx((1.0 / 6.0, 0.0), abs=1e-15)
    for _ in range(20):
        vals = rng.standard_normal(6)
        ia, ib, ic = as_complex(vals)
        want = (ia + ALPHA * ib + ALPHA ** 2 * ic) / (3 * p.kappa)
        got = aggregate_current_d_to_t(p, vals)
        assert got[0] == pytest.approx(want.real, abs=1e-14)
        assert got[1] == pytest.approx(want.imag, abs=1e-14)


def test_distribute_voltage_balanced_positive_sequence():
    out = as_complex(distribute_voltage_t_to_d(port(), 1.0, 0.0))
    assert out[0] == pytest.approx(1.0 + 0j, abs=1e-15)
    assert out[1] == pytest.approx(np.exp(-2j * np.pi / 3), abs=1e-15)
    assert out[2] == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-15)


def test_distribute_voltage_zero():
    assert np.all(distribute_voltage_t_to_d(port(), 0.0, 0.0) == 0.0)


def test_distribute_voltage_preserves_magnitude():
    v = 0.98 + 0.05j
    out = as_complex(distribute_voltage_t_to_d(port(3.3), v.real, v.imag))
    want = abs(v)
    assert np.allclose(np.abs(out), want, atol=1e-14)
    assert out[1] == pytest.approx(v * ALPHA ** 2, abs=1e-14)
    assert out[2] == pytest.approx(v * ALPHA, abs=1e-14)


def test_distribute_dual_stated_form():
    out = distribute_dual_t_to_d(port(kappa=1.0), 2.0, 0.0)
    assert out[:2] == pytest.approx((2.0, 0.0), abs=1e-14)
    assert out[2:4] == pytest.approx((-1.0, -np.sqrt(3.0)), abs=1e-14)
    assert out[4:6] == pytest.approx((-1.0, np.sqrt(3.0)), abs=1e-14)
    assert np.all(distribute_dual_t_to_d(port(), 0.0, 0.0) == 0.0)


def test_distribute_dual_matches_complex_oracle(rng):
    p = port(kappa=3.7)
    for _ in range(10):
        lam = rng.standard_normal(2)
        out = as_complex(distribute_dual_t_to_d(p, lam[0], lam[1]))
        lc = lam[0] + 1j * lam[1]
        want = np.array([lc, ALPHA ** 2 * lc, ALPHA * lc]) / p.kappa
        assert np.max(np.abs(out - want)) < 1e-14


def test_distribute_dual_is_linear(rng):
    p = port(kappa=1.9)
    a = rng.standard_normal(2)
    b = rng.standard_normal(2)
    c = 3.7
    f = lambda v: distribute_dual_t_to_d(p, v[0], v[1])
    assert np.allclose(f(c * a), c * f(a), rtol=0, atol=1e-15)
    assert np.allclose(f(a + b), f(a) + f(b), rtol=0, atol=1e-15)


def test_port_dual_prices_is_adjoint_of_aggregation(rng):
    p = port(kappa=2.4)
    for _ in range(10):
        lam = rng.standard_normal(2)
        i_abc = rng.standard_normal(6)
        lhs = np.dot(port_dual_prices(p, lam[0], lam[1]), i_abc)
        rhs = np.dot(lam, aggregate_current_d_to_t(p, i_abc))
        assert lhs == pytest.approx(rhs, rel=1e-13)
    # stated closed form equals the adjoint up to the aggregation's 1/3
    lam = rng.standard_normal(2)
    assert np.allclose(port_dual_prices(p, *lam),
                       np.asarray(distribute_dual_t_to_d(p, *lam)) / 3.0,
                       atol=1e-15)


def test_real_t_side_inputs_give_conjugate_bc_pairs(rng):
    p = port()
    for fn in (distribute_voltage_t_to_d, distribute_dual_t_to_d):
        out = as_complex(fn(p, 1.3, 0.0))
        assert out[1] == pytest.approx(np.conj(out[2]), abs=1e-14)


def test_round_trip_balanced():
    assert round_trip_check(port(), 1.0, 0.0) < 1e-12
    assert round_trip_check(port(5.0), 0.0, 0.0) == 0.0


def test_round_trip_random_balanced(rng):
    for _ in range(10):
        v = rng.standard_normal(2)
        kappa = float(rng.uniform(0.3, 80.0))
        assert round_trip_check(port(kappa), v[0], v[1],
                                load_g=1.3, load_b=-0.4) < 1e-12


_FINITE = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(kappa=st.floats(0.3, 80.0), n=st.integers(1, 5),
       values=st.lists(_FINITE, min_size=30, max_size=30))
def test_port_maps_on_a_block_are_columnwise_and_v_price_is_adjoint(kappa, n, values):
    """Each port map applied to a 2-D block maps it column by column, so
    the exchange and its sensitivity rows share one code path; and the
    POI-voltage price is the adjoint of the voltage distribution:
    <D^T g, v> = <g, D v>.  A block and a vector product may round apart
    in the last bit (numpy takes another BLAS kernel for each), so columns
    are held to a few ulps of the largest input; on an identity block,
    the form the coupling rows stamp, every map is exact."""
    p = port(kappa)
    maps = [(6, lambda m: aggregate_current_d_to_t(p, m)),
            (6, lambda m: poi_voltage_price(p, m)),
            (2, lambda m: distribute_voltage_t_to_d(p, *m)),
            (2, lambda m: distribute_dual_t_to_d(p, *m)),
            (2, lambda m: port_dual_prices(p, *m))]
    ulps = 16 * np.finfo(float).eps * max(1.0, 1.0 / kappa)
    for k, fn in maps:
        block = np.reshape(values[:k * n], (k, n))
        got = fn(block)
        cols = np.array([fn(col) for col in block.T]).T
        assert got.shape == cols.shape == (cols.shape[0], n)
        assert np.max(np.abs(got - cols)) <= ulps * max(np.abs(block).max(), 1.0)
        eye = np.eye(k)
        assert np.array_equal(fn(eye), np.array([fn(e) for e in eye]).T)
    g, v = np.array(values[:6]), np.array(values[6:8])
    lhs = poi_voltage_price(p, g) @ v
    rhs = g @ distribute_voltage_t_to_d(p, *v)
    assert abs(lhs - rhs) <= 1e-14 * (np.abs(g).sum() * np.abs(v).sum() + 1.0)

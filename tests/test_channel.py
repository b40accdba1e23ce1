"""Propagation and fast-fading model checks against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmimo import (LargeScale, friis_db, los_probability, o2i_penetration,
                     o2i_wall_loss_db, pathloss)
from devmimo.channel import (assemble_channel, gen_rays, local_link,
                             realize_links)
from devmimo.scenario import bs_port_array, rot_y, rot_z, ue_array, ula


def test_urban_macro_los_pathloss_reference_point():
    assert abs(pathloss(100.0, 2.0, los=True) - 78.02) < 0.01


def test_urban_macro_nlos_pathloss_reference_point():
    assert abs(pathloss(100.0, 2.0, los=False) - 97.72) < 0.01


def test_pathloss_monotone_in_distance():
    for los in (True, False):
        assert pathloss(200.0, 2.0, los) > pathloss(100.0, 2.0, los)


def test_pathloss_rejects_subunit_distance():
    with pytest.raises(ValueError):
        pathloss(0.5, 2.0, True)


def test_nlos_never_below_los_floor():
    d = np.linspace(10.0, 2000.0, 200)
    assert np.all(pathloss(d, 2.0, False) >= pathloss(d, 2.0, True) - 1e-9)


def test_los_probability_bounds_and_short_range():
    assert los_probability(10.0) == 1.0
    d = np.linspace(1.0, 1000.0, 100)
    p = los_probability(d)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert los_probability(500.0) < los_probability(50.0)


def test_low_loss_wall_reference_point():
    assert abs(o2i_wall_loss_db(2.0) - 11.83) < 0.01


def test_high_loss_wall_exceeds_low_loss():
    assert o2i_wall_loss_db(2.0, high_loss=True) > o2i_wall_loss_db(2.0)


def test_indoor_depth_adds_half_db_per_meter():
    base = o2i_penetration(2.0, 0.0)
    assert abs(o2i_penetration(2.0, 10.0) - base - 5.0) < 1e-9
    # an array of depths equals the per-element scalar calls
    depth = np.array([0.0, 2.5, 10.0, 24.0])
    arr = o2i_penetration(6.0, depth)
    assert arr.shape == depth.shape
    assert np.array_equal(arr, [o2i_penetration(6.0, d) for d in depth])
    # with a generator, one spread draw per element in element order
    arr = o2i_penetration(6.0, depth, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    assert np.array_equal(arr, [o2i_penetration(6.0, d, rng) for d in depth])
    assert isinstance(o2i_penetration(6.0, 3.0, rng), float)


def test_penetration_rejects_negative_depth():
    with pytest.raises(ValueError):
        o2i_penetration(2.0, -1.0)


def test_friis_reference_points():
    assert abs(friis_db(1.0, 6.0) - 48.01) < 0.01
    assert abs(friis_db(1.0, 2.0) - 38.47) < 0.01


def test_ray_powers_normalized():
    rng = np.random.default_rng(0)
    for los in (True, False):
        rays = gen_rays(np.zeros(3), np.array([50.0, 10.0, 0.0]), los, rng)
        assert abs(float(np.sum(rays.power)) - 1.0) < 1e-9
        assert np.all(rays.delay >= 0.0)


def test_pure_los_limit_single_geometric_ray():
    rng = np.random.default_rng(1)
    tx, rx = np.zeros(3), np.array([30.0, 40.0, 0.0])
    rays = gen_rays(tx, rx, los=True, rng=rng, n_clusters=0)
    assert rays.n_rays == 1
    assert abs(rays.aod_az[0] - math.degrees(math.atan2(40.0, 30.0))) < 1e-9
    assert abs(rays.delay[0] - 50.0 / 3e8) < 1e-15


def test_strong_rician_factor_concentrates_power_on_los_ray():
    rng = np.random.default_rng(2)
    rays = gen_rays(np.zeros(3), np.array([50.0, 0.0, 0.0]), True, rng,
                    k_factor_db=40.0)
    assert rays.power[0] > 0.99


def test_single_ray_scalar_channel_magnitude():
    large = LargeScale(pathloss_db=80.0, los=True)
    rng = np.random.default_rng(3)
    rays = gen_rays(np.zeros(3), np.array([50.0, 0.0, 1.0]), True, rng,
                    n_clusters=0)
    one = ula(1, 0.0)
    h = assemble_channel(rays, one, np.eye(3), one, np.eye(3), large,
                         np.array([0.0]), 2.0).h
    assert abs(abs(h[0, 0, 0]) - math.sqrt(large.linear)) < 1e-12


def test_zero_delay_spread_is_frequency_flat():
    large = LargeScale(pathloss_db=60.0, los=True)
    rng = np.random.default_rng(4)
    rays = gen_rays(np.zeros(3), np.array([50.0, 5.0, 1.0]), True, rng,
                    delay_rms_s=1e-30)
    rays.delay[:] = 0.0
    arr = ula(2, 0.075)
    h = assemble_channel(rays, arr, np.eye(3), arr, np.eye(3), large,
                         np.array([-1e6, 0.0, 1e6]), 2.0).h
    assert np.allclose(h[0], h[1], atol=1e-12)
    assert np.allclose(h[1], h[2], atol=1e-12)


def test_channel_normalization_monte_carlo():
    large = LargeScale(pathloss_db=70.0, los=False)
    rng = np.random.default_rng(5)
    tx = ula(4, 0.075)
    rx = ula(2, 0.075)
    sc = np.array([0.0])
    acc = 0.0
    n_mc = 1000
    for _ in range(n_mc):
        rays = gen_rays(np.zeros(3), np.array([120.0, 30.0, 1.0]), False, rng)
        h = assemble_channel(rays, tx, np.eye(3), rx, np.eye(3), large,
                             sc, 2.0).h
        acc += float(np.sum(np.abs(h) ** 2))
    ratio = acc / n_mc / (4 * 2 * large.linear)
    assert 0.95 <= ratio <= 1.05


def _local_link(prim_xyz, helper_xyz, n_ant=4):
    elem = ula(n_ant, 0.025).positions
    return local_link(np.array([helper_xyz], float), np.eye(3)[None], elem,
                      np.array([prim_xyz], float), np.eye(3)[None], elem,
                      6.0, 1.0)


def test_local_link_friis_reference_and_rank_one():
    h = _local_link([0.0, 0.0, 1.5], [1.0, 0.0, 1.5])
    assert h.shape == (1, 4, 4)
    assert np.allclose(-20.0 * np.log10(np.abs(h)), 48.01, atol=0.01)
    s = np.linalg.svd(h[0], compute_uv=False)
    assert s[0] > 0
    assert s[1] / s[0] < 1e-9      # single-ray outer product is rank one


def test_local_link_rejects_coincident_devices():
    with pytest.raises(ValueError):
        _local_link([0.0, 0.0, 1.5], [0.0, 0.0, 1.5], n_ant=2)


_coord = st.floats(-300.0, 300.0)
_angle = st.floats(-180.0, 180.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), los=st.booleans(),
       tx_xy=st.tuples(_coord, _coord), rx_xy=st.tuples(_coord, _coord),
       tx_az=_angle, tilt=st.floats(0.0, 20.0),
       rx_az=_angle, rx_tilt=_angle, loss_db=st.floats(60.0, 160.0))
def test_batched_realization_matches_ray_assembly(seed, los, tx_xy, rx_xy,
                                                  tx_az, tilt, rx_az, rx_tilt,
                                                  loss_db):
    """channel.realize_links on a batch of one equals gen_rays followed by
    assemble_channel drawn from the same generator state."""
    f_ghz = 2.0
    subc = (np.arange(6) - 2.5) * 1.44e6
    bs, ue = bs_port_array(8, f_ghz), ue_array(4, f_ghz)
    tx_pos = np.array([tx_xy[0], tx_xy[1], 25.0])
    rx_pos = np.array([rx_xy[0], rx_xy[1], 1.5])
    tx_rot = rot_z(tx_az) @ rot_y(tilt)
    rx_rot = rot_z(rx_az) @ rot_y(rx_tilt)

    h = realize_links(np.random.default_rng(seed), f_ghz, subc,
                      tx_pos[None], rx_pos[None], tx_rot[None], rx_rot[None],
                      bs.positions, ue.positions,
                      np.array([10.0 ** (-loss_db / 20.0)]), np.array([los]),
                      tx_sector=True)[0]
    rays = gen_rays(tx_pos, rx_pos, los, np.random.default_rng(seed))
    ref = assemble_channel(rays, bs, tx_rot, ue, rx_rot,
                           LargeScale(loss_db, los=los), subc, f_ghz).h
    assert h.shape == ref.shape == (6, 4, 8)
    assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)

"""Propagation and fast-fading model checks against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from reference import ray_channel

from devmimo import (channel, friis_db, los_probability, o2i_penetration,
                     o2i_wall_loss_db, pathloss)
from devmimo.channel import local_link, realize_links
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


ONE = np.zeros((1, 3))              # one isotropic element at the origin
BS, UE = bs_port_array(8, 2.0), ue_array(4, 2.0)
SUBC = np.array([-1e6, 0.0, 2e6])


def _realize(seed, n, tx_elem, rx_elem, los=True):
    """realize_links at 2 GHz on n BS-to-UE links with random ends,
    orientations and losses.  Returns h, the channels of the lone
    geometric ray (the free-space local link rescaled to `amp`, delayed
    by |rx - tx| / c), that delay's phase ramp and `amp`."""
    rng = np.random.default_rng(seed)
    tx = np.column_stack([rng.uniform(-300, 300, (n, 2)), np.full(n, 25.0)])
    rx = np.column_stack([rng.uniform(-300, 300, (n, 2)), np.full(n, 1.5)])
    rots = Rotation.random(2 * n, rng).as_matrix().reshape(2, n, 3, 3)
    amp = 10.0 ** (-rng.uniform(60.0, 160.0, n) / 20.0)
    h = realize_links(rng, 2.0, SUBC, tx, rx, *rots, tx_elem, rx_elem, amp,
                      np.broadcast_to(los, n))
    ray = local_link(tx, rots[0], tx_elem, rx, rots[1], rx_elem, 2.0, 1.0)
    ray *= (amp * 10.0 ** (friis_db(1.0, 2.0) / 20.0))[:, None, None]
    tau = np.linalg.norm(rx - tx, axis=1) / channel.C_LIGHT
    ramp = np.exp(-2j * math.pi * tau[:, None] * SUBC)[..., None, None]
    return h, ramp * ray[:, None], ramp, amp[:, None, None, None]


class _SharedDraws:
    """Generator stand-in for a batch of R = N_CLUSTERS + 1 links: every
    link draws the first link's delays, powers and angles, and link m the
    cluster phases 2 pi m r / R (r = 1..N_CLUSTERS; the LOS ray, r = 0,
    keeps phase 0).  Over the batch the phases run through the R-point
    DFT, so the batch mean of |h|^2 is exactly sum_r p_r for isotropic
    elements."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        return lambda *args: np.repeat(
            draw(*args[:-1], (1,) + args[-1][1:]), args[-1][0], axis=0)

    def uniform(self, low, high, size):
        m, r = np.indices(size)
        return 2.0 * math.pi * m * (r + 1) / (size[1] + 1)


def test_ray_powers_normalized():
    n = channel.N_CLUSTERS + 1
    tx = np.tile([0.0, 0.0, 25.0], (n, 1))
    rx = np.tile([50.0, 10.0, 1.5], (n, 1))
    rot = np.broadcast_to(np.eye(3), (n, 3, 3))
    for seed, los in enumerate((True, False)):
        h = realize_links(_SharedDraws(seed), 2.0, SUBC, tx, rx, rot, rot,
                          BS, UE, np.full(n, 1e-4), np.full(n, los))
        power = np.mean(np.abs(h) ** 2, axis=0) / 1e-8
        assert power.shape == (3, 4, 8)
        assert np.allclose(power, 1.0, rtol=0.0, atol=1e-12)


def test_pure_los_limit_single_geometric_ray(monkeypatch):
    monkeypatch.setattr(channel, "K_FACTOR_DB", 400.0)   # p_LOS == 1.0
    h, ray, _, _ = _realize(1, 16, BS, UE)
    assert h.shape == ray.shape == (16, 3, 4, 8)
    assert np.all(np.sum(np.abs(h - ray) ** 2, axis=(1, 2, 3))
                  <= 1e-24 * np.sum(np.abs(ray) ** 2, axis=(1, 2, 3)))


def test_strong_rician_factor_concentrates_power_on_los_ray(monkeypatch):
    monkeypatch.setattr(channel, "K_FACTOR_DB", 40.0)
    h, ray, _, _ = _realize(2, 64, BS, UE)
    assert np.all(np.sum(np.abs(h - ray) ** 2, axis=(1, 2, 3))
                  < 0.01 * np.sum(np.abs(ray) ** 2, axis=(1, 2, 3)))


def test_single_ray_scalar_channel_magnitude(monkeypatch):
    monkeypatch.setattr(channel, "K_FACTOR_DB", 400.0)
    h, _, _, amp = _realize(3, 32, ONE, ONE)
    assert np.allclose(np.abs(h), amp, rtol=1e-12, atol=0.0)
    # on boresight a sector element adds its 8 dBi maximum gain
    h = realize_links(np.random.default_rng(3), 2.0, SUBC,
                      np.array([[0.0, 0.0, 1.5]]), np.array([[5.0, 0, 1.5]]),
                      np.eye(3)[None], np.eye(3)[None], ONE, ONE,
                      np.array([1e-4]), np.array([True]), tx_sector=True)
    assert np.allclose(np.abs(h), 1e-4 * 10.0 ** (8.0 / 20.0), rtol=1e-12)


def test_zero_delay_spread_is_frequency_flat(monkeypatch):
    monkeypatch.setattr(channel, "DELAY_RMS_S", 1e-30)
    h, _, ramp, amp = _realize(4, 16, BS, UE, los=np.arange(16) % 2 == 0)
    # once the bulk propagation delay is taken out, every subband is equal
    flat = h / ramp / amp
    assert np.allclose(flat, flat[:, :1], rtol=0.0, atol=1e-12)


def test_channel_normalization_monte_carlo():
    n_mc = 8000
    tx, rx = np.zeros((n_mc, 3)), np.tile([120.0, 30.0, 1.0], (n_mc, 1))
    rot = np.broadcast_to(np.eye(3), (n_mc, 3, 3))
    amp = 10.0 ** (-70.0 / 20.0)
    for seed, los in enumerate((False, True)):
        h = realize_links(np.random.default_rng(5 + seed), 2.0, SUBC, tx, rx,
                          rot, rot, BS, UE, np.full(n_mc, amp),
                          np.full(n_mc, los))
        assert 0.95 <= np.mean(np.abs(h) ** 2) / amp ** 2 <= 1.05


def _local_link(prim_xyz, helper_xyz, n_ant=4):
    elem = ula(n_ant, 0.025)
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
       uplink=st.booleans(),
       bs_xy=st.tuples(_coord, _coord), ue_xy=st.tuples(_coord, _coord),
       bs_az=_angle, tilt=st.floats(0.0, 20.0),
       ue_az=_angle, ue_tilt=_angle, loss_db=st.floats(60.0, 160.0))
def test_batched_realization_matches_ray_assembly(seed, los, uplink, bs_xy,
                                                  ue_xy, bs_az, tilt, ue_az,
                                                  ue_tilt, loss_db):
    """channel.realize_links on a batch of one equals the ray-by-ray
    reference drawn from the same generator state, BS to UE with the
    sector pattern at the transmitter or, with `uplink`, UE to BS with it
    at the receiver."""
    subc = (np.arange(6) - 2.5) * 1.44e6
    bs = (np.array([*bs_xy, 25.0]), rot_z(bs_az) @ rot_y(tilt), BS)
    ue = (np.array([*ue_xy, 1.5]), rot_z(ue_az) @ rot_y(ue_tilt), UE)
    (tx_pos, tx_rot, tx_elem), (rx_pos, rx_rot, rx_elem) = \
        (ue, bs) if uplink else (bs, ue)
    sector = dict(tx_sector=not uplink, rx_sector=uplink)

    h = realize_links(np.random.default_rng(seed), 2.0, subc, tx_pos[None],
                      rx_pos[None], tx_rot[None], rx_rot[None], tx_elem,
                      rx_elem, np.array([10.0 ** (-loss_db / 20.0)]),
                      np.array([los]), **sector)[0]
    ref = ray_channel(np.random.default_rng(seed), 2.0, subc, tx_pos, rx_pos,
                      tx_rot, rx_rot, tx_elem, rx_elem, loss_db, los, **sector)
    assert h.shape == ref.shape == (6, len(rx_elem), len(tx_elem))
    assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)

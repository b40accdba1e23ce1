"""Deployment geometry: hex layout, wraparound, device dropping, config."""

import math

import numpy as np
import pytest

from devmimo import (ConfigurationError, ScenarioConfig, build_hex_layout,
                     drop_ues, engine)
from devmimo import channel as ch
from devmimo.scenario import rot_y, rot_z, ula, wraparound_vectors


def _wrap(a, b, lay):
    return wraparound_vectors(np.asarray(a)[None], np.asarray(b)[None],
                              lay)[0, 0]


def test_single_site_layout():
    lay = build_hex_layout(0, 200.0)
    assert lay.n_sites == 1
    assert lay.n_cells == 3


def test_one_ring_layout():
    lay = build_hex_layout(1, 200.0)
    assert lay.n_sites == 7
    assert lay.n_cells == 21


def test_two_ring_layout_counts_and_spacing():
    lay = build_hex_layout(2, 200.0)
    assert lay.n_sites == 19
    assert lay.n_cells == 57
    # every site's nearest neighbor sits exactly one inter-site distance away
    d = np.linalg.norm(lay.site_positions[:, None] - lay.site_positions[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert np.allclose(d.min(axis=1), 200.0)


def test_site_count_formula():
    for n in range(4):
        assert build_hex_layout(n, 150.0).n_sites == 1 + 3 * n * (n + 1)


def test_sector_azimuths():
    lay = build_hex_layout(1, 200.0)
    assert np.allclose(lay.cell_azimuth_deg.reshape(-1, 3),
                       [0.0, 120.0, 240.0])


def test_layout_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        build_hex_layout(-1, 200.0)
    with pytest.raises(ConfigurationError):
        build_hex_layout(1, 0.0)


def test_wraparound_identical_points():
    lay = build_hex_layout(1, 200.0)
    v = _wrap(np.array([10.0, -5.0]), np.array([10.0, -5.0]), lay)
    assert np.allclose(v, 0.0)


def test_wraparound_no_rings_is_plain_difference():
    lay = build_hex_layout(0, 200.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(-500, 500, 2), rng.uniform(-500, 500, 2)
        assert np.allclose(_wrap(a, b, lay), b - a)


def test_wraparound_never_longer_than_direct():
    lay = build_hex_layout(2, 200.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = rng.uniform(-600, 600, 2), rng.uniform(-600, 600, 2)
        v = _wrap(a, b, lay)
        assert np.linalg.norm(v) <= np.linalg.norm(b - a) + 1e-9


def test_drop_counts():
    cfg = ScenarioConfig(num_rings=1)
    lay = build_hex_layout(1, cfg.isd)
    prim_pos, prim_rot, help_pos, help_rot = drop_ues(
        lay, cfg, np.random.default_rng(0))
    assert prim_pos.shape == help_pos.shape == (210, 3)
    assert prim_rot.shape == help_rot.shape == (210, 3, 3)


def test_helper_distance_exactly_configured():
    for dist in (1.0, 2.5):
        cfg = ScenarioConfig(num_rings=0, helper_distance_m=dist)
        lay = build_hex_layout(0, cfg.isd)
        prim_pos, _, help_pos, _ = drop_ues(lay, cfg,
                                            np.random.default_rng(1))
        d = np.linalg.norm(help_pos - prim_pos, axis=1)
        assert np.allclose(d, dist, rtol=0.0, atol=1e-9)


def test_drop_is_deterministic_per_seed():
    cfg = ScenarioConfig(num_rings=0)
    lay = build_hex_layout(0, cfg.isd)
    d1 = drop_ues(lay, cfg, np.random.default_rng(7))
    d2 = drop_ues(lay, cfg, np.random.default_rng(7))
    for a, b in zip(d1, d2):
        assert np.array_equal(a, b)
    for r in (d1[1], d1[3]):
        assert np.allclose(r @ r.transpose(0, 2, 1), np.eye(3), atol=1e-9)


def test_helper_bearings_cover_the_circle():
    # chi-square uniformity of the helper bearing over 8 bins
    cfg = ScenarioConfig(num_rings=1)
    lay = build_hex_layout(1, cfg.isd)
    prim_pos, _, help_pos, _ = drop_ues(lay, cfg, np.random.default_rng(11))
    d = help_pos - prim_pos
    bearings = np.arctan2(d[:, 1], d[:, 0])
    counts, _ = np.histogram(bearings, bins=8, range=(-math.pi, math.pi))
    n = len(bearings)
    chi2 = float(np.sum((counts - n / 8) ** 2 / (n / 8)))
    assert chi2 < 24.3  # chi2(7 dof) at p = 0.001


def test_rotations_orthonormal():
    for deg in (0.0, 37.5, 90.0, 210.0):
        for r in (rot_z(deg), rot_y(deg)):
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)


def test_ula_element_count_and_finiteness():
    pos = ula(4, 0.025, axis=1)
    assert pos.shape == (4, 3)
    assert np.all(np.isfinite(pos))
    assert np.allclose(pos[:, 1], [-0.0375, -0.0125, 0.0125, 0.0375])
    assert not np.any(pos[:, [0, 2]])


def test_one_bs_height_moves_pathloss_and_drop_geometry(monkeypatch):
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=2)
    pl_ref = ch.pathloss(100.0, 2.0, True)
    assert np.all(engine.build_drop_geometry(cfg, 0).prim.bs_eff[..., 2]
                  == 25.0)
    # at 5 m the LOS breakpoint falls to 53 m, inside the 100 m point
    monkeypatch.setattr(ch, "BS_HEIGHT_M", 5.0)
    assert ch.pathloss(100.0, 2.0, True) > pl_ref + 1.0
    geo = engine.build_drop_geometry(cfg, 0)
    assert np.all(geo.prim.bs_eff[..., 2] == 5.0)
    assert np.all(geo.help.bs_eff[..., 2] == 5.0)


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(isd=-5.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(f_low_ghz=6.0, f_high_ghz=2.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(ues_per_cell=0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(bandwidth_mhz=0.1)  # below one resource block


@pytest.mark.parametrize("key, value", [
    ("f_low_ghz", 0.0), ("f_low_ghz", -1.0),
    ("ue_dl_config", (2,)), ("ue_dl_config", (2, 4.5)),
    ("ue_dl_config", (2, 0)), ("ue_dl_config", 4),
    ("ue_ul_config", (2, 2, 2)), ("ue_ul_config", ("2", 2)),
], ids=lambda v: v if isinstance(v, str) else repr(v).replace(" ", ""))
def test_config_error_names_its_key(key, value):
    with pytest.raises(ConfigurationError, match=f"^{key} "):
        ScenarioConfig(**{key: value})


def test_config_accepts_numpy_int_antenna_counts():
    cfg = ScenarioConfig(ue_dl_config=(np.int64(1), 2), ue_ul_config=[1, 1])
    assert cfg.ue_dl_config[1] == 2


def test_config_derived_quantities():
    cfg = ScenarioConfig()
    assert cfg.n_prb == 27        # 10 MHz at 30 kHz subcarriers
    assert cfg.n_subbands == 6
    assert abs(cfg.slot_s - 0.5e-3) < 1e-12
    assert (cfg.n_slots, cfg.n_refreshes) == (2000, 400)   # 1 s, every 5
    short = cfg.replace(sim_duration_s=0.0375, channel_update_slots=25)
    assert (short.n_slots, short.n_refreshes) == (75, 3)
    assert cfg.replace(sim_duration_s=1e-5).n_slots == 1
    centers = cfg.subband_centers_hz()
    assert len(centers) == cfg.n_subbands
    assert abs(float(np.mean(centers))) < 1e-6


def test_primaries_in_their_sector_cell():
    cfg = ScenarioConfig(num_rings=0)
    lay = build_hex_layout(0, cfg.isd)
    prim_pos, _, _, _ = drop_ues(lay, cfg, np.random.default_rng(5))
    r = np.linalg.norm(prim_pos[:, :2], axis=1)
    assert np.all(r >= 35.0 - 1e-9)           # site exclusion radius
    assert np.all(r <= cfg.isd / math.sqrt(3.0) + 1e-9)  # hexagon circumradius


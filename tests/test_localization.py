"""Virtual arrays, non-coherent direction finding, and position fixes."""

import math
import multiprocessing
import os

import numpy as np
import pytest

from devmimo import (Case, EstimationError, ScenarioConfig,
                     build_virtual_array, localize, noncoherent_aoa,
                     run_loc_experiment, steering_vector)
from devmimo import _blocks, localization
from devmimo.localization import (VirtualArray, _ensemble, _spectrum,
                                  _device_covariances, aoa_error_deg,
                                  synthesize_snapshots)
from devmimo.scenario import rot_z, ula
from reference import median_aoa_error


F_GHZ = 2.0
LAM = 3e8 / (F_GHZ * 1e9)


def _two_device_array():
    return build_virtual_array([
        (np.zeros(3), np.eye(3), ula(2, LAM / 2)),
        (np.array([0.3, 0.0, -0.5]), rot_z(90.0), ula(2, LAM / 2)),
    ])


def test_virtual_array_counts_and_boundaries():
    va = _two_device_array()
    assert va.element_pos.shape == (4, 3)
    assert list(va.elements_of(0)) == [0, 1]
    assert list(va.elements_of(1)) == [2, 3]


def test_virtual_array_pure_translation():
    t = np.array([1.0, -2.0, 0.5])
    base = build_virtual_array([(np.zeros(3), np.eye(3), ula(2, 0.05))])
    moved = build_virtual_array([(t, np.eye(3), ula(2, 0.05))])
    assert np.allclose(moved.element_pos - base.element_pos, t)


def test_largest_ensemble_has_twelve_elements():
    devices = _ensemble("loc3", F_GHZ, np.random.default_rng(0))
    va = build_virtual_array(devices)
    assert va.element_pos.shape[0] == 2 + 2 + 4 + 4
    assert va.n_devices == 4


def test_virtual_array_rejects_empty_device_list():
    with pytest.raises(Exception):
        build_virtual_array([])


def test_steering_broadside_all_ones():
    va = build_virtual_array([(np.zeros(3), np.eye(3), ula(4, LAM / 2))])
    a = steering_vector(va, 90.0, 0.0, F_GHZ)
    assert np.allclose(a, 1.0, atol=1e-12)


def test_steering_endfire_alternating_signs():
    va = build_virtual_array([(np.zeros(3), np.eye(3), ula(4, LAM / 2))])
    a = steering_vector(va, 0.0, 0.0, F_GHZ)
    ref = a / a[0]
    assert np.allclose(ref, [1.0, -1.0, 1.0, -1.0], atol=1e-9)


def test_steering_unit_modulus():
    va = _two_device_array()
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = steering_vector(va, rng.uniform(-180, 180), rng.uniform(-90, 90),
                            F_GHZ)
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)


def _single_path_snapshots(va, az, el, rng, n_tones=64):
    a = steering_vector(va, az, el, F_GHZ)
    x = a[:, None] * np.exp(1j * rng.uniform(0, 2 * math.pi, n_tones))[None]
    for d in range(va.n_devices):
        idx = va.elements_of(d)
        x[idx] *= np.exp(1j * rng.uniform(0, 2 * math.pi))
    return x


def test_two_device_estimate_within_one_degree():
    rng = np.random.default_rng(4)
    va = _two_device_array()
    x = _single_path_snapshots(va, 30.0, 20.0, rng)
    az, el = noncoherent_aoa(va, x, F_GHZ)
    assert aoa_error_deg(az, el, 30.0, 20.0) < 1.0


def test_single_axis_array_cone_ambiguity():
    # a 2-element x-axis array only senses cos(el)·cos(az): directions
    # (60, 0) and (0, 60) share that projection, hence the same response
    va = build_virtual_array([(np.zeros(3), np.eye(3), ula(2, LAM / 2))])
    a1 = steering_vector(va, 60.0, 0.0, F_GHZ)
    a2 = steering_vector(va, 0.0, 60.0, F_GHZ)
    assert np.allclose(a1 / a1[0], a2 / a2[0], atol=1e-9)


def test_spectrum_invariant_to_device_phases():
    rng = np.random.default_rng(5)
    va = _two_device_array()
    x = _single_path_snapshots(va, -40.0, 35.0, rng)
    az_grid = np.arange(-180.0, 180.0, 10.0)
    el_grid = np.arange(0.0, 90.0, 10.0)
    base = _spectrum(va, _device_covariances(va, x), az_grid, el_grid,
                     F_GHZ, "bartlett")
    y = x.copy()
    for d in range(va.n_devices):
        y[va.elements_of(d)] *= np.exp(1j * rng.uniform(0, 2 * math.pi))
    rot = _spectrum(va, _device_covariances(va, y), az_grid, el_grid,
                    F_GHZ, "bartlett")
    assert np.max(np.abs(rot - base)) <= 1e-12 * np.max(base)


def test_spectrum_invariant_to_device_order():
    rng = np.random.default_rng(6)
    d1 = (np.zeros(3), np.eye(3), ula(2, LAM / 2))
    d2 = (np.array([0.3, 0.0, -0.5]), rot_z(90.0), ula(2, LAM / 2))
    va_a = build_virtual_array([d1, d2])
    va_b = build_virtual_array([d2, d1])
    x = _single_path_snapshots(va_a, 70.0, 10.0, rng)
    x_sw = np.concatenate([x[2:], x[:2]])
    grids = (np.arange(-180.0, 180.0, 15.0), np.arange(0.0, 90.0, 15.0))
    s_a = _spectrum(va_a, _device_covariances(va_a, x), *grids, F_GHZ,
                    "bartlett")
    s_b = _spectrum(va_b, _device_covariances(va_b, x_sw), *grids, F_GHZ,
                    "bartlett")
    assert np.allclose(s_a, s_b, atol=1e-12 * np.max(s_a))


def test_aoa_estimator_input_validation():
    va = _two_device_array()
    with pytest.raises(EstimationError):
        noncoherent_aoa(va, np.ones((3, 8), complex), F_GHZ)
    with pytest.raises(EstimationError):
        noncoherent_aoa(va, np.zeros((4, 8), complex), F_GHZ)
    bad = np.ones((4, 8), complex)
    bad[0, 0] = np.nan
    with pytest.raises(EstimationError):
        noncoherent_aoa(va, bad, F_GHZ)


def _clear_memos():
    for memo in (localization._GRID_UNITS, localization._STEER,
                 localization._SEEN):
        memo.clear()


@pytest.fixture
def cold_memo():
    _clear_memos()


@pytest.mark.parametrize("arg, value", [
    ("method", "foo"),
    ("snapshots", np.ones(4, complex)),
    ("snapshots", np.ones((4, 0), complex)),
], ids=["method", "snapshots-1d", "snapshots-no-samples"])
def test_aoa_estimator_rejects_bad_argument_by_name(arg, value, cold_memo):
    va = _two_device_array()
    kwargs = {"snapshots": np.ones((4, 8), complex), arg: value}
    with pytest.raises(EstimationError, match=arg):
        noncoherent_aoa(va, f_ghz=F_GHZ, **kwargs)
    assert not (localization._GRID_UNITS or localization._SEEN
                or localization._STEER)


def _reference_spectrum(va, covs, az_grid, el_grid, f_ghz, method):
    """The spectrum with every steering tensor built from scratch."""
    az, el = np.meshgrid(az_grid, el_grid, indexing="ij")
    total = np.zeros(az.shape)
    for d in range(va.n_devices):
        idx = va.elements_of(d)
        sub = VirtualArray(va.element_pos[idx], np.zeros(len(idx), int), 1)
        a = steering_vector(sub, az, el, f_ghz)
        if method == "bartlett":
            total += np.real(np.einsum("nae,nm,mae->ae", a.conj(), covs[d],
                                       a)) / len(idx)
        else:
            en = np.linalg.eigh(covs[d])[1][:, :-1]
            proj = np.einsum("nk,nae->kae", en.conj(), a)
            denom = np.einsum("kae,kae->ae", proj.conj(), proj).real
            total += len(idx) / np.maximum(denom, 1e-18)
    return total


@pytest.mark.parametrize("method", ["bartlett", "music"])
def test_spectrum_memo_is_bit_exact(method, cold_memo):
    rng = np.random.default_rng(9)
    va = _two_device_array()
    covs = _device_covariances(va, _single_path_snapshots(va, 50.0, 30.0,
                                                          rng))
    grid = (np.arange(-180.0, 180.0, 2.0), np.arange(0.0, 90.5, 2.0))
    ref = _reference_spectrum(va, covs, *grid, F_GHZ, method)
    for _ in range(3):              # met once, kept, then read from the memo
        assert np.array_equal(_spectrum(va, covs, *grid, F_GHZ, method), ref)
    assert len(localization._STEER) == va.n_devices
    az3, el3 = np.arange(-180.0, 180.0, 3.0), np.arange(0.0, 90.5, 3.0)
    for f_ghz, g in ((3.5, grid), (F_GHZ, (az3, grid[1])),
                     (F_GHZ, (grid[0], el3))):
        fresh = _reference_spectrum(va, covs, *g, f_ghz, method)
        for _ in range(3):
            assert np.array_equal(_spectrum(va, covs, *g, f_ghz, method),
                                  fresh)


@pytest.mark.parametrize("case", [Case.LOC2, Case.LOC3])
def test_loc_experiment_same_with_cold_and_warm_memo(case, cold_memo):
    cfg = ScenarioConfig(loc_users=6, loc_snr_db=10.0, case=case)
    cold = run_loc_experiment(cfg, seed=3)
    assert localization._STEER
    assert run_loc_experiment(cfg, seed=3) == cold


def test_steering_memo_keeps_only_fixed_devices(cold_memo, monkeypatch):
    kept = []
    put = localization._lru_put

    def record(memo, key, value, slots):
        if memo is localization._STEER:
            kept.append(key[1])
        put(memo, key, value, slots)

    monkeypatch.setattr(localization, "_lru_put", record)
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 7)
    cfg = ScenarioConfig(loc_users=8, loc_snr_db=10.0, case=Case.LOC3)
    va = build_virtual_array(_ensemble("loc2", cfg.f_low_ghz, None))
    fixed = {va.element_pos[va.elements_of(d)].tobytes() for d in (0, 1)}
    for cpus in (1, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        _clear_memos()
        kept.clear()
        run_loc_experiment(cfg, seed=0)
        assert set(kept) == fixed
        assert {key[1] for key in localization._STEER} == fixed


def _bits(x):
    return x.dtype, x.shape, x.strides, x.tobytes()


@pytest.mark.parametrize("method", ["bartlett", "music"])
def test_spectrum_bits_do_not_depend_on_the_cpu_count(method, monkeypatch):
    # ragged blocks: blocks of at most 7 rows split 360 azimuths into 52
    # (2 CPUs) or 54 (3 CPUs) blocks of 6 or 7; each grid is searched cold,
    # at the second sighting and from the memo
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 7)
    rng = np.random.default_rng(5)
    va = build_virtual_array(_ensemble("loc3", F_GHZ, rng))
    covs = _device_covariances(va, _single_path_snapshots(va, -40.0, 25.0,
                                                          rng))
    grids = [(localization.AZ_GRID, localization.EL_GRID),
             (np.arange(-180.0, 180.0, 4.0), np.arange(0.0, 90.5, 3.0))]
    got = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        _clear_memos()
        got.append([_bits(_spectrum(va, covs, *g, F_GHZ, method))
                    for g in grids for _ in range(3)])
    assert got[1] == got[0] and got[2] == got[0]


@pytest.mark.parametrize("method", ["bartlett", "music"])
def test_loc_experiment_does_not_depend_on_the_cpu_count(method, cold_memo,
                                                         monkeypatch):
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 7)
    cfg = ScenarioConfig(loc_users=6, loc_snr_db=10.0, case=Case.LOC3,
                         loc_method=method)
    got = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        got.append(run_loc_experiment(cfg, seed=2))
    assert got[1] == got[0] and got[2] == got[0]


def _record_bits(results):
    return [[(type(v), np.array(v).tobytes()) for v in vars(r).values()]
            for r in results]


_FORK = pytest.mark.skipif(_blocks._START_METHOD != "fork",
                           reason="the OS has no safe fork")


@pytest.mark.parametrize("start", [pytest.param("fork", marks=_FORK),
                                   "spawn"])
def test_loc_experiment_does_not_depend_on_the_process_count(start,
                                                             monkeypatch):
    # 7 users on 3 processes run as 3 + 2 + 2, and the records come back
    # in user order with the bits of one process
    monkeypatch.setattr(_blocks, "_START_METHOD", start)
    cfgs = [ScenarioConfig(loc_users=7, loc_snr_db=10.0, case=case)
            for case in (Case.LOC1, Case.LOC3)]
    got = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        got.append([_record_bits(run_loc_experiment(cfg, seed=1))
                    for cfg in cfgs])
        assert not multiprocessing.active_children()
    assert got[1] == got[0] and got[2] == got[0]


@_FORK
@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_failing_trial_raises_in_the_caller_and_leaves_no_worker(
        monkeypatch, where):
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    caller = os.getpid()
    aoa = localization.noncoherent_aoa

    def failing(*args, **kwargs):
        if (os.getpid() == caller) == (where == "caller"):
            raise EstimationError(f"trial failed in the {where}")
        return aoa(*args, **kwargs)

    monkeypatch.setattr(localization, "noncoherent_aoa", failing)
    with pytest.raises(EstimationError) as err:
        run_loc_experiment(ScenarioConfig(loc_users=4, case=Case.LOC1))
    assert err.type is EstimationError
    assert str(err.value) == f"trial failed in the {where}"
    assert ("in a worker process" in str(err.value.__cause__)) \
        == (where == "worker")
    assert not multiprocessing.active_children()


def test_single_ray_peak_within_one_grid_cell():
    rng = np.random.default_rng(7)
    va = build_virtual_array([(np.zeros(3), np.eye(3),
                               ula(4, LAM / 2, axis=0)),
                              (np.zeros(3), rot_z(90.0),
                               ula(4, LAM / 2, axis=0))])
    x = synthesize_snapshots(va, 25.0, 40.0, F_GHZ, snr_db=20.0, rng=rng)
    az, el = noncoherent_aoa(va, x, F_GHZ)
    assert aoa_error_deg(az, el, 25.0, 40.0) < 5.0


def test_position_fix_reference_points():
    anchor = np.array([100.0, 0.0, 25.0])
    truth = anchor - 100.0 * np.array([1.0, 0.0, 0.0])
    assert np.allclose(localize(anchor, 0.0, 0.0, 100.0), truth, atol=1e-9)
    # pure range error maps one-to-one into position error
    off = localize(anchor, 0.0, 0.0, 103.0)
    assert abs(np.linalg.norm(off - truth) - 3.0) < 1e-9
    # one degree of angle error at 100 m is about an arc length of 1.745 m
    skew = localize(anchor, 1.0, 0.0, 100.0)
    err = float(np.linalg.norm(skew - truth))
    assert abs(err - 1.745) <= 0.02 * 1.745


def test_angular_error_reference_points():
    assert aoa_error_deg(12.0, 34.0, 12.0, 34.0) < 1e-9
    assert abs(aoa_error_deg(0.0, 0.0, 90.0, 0.0) - 90.0) < 1e-9
    assert abs(aoa_error_deg(10.0, 0.0, 0.0, 0.0) - 10.0) < 1e-9


def test_augmentation_ladder_small_population():
    cfg = ScenarioConfig(loc_users=40, loc_snr_db=10.0)
    med = {}
    for case in (Case.LOC1, Case.LOC2, Case.LOC3):
        res = run_loc_experiment(cfg.replace(case=case), seed=0)
        assert len(res) == 40
        assert all(r.case == case.value for r in res)
        med[case] = median_aoa_error(res)
    assert med[Case.LOC2] < med[Case.LOC1]
    assert med[Case.LOC3] <= med[Case.LOC2] + 1e-9


def test_wider_reference_band_never_hurts():
    rng0 = np.random.default_rng(8)
    va = _two_device_array()
    errs = {120: [], 240: []}
    for trial in range(60):
        az = rng0.uniform(-180.0, 180.0)
        el = math.degrees(math.asin(rng0.uniform(0.0, 1.0)))
        for n_tones in (120, 240):
            rng = np.random.default_rng((trial, n_tones))
            x = synthesize_snapshots(va, az, el, F_GHZ, snr_db=0.0, rng=rng,
                                     n_tones=n_tones)
            est_az, est_el = noncoherent_aoa(va, x, F_GHZ)
            errs[n_tones].append(aoa_error_deg(est_az, est_el, az, el))
    assert np.median(errs[240]) <= np.median(errs[120]) + 1e-9


def test_azimuth_peak_on_the_minus_180_bin_wraps_toward_179():
    # the full-turn azimuth grid ends at 179, so the -180 bin's other
    # neighbour is +179 and a source at 179.7 interpolates past the seam
    rng = np.random.default_rng(9)
    va = _two_device_array()
    x = _single_path_snapshots(va, 179.7, 20.0, rng)
    spec = _spectrum(va, _device_covariances(va, x),
                     np.arange(-180.0, 180.0, 1.0), np.arange(0.0, 90.5, 1.0),
                     F_GHZ, "bartlett")
    assert np.unravel_index(np.argmax(spec), spec.shape)[0] == 0
    az, el = noncoherent_aoa(va, x, F_GHZ)
    assert 179.0 < az < 180.0
    assert aoa_error_deg(az, el, 179.7, 20.0) < 0.5

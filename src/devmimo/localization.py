"""Uplink-signal-based direction finding with a user-side distributed array.

A primary device and its nearby companions form a virtual receive array.
Per-device spatial covariances are combined non-coherently, so unknown
per-device timing/phase offsets and device orderings do not affect the
spectrum.  The refined arrival direction plus a ranging estimate yields a
position fix.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _blocks
from . import channel as ch
from .errors import ConfigurationError, EstimationError
from .scenario import ScenarioConfig, half_wavelength_m, rot_z, ula

SSB_SUBCARRIERS = 240
SSB_SCS_HZ = 30e3

# Search grid [deg]: a full turn of azimuth; elevation above the horizon,
# which also resolves the mirror ambiguity of planar device sub-arrays.
AZ_GRID = np.arange(-180.0, 180.0, 1.0)
EL_GRID = np.arange(0.0, 90.5, 1.0)


@dataclass(frozen=True)
class VirtualArray:
    """Element positions grouped by owning device, primary frame."""
    element_pos: np.ndarray       # (n, 3) meters
    device_of_element: np.ndarray  # (n,) int
    n_devices: int

    def elements_of(self, d: int) -> np.ndarray:
        return np.flatnonzero(self.device_of_element == d)


def build_virtual_array(devices) -> VirtualArray:
    """Stack device arrays into one virtual aperture.

    `devices` is a list of (position (3,), rotation (3,3), element
    positions (n, 3)) expressed in the primary's local frame.
    """
    if not devices:
        raise ConfigurationError("virtual array needs at least one device")
    pos, owner = [], []
    for i, (p, r, elem) in enumerate(devices):
        pos.append(np.asarray(p) + np.asarray(elem) @ np.asarray(r).T)
        owner.append(np.full(len(elem), i))
    return VirtualArray(np.concatenate(pos), np.concatenate(owner),
                        len(devices))


def steering_vector(va: VirtualArray, az_deg, el_deg,
                    f_ghz: float) -> np.ndarray:
    """Plane-wave response (n_elements, ...) of the virtual array."""
    return ch.plane_wave(va.element_pos, ch.direction_unit(az_deg, el_deg),
                         f_ghz)


def _device_covariances(va: VirtualArray, snapshots: np.ndarray):
    """Sample covariance per device from virtual-array snapshots (n, T)."""
    covs = []
    t = snapshots.shape[1]
    for d in range(va.n_devices):
        idx = va.elements_of(d)
        x = snapshots[idx]
        covs.append(x @ x.conj().T / t)
    return covs


# Search-grid memos.  Grid unit vectors are keyed by the grid bytes.  A
# device's grid steering is keyed by its element positions, frequency and
# grid, and is kept only from its second sighting on: devices with a fixed
# pose (the wearable and handset) are then computed twice, while the loc3
# units, posed at random every trial, never take a memo slot.  Each memo
# holds a few entries and evicts the least recently used; kept arrays are
# read-only.
_GRID_SLOTS, _STEER_SLOTS, _SEEN_SLOTS = 2, 4, 8
_GRID_UNITS: OrderedDict = OrderedDict()   # grid key -> (A, E, 3)
_STEER: OrderedDict = OrderedDict()        # steering key -> (n, A, E)
_SEEN: OrderedDict = OrderedDict()         # steering keys met once, no array


def _lru_put(memo: OrderedDict, key, value, slots: int) -> None:
    memo[key] = value
    memo.move_to_end(key)
    if len(memo) > slots:
        memo.popitem(last=False)


def _grid_units(az_grid, el_grid):
    """(key, unit vectors (A, E, 3)) of the az × el search grid."""
    az_grid = np.asarray(az_grid, dtype=float)
    el_grid = np.asarray(el_grid, dtype=float)
    key = (az_grid.tobytes(), el_grid.tobytes())
    u = _GRID_UNITS.get(key)
    if u is None:
        u = ch.direction_unit(*np.meshgrid(az_grid, el_grid, indexing="ij"))
        u.flags.writeable = False
    _lru_put(_GRID_UNITS, key, u, _GRID_SLOTS)
    return key, u


def _grid_steering(pos: np.ndarray, grid_key, u: np.ndarray,
                   f_ghz: float):
    """Kept steering (n, A, E) of elements `pos` over a grid from
    `_grid_units`, or None for a device met the first time, whose steering
    the spectrum blocks build and drop."""
    key = (pos.shape, pos.tobytes(), f_ghz, grid_key)
    a = _STEER.get(key)
    if a is not None:
        _STEER.move_to_end(key)
        return a
    if key not in _SEEN:
        _lru_put(_SEEN, key, None, _SEEN_SLOTS)
        return None
    del _SEEN[key]                         # second sighting: keep it
    a = ch.plane_wave(pos, u, f_ghz)
    a.flags.writeable = False
    _lru_put(_STEER, key, a, _STEER_SLOTS)
    return a


def _spectrum(va: VirtualArray, covs, az_grid, el_grid, f_ghz: float,
              method: str) -> np.ndarray:
    """Combined spectrum (A, E), computed in blocks of azimuth rows on
    the usable CPUs.  The memos, and MUSIC's noise subspaces, are
    resolved on the calling thread first."""
    grid_key, u = _grid_units(az_grid, el_grid)
    fresh, kept, weights = [], [], []
    for d in range(va.n_devices):
        pos = va.element_pos[va.elements_of(d)]
        a = _grid_steering(pos, grid_key, u, f_ghz)
        fresh.append(pos if a is None else None)    # built per block
        if a is not None:
            kept.append(np.moveaxis(a, 1, 0))   # azimuth rows lead
        if method == "bartlett":
            weights.append(covs[d])
        else:  # MUSIC with a single-source signal subspace
            en = np.linalg.eigh(covs[d])[1][:, :-1]          # noise subspace
            weights.append(en.conj())

    def rows(u_rows, *kept_rows):
        kept_rows = iter(kept_rows)
        total = np.zeros(u_rows.shape[:-1])
        for pos, w in zip(fresh, weights):
            a = (np.moveaxis(next(kept_rows), 0, 1) if pos is None
                 else ch.plane_wave(pos, u_rows, f_ghz))
            n = len(a)
            if method == "bartlett":
                num = np.real(np.einsum("nae,nm,mae->ae", a.conj(), w, a))
                total += num / n
            else:
                proj = np.einsum("nk,nae->kae", w, a)
                denom = np.einsum("kae,kae->ae", proj.conj(), proj).real
                total += n / np.maximum(denom, 1e-18)
        return total

    return _blocks.map_rows(rows, u, *kept)


def _refine(grid: np.ndarray, i: int, vals: np.ndarray,
            circular: bool = False) -> float:
    """Quadratic peak interpolation on a uniform grid; on a `circular`
    (full-turn azimuth) grid the end bins are neighbours and the result
    wraps into [-180, 180)."""
    if not circular and (i == 0 or i == len(grid) - 1):
        return float(grid[i])
    y0, y1, y2 = vals[i - 1], vals[i], vals[(i + 1) % len(grid)]
    denom = y0 - 2.0 * y1 + y2
    if abs(denom) < 1e-18:
        return float(grid[i])
    step = 0.5 * (y0 - y2) / denom
    x = float(grid[i] + np.clip(step, -1.0, 1.0) * (grid[1] - grid[0]))
    return x if -180.0 <= x < 180.0 or not circular \
        else (x + 180.0) % 360.0 - 180.0


def noncoherent_aoa(va: VirtualArray, snapshots: np.ndarray, f_ghz: float,
                    method: str = "bartlett") -> tuple:
    """Arrival direction from non-coherently combined device spectra,
    searched over AZ_GRID × EL_GRID and refined between grid points.

    Returns (az_deg, el_deg).
    """
    if method not in ("bartlett", "music"):
        raise EstimationError(f"method must be 'bartlett' or 'music', "
                              f"got {method!r}")
    snapshots = np.asarray(snapshots)
    if snapshots.ndim != 2 or snapshots.shape[1] == 0:
        raise EstimationError("snapshots must be 2-D (elements, samples) "
                              "with at least one sample")
    if snapshots.shape[0] != va.element_pos.shape[0]:
        raise EstimationError("snapshot rows must match virtual elements")
    if not np.all(np.isfinite(snapshots)):
        raise EstimationError("non-finite snapshots")
    if np.max(np.abs(snapshots)) < 1e-15:
        raise EstimationError("all-zero snapshots")
    covs = _device_covariances(va, snapshots)
    spec = _spectrum(va, covs, AZ_GRID, EL_GRID, f_ghz, method)
    i, j = np.unravel_index(np.argmax(spec), spec.shape)
    return (_refine(AZ_GRID, i, spec[:, j], circular=True),
            _refine(EL_GRID, j, spec[i, :]))


def aoa_error_deg(az1, el1, az2, el2) -> float:
    """Great-circle angle between two directions [deg]."""
    u = ch.direction_unit(az1, el1)
    v = ch.direction_unit(az2, el2)
    return float(np.degrees(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0))))


def localize(anchor_pos: np.ndarray, az_deg: float, el_deg: float,
             range_m: float) -> np.ndarray:
    """Position fix: walk `range_m` from the anchor along the direction
    opposite to the measured arrival direction at the device."""
    u = ch.direction_unit(az_deg, el_deg)
    return np.asarray(anchor_pos, dtype=float) - range_m * u


# ---------------------------------------------------------------------------
# device ensembles for the three augmentation levels
# ---------------------------------------------------------------------------

def _ensemble(case: str, f_ghz: float, rng: np.random.Generator):
    """Device list in the primary frame for each augmentation level.

    loc1: wearable only (2 elements).  loc2: + handset with an orthogonal
    axis.  loc3: + two larger fixed units a few meters away.
    """
    lam2 = half_wavelength_m(f_ghz)
    wearable = (np.zeros(3), np.eye(3), ula(2, lam2))
    devices = [wearable]
    if case in ("loc2", "loc3"):
        # crossed horizontal axis: the remaining mirror ambiguity flips the
        # elevation sign, which the above-horizon search removes
        handset = (np.array([0.3, 0.0, -0.5]), rot_z(90.0), ula(2, lam2))
        devices.append(handset)
    if case == "loc3":
        planar = np.zeros((4, 3))
        planar[:, 0] = np.repeat([-lam2 / 2, lam2 / 2], 2)
        planar[:, 2] = np.tile([-lam2 / 2, lam2 / 2], 2)
        for _ in range(2):
            r = rng.uniform(3.0, 5.0)
            th = rng.uniform(0.0, 2.0 * math.pi)
            pos = np.array([r * math.cos(th), r * math.sin(th), 0.5])
            devices.append((pos, rot_z(rng.uniform(0.0, 360.0)), planar))
    return devices


@dataclass(frozen=True)
class LocResult:
    user: int
    case: str
    true_az: float
    true_el: float
    est_az: float
    est_el: float
    aoa_err_deg: float
    pos_err_m: float


def synthesize_snapshots(va: VirtualArray, az: float, el: float, f_ghz: float,
                         snr_db: float, rng: np.random.Generator,
                         n_tones: int = SSB_SUBCARRIERS) -> np.ndarray:
    """Synchronization-block snapshots across the virtual array.

    One geometric LOS ray plus weak clusters, per-device unknown
    timing/phase, additive noise at the given per-element SNR.
    """
    tones = (np.arange(n_tones) - (n_tones - 1) / 2.0) * SSB_SCS_HZ
    k_lin = 10.0 ** (ch.K_FACTOR_DB / 10.0)
    n_c = ch.N_CLUSTERS
    c_az = az + rng.laplace(0.0, ch.AZ_SPREAD_DEG / math.sqrt(2.0), n_c)
    c_el = el + rng.laplace(0.0, ch.EL_SPREAD_DEG / math.sqrt(2.0), n_c)
    c_tau = rng.exponential(ch.DELAY_RMS_S, n_c)
    c_phi = rng.uniform(0.0, 2.0 * math.pi, n_c)
    w = np.exp(-c_tau / ch.DELAY_RMS_S) * 10.0 ** (
        rng.normal(0.0, ch.CLUSTER_SHADOW_STD_DB, n_c) / 10.0)
    w /= w.sum()
    p = np.concatenate([[k_lin / (k_lin + 1.0)], w / (k_lin + 1.0)])
    ray_az = np.concatenate([[az], c_az])
    ray_el = np.concatenate([[el], c_el])
    tau = np.concatenate([[0.0], c_tau])
    phi = np.concatenate([[0.0], c_phi])

    a = steering_vector(va, ray_az, ray_el, f_ghz)          # (n, R)
    g = np.sqrt(p) * np.exp(1j * phi)
    dly = np.exp(-2j * math.pi * tones[None, :] * tau[:, None])  # (R, T)
    x = a @ (g[:, None] * dly)                              # (n, T)
    dev_tau = rng.uniform(0.0, 1e-6, va.n_devices)
    dev_phi = rng.uniform(0.0, 2.0 * math.pi, va.n_devices)
    x *= np.exp(1j * (2.0 * math.pi * tones[None, :]
                      * dev_tau[va.device_of_element, None]
                      + dev_phi[va.device_of_element, None]))
    snr_lin = 10.0 ** (snr_db / 10.0)
    noise = (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)) \
        / math.sqrt(2.0 * snr_lin)
    return x + noise


def run_loc_experiment(cfg: ScenarioConfig, seed: int = 0) -> list:
    """Monte-Carlo direction finding and positioning for one ensemble level.

    Trial randomness is keyed per (seed, user) so different ensemble levels
    see the same truth directions and can be compared pairwise.
    """
    case = cfg.case.value
    if case not in ("loc1", "loc2", "loc3"):
        raise ConfigurationError("localization requires a loc case")
    f_ghz = cfg.f_low_ghz
    results = []
    for u in range(cfg.loc_users):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x10C, u)))
        az = rng.uniform(-180.0, 180.0)
        el = np.degrees(np.arcsin(rng.uniform(0.0, 1.0)))   # above horizon
        devices = _ensemble(case, f_ghz, rng)
        va = build_virtual_array(devices)
        x = synthesize_snapshots(va, az, el, f_ghz, cfg.loc_snr_db, rng)
        est_az, est_el = noncoherent_aoa(va, x, f_ghz, method=cfg.loc_method)
        err = aoa_error_deg(az, el, est_az, est_el)

        # positioning against a far anchor with noisy ranging
        range_true = rng.uniform(50.0, 300.0)
        anchor = range_true * ch.direction_unit(az, el)
        rmeas = range_true + rng.normal(0.0, cfg.range_sigma_m)
        pos = localize(anchor, est_az, est_el, rmeas)
        results.append(LocResult(u, case, az, el, est_az, est_el, err,
                                 float(np.linalg.norm(pos))))
    return results

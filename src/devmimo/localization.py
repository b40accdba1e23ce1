"""Uplink-signal-based direction finding with a user-side distributed array.

A primary device and its nearby companions form a virtual receive array.
Per-device spatial covariances are combined non-coherently, so unknown
per-device timing/phase offsets and device orderings do not affect the
spectrum.  The direction search evaluates the spectrum only at the grid
points whose Lipschitz bound can reach its peak, with the values and the
argmax of the full grid.  The refined arrival direction plus a ranging
estimate yields a position fix.  The experiment's trials each seed their
own generator and keep no state between them, so the trials run in
processes (`_blocks.map_items`).
"""

from __future__ import annotations

import functools
import math
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


def _devices(va: VirtualArray, covs, method: str) -> list:
    """Per device: (element positions, evaluator weight, matrix M of the
    quadratic form the search bounds).  Bartlett weighs with R and bounds
    aᴴRa; MUSIC, with a single-source signal subspace, weighs with the
    noise subspace E (conjugated) and bounds aᴴEEᴴa."""
    devices = []
    for d in range(va.n_devices):
        pos = va.element_pos[va.elements_of(d)]
        if method == "bartlett":
            devices.append((pos, covs[d], covs[d]))
        else:
            en = np.linalg.eigh(covs[d])[1][:, :-1]          # noise subspace
            devices.append((pos, en.conj(), en @ en.conj().T))
    return devices


def _evaluate(devices, u: np.ndarray, f_ghz: float, method: str):
    """Spectrum (P,) at unit vectors u (P, 3), and each device's term
    (P, D) of it: Bartlett's aᴴRa / n, or MUSIC's aᴴEEᴴa, whose term is
    n / aᴴEEᴴa.  A point's bits do not depend on the other points
    evaluated with it."""
    lone = len(u) == 1
    if lone:
        # numpy's einsum sums a lone point's Bartlett terms of a
        # two-element device in another order than a batch's, which
        # changes their last bits: a lone point goes in twice
        u = np.repeat(u, 2, axis=0)
    total = np.zeros(len(u))
    terms = np.empty((len(u), len(devices)))
    for d, (pos, w, _) in enumerate(devices):
        a = ch.plane_wave(pos, u, f_ghz)
        n = len(a)
        if method == "bartlett":
            terms[:, d] = np.real(np.einsum("np,nm,mp->p", a.conj(), w,
                                            a)) / n
            total += terms[:, d]
        else:
            proj = np.einsum("nk,np->kp", w, a)
            terms[:, d] = np.einsum("kp,kp->p", proj.conj(), proj).real
            total += n / np.maximum(terms[:, d], 1e-18)
    return (total[:1], terms[:1]) if lone else (total, terms)


def _grid_units(az_grid, el_grid) -> np.ndarray:
    """Unit vectors (A·E, 3) of the az × el grid, azimuth-major."""
    return ch.direction_unit(*np.meshgrid(np.asarray(az_grid, dtype=float),
                                          np.asarray(el_grid, dtype=float),
                                          indexing="ij")).reshape(-1, 3)


def _lattice(step: int) -> tuple:
    """(nearest lattice point, distance bound r [rad]) of every search-grid
    point, on the lattice of every `step`-th azimuth and elevation.  Grid
    points Δi azimuth and Δj elevation steps apart are at most
    r = |Δi| δaz + |Δj| δel apart, as the chord is no longer than the arc;
    an azimuth index of A is the seam's 0."""
    n_az, n_el = len(AZ_GRID), len(EL_GRID)
    i, j = np.divmod(np.arange(n_az * n_el), n_el)
    ci = np.round(i / step).astype(np.intp) * step
    cj = np.round(j / step).astype(np.intp) * step
    d_az, d_el = np.radians([AZ_GRID[1] - AZ_GRID[0], EL_GRID[1] - EL_GRID[0]])
    return ci % n_az * n_el + cj, np.abs(i - ci) * d_az + np.abs(j - cj) * d_el


@functools.cache
def _search_grid() -> tuple:
    """The search grid's directions (A·E, 3) and its coarse levels,
    lattice steps 6 and 2 (each divides the grid's 360 azimuth and 90
    elevation steps); made once, on first use."""
    u = _grid_units(AZ_GRID, EL_GRID)
    u.flags.writeable = False
    return u, (_lattice(6), _lattice(2))


def _lipschitz(devices, f_ghz: float) -> tuple:
    """Per device, arrays (D,): the Lipschitz constant L = k Σ |M_nm|
    |p_m − p_n| of its quadratic form aᴴMa in the unit vector u, the
    rounding margin η of a bound, and its element count n."""
    k = 2.0 * math.pi * f_ghz * 1e9 / ch.C_LIGHT
    lip, eta, size = np.zeros((3, len(devices)))
    for d, (pos, _, m) in enumerate(devices):
        gap = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
        lip[d] = k * np.sum(np.abs(m) * gap)
        # η covers the rounding of the two computed values a bound relates
        # and of the sums over devices: a computed phase k p·u is off by a
        # few ulp of k |p|, so a computed aᴴMa is off by about
        # 1e-15 (1 + k |p|) Σ |M_nm|; η is 1e6 times that, yet small beside
        # the terms' scale Σ |M_nm|, so it keeps few points the exact
        # bound would drop
        eta[d] = 1e-9 * (1.0 + k * np.max(np.abs(pos))) * np.sum(np.abs(m))
        size[d] = len(pos)
    return lip, eta, size


def _search(devices, f_ghz: float, method: str) -> tuple:
    """(spectrum (A, E) over AZ_GRID × EL_GRID, its argmax (i, j)), with
    the spectrum evaluated only where it can hold its peak, and -inf
    elsewhere.

    Each device's quadratic form aᴴMa = Σ M_nm exp(jk (p_m − p_n)·u) is
    Lipschitz in the unit vector u with L = k Σ |M_nm| |p_m − p_n|.  Each
    coarse level evaluates the lattice points nearest to the remaining
    candidates, and drops a candidate whose bound, the per-device bounds
    from its lattice point's terms summed, falls below the best value
    evaluated so far: Bartlett's is t + (L r + η) / n, MUSIC's
    n / max(q − L r − η, 1e-18).  The last level evaluates the candidates
    left.  A dropped point is below a value that was evaluated, so the
    argmax, ties included, and every evaluated value are those of
    `_evaluate` on the full grid (`tests/reference.py::grid_spectrum`),
    bit for bit.
    """
    lip, eta, size = _lipschitz(devices, f_ghz)
    units, levels = _search_grid()
    n_az, n_el = len(AZ_GRID), len(EL_GRID)
    spec = np.full(n_az * n_el, -np.inf)
    terms = np.empty((n_az * n_el, len(devices)))

    def fill(points):
        todo = np.zeros(n_az * n_el, bool)
        todo[points] = True
        new = np.flatnonzero(todo & np.isneginf(spec))
        if new.size:
            spec[new], terms[new] = _evaluate(devices, units[new], f_ghz,
                                              method)

    cand = np.arange(n_az * n_el)
    for near, dist in levels:
        at, r = near[cand], dist[cand]
        fill(at)
        if method == "bartlett":      # Σ_d t_d + (L_d r + η_d) / n_d
            bound = spec[at] + r * np.sum(lip / size) + np.sum(eta / size)
        else:
            bound = np.sum(size / np.maximum(
                terms[at] - (r[:, None] * lip + eta), 1e-18), axis=1)
        cand = cand[bound >= spec.max()]
    fill(cand)
    i, j = np.unravel_index(np.argmax(spec), (n_az, n_el))
    # `_refine` reads the peak's four neighbours
    fill(np.array([(i - 1) % n_az * n_el + j, (i + 1) % n_az * n_el + j,
                   i * n_el + max(j - 1, 0), i * n_el + min(j + 1, n_el - 1)]))
    return spec.reshape(n_az, n_el), (i, j)


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
    """Arrival direction from non-coherently combined device spectra: the
    peak of the spectrum over AZ_GRID × EL_GRID, found by a search that
    evaluates only the grid points that can hold it (`_search`), refined
    between grid points.

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
    spec, (i, j) = _search(_devices(va, _device_covariances(va, snapshots),
                                    method), f_ghz, method)
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


def _trial(cfg: ScenarioConfig, key: tuple) -> LocResult:
    """One user's direction-finding and positioning trial; key is
    (seed, user), whose generator gives the trial all its randomness."""
    seed, u = key
    case = cfg.case.value
    f_ghz = cfg.f_low_ghz
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
    return LocResult(u, case, az, el, est_az, est_el, err,
                     float(np.linalg.norm(pos)))


def run_loc_experiment(cfg: ScenarioConfig, seed: int = 0) -> list:
    """Monte-Carlo direction finding and positioning for one ensemble level.

    Trial randomness is keyed per (seed, user) so different ensemble levels
    see the same truth directions and can be compared pairwise, and the
    trials run in processes by `_blocks.map_items`, in strided user
    shares; the results come back in user order, the same bits on any
    process count.  A replaced `run_loc_experiment` keeps every trial in the
    calling process.
    """
    if cfg.case.value not in ("loc1", "loc2", "loc3"):
        raise ConfigurationError("localization requires a loc case")
    return _blocks.map_items(_trial, cfg,
                             [(seed, u) for u in range(cfg.loc_users)],
                             run_loc_experiment)

"""Large-scale gains and clustered small-scale MIMO channels.

Large-scale: UMa-style pathloss with breakpoint, LOS probability,
log-normal shadowing and composite-wall O2I penetration.

Small-scale: a reduced clustered model (one LOS ray when applicable plus
N_c single-ray clusters with Laplacian angle spread and exponential excess
delays) in lieu of ray tracing or full fast-fading profiles.
"""

from __future__ import annotations

import math

import numpy as np

C_LIGHT = 3e8

# Dense-urban heights; pathloss and the drop geometry read them at call time.
BS_HEIGHT_M = 25.0
UE_HEIGHT_M = 1.5

SHADOWING_SIGMA_LOS_DB = 4.0
SHADOWING_SIGMA_NLOS_DB = 6.0
INSIDE_LOSS_DB_PER_M = 0.5
O2I_SIGMA_DB = 4.4

# reduced clustered-model defaults
N_CLUSTERS = 6
AZ_SPREAD_DEG = 10.0
EL_SPREAD_DEG = 3.0
DELAY_RMS_S = 300e-9
K_FACTOR_DB = 9.0
CLUSTER_SHADOW_STD_DB = 3.0


# ---------------------------------------------------------------------------
# large-scale models
# ---------------------------------------------------------------------------

def pathloss(d3d_m, f_ghz: float, los: bool):
    """Urban-macro pathloss in dB (breakpoint dual-slope LOS, NLOS floor).

    Accepts scalar or array d3d_m; raises on distances below 1 m.
    """
    d3d = np.asarray(d3d_m, dtype=float)
    if np.any(d3d < 1.0):
        raise ValueError("d3d must be >= 1 m")
    dh = BS_HEIGHT_M - UE_HEIGHT_M
    d2d = np.sqrt(np.maximum(d3d ** 2 - dh ** 2, 1e-12))
    # effective environment height 1 m
    dbp = (4.0 * (BS_HEIGHT_M - 1.0) * (UE_HEIGHT_M - 1.0) * f_ghz * 1e9
           / C_LIGHT)
    pl1 = 28.0 + 22.0 * np.log10(d3d) + 20.0 * math.log10(f_ghz)
    pl2 = (28.0 + 40.0 * np.log10(d3d) + 20.0 * math.log10(f_ghz)
           - 9.0 * math.log10(dbp ** 2 + dh ** 2))
    pl_los = np.where(d2d <= dbp, pl1, pl2)
    if los:
        out = pl_los
    else:
        pl_n = (13.54 + 39.08 * np.log10(d3d) + 20.0 * math.log10(f_ghz)
                - 0.6 * (UE_HEIGHT_M - 1.5))
        out = np.maximum(pl_los, pl_n)
    return out if out.ndim else float(out)


def los_probability(d2d_m):
    """Urban-macro LOS probability for UE heights below 13 m."""
    d2d = np.asarray(d2d_m, dtype=float)
    p = np.where(d2d <= 18.0, 1.0,
                 18.0 / np.maximum(d2d, 18.0)
                 + np.exp(-d2d / 63.0) * (1.0 - 18.0 / np.maximum(d2d, 18.0)))
    return p if p.ndim else float(p)


def o2i_wall_loss_db(f_ghz: float) -> float:
    """Low-loss composite wall penetration: 30% glass, 70% concrete (no
    depth, no random spread)."""
    l_glass = 2.0 + 0.2 * f_ghz
    l_concrete = 5.0 + 4.0 * f_ghz
    mix = 0.3 * 10 ** (-l_glass / 10.0) + 0.7 * 10 ** (-l_concrete / 10.0)
    return 5.0 - 10.0 * math.log10(mix)


def o2i_penetration(f_ghz: float, depth_m,
                    rng: np.random.Generator | None = None):
    """Wall loss + 0.5 dB/m inside loss + optional log-normal spread [dB].

    Accepts scalar or array depth_m (one spread draw per element)."""
    depth = np.asarray(depth_m, dtype=float)
    if np.any(depth < 0):
        raise ValueError("depth_m must be >= 0")
    loss = o2i_wall_loss_db(f_ghz) + INSIDE_LOSS_DB_PER_M * depth
    if rng is not None:
        loss = loss + rng.normal(0.0, O2I_SIGMA_DB, depth.shape)
    loss = np.maximum(loss, 0.0)
    return loss if loss.ndim else float(loss)


def friis_db(d_m: float, f_ghz: float) -> float:
    """Free-space loss, 32.45 + 20 log10(d_km) + 20 log10(f_MHz)."""
    return 32.45 + 20.0 * math.log10(d_m) + 20.0 * math.log10(f_ghz)


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def direction_unit(az_deg, el_deg) -> np.ndarray:
    """Unit vector(s) (..., 3) for azimuth/elevation in degrees."""
    az = np.radians(np.asarray(az_deg, dtype=float))
    el = np.radians(np.asarray(el_deg, dtype=float))
    return np.stack([np.cos(el) * np.cos(az),
                     np.cos(el) * np.sin(az),
                     np.sin(el)], axis=-1)


def angles_from_vector(v: np.ndarray):
    """(az_deg in [-180, 180), el_deg in [-90, 90]) of vector(s) (..., 3)."""
    v = np.asarray(v, dtype=float)
    r = np.linalg.norm(v, axis=-1)
    az = np.degrees(np.arctan2(v[..., 1], v[..., 0]))
    el = np.degrees(np.arcsin(np.clip(v[..., 2] / np.maximum(r, 1e-300), -1, 1)))
    az = (az + 180.0) % 360.0 - 180.0
    return az, el


def sector_element_amplitude(az_local_deg, el_local_deg) -> np.ndarray:
    """3-sector element pattern amplitude (65 deg HPBW both cuts,
    30 dB front-to-back, 8 dBi peak), boresight at local +x."""
    az = np.asarray(az_local_deg, dtype=float)
    el = np.asarray(el_local_deg, dtype=float)
    a_h = -np.minimum(12.0 * (az / 65.0) ** 2, 30.0)
    a_v = -np.minimum(12.0 * (el / 65.0) ** 2, 30.0)
    a = -np.minimum(-(a_h + a_v), 30.0) + 8.0
    return 10.0 ** (a / 20.0)


# ---------------------------------------------------------------------------
# clustered links
# ---------------------------------------------------------------------------

def plane_wave(pos: np.ndarray, u: np.ndarray, f_ghz: float) -> np.ndarray:
    """Plane-wave response (n, ...) of elements `pos` (n, 3) to unit
    direction(s) `u` (..., 3)."""
    k = 2.0 * math.pi * f_ghz * 1e9 / C_LIGHT
    a = 1j * k * np.einsum("na,...a->n...", pos, u)
    return np.exp(a, out=a)


def _response(elem: np.ndarray, rot: np.ndarray, az, el, f_ghz: float,
              sector: bool = False) -> np.ndarray:
    """Element responses (L, n, R) of L arrays for R global-frame rays each.

    Element positions are (n, 3) local, rotations (L, 3, 3) local ->
    global and ray angles (L, R) in degrees; sector elements scale each
    ray by the 3-sector pattern amplitude.
    """
    u_loc = np.einsum("lba,lrb->lra", rot, direction_unit(az, el))
    a = np.moveaxis(plane_wave(elem, u_loc, f_ghz), 0, 1)
    if sector:
        a = a * sector_element_amplitude(*angles_from_vector(u_loc))[:, None, :]
    return a


def draw_rays(rng: np.random.Generator, n_links: int) -> np.ndarray:
    """Draw the small-scale parameters of n_links clustered links.

    Returns (7, L, N_CLUSTERS): the clusters' excess delays [s], their
    powers before normalization, the departure azimuth and elevation
    offsets, the arrival azimuth and elevation offsets [deg] and the
    phases.  These are all the random draws of a batch, seven generator
    calls in this order; the module constants are read at call time.
    """
    shape = (n_links, N_CLUSTERS)
    excess = rng.exponential(DELAY_RMS_S, shape)
    w = np.exp(-excess / DELAY_RMS_S) * 10.0 ** (
        rng.normal(0.0, CLUSTER_SHADOW_STD_DB, shape) / 10.0)
    lap = lambda s: rng.laplace(0.0, s / math.sqrt(2.0), shape)
    return np.stack([excess, w, lap(AZ_SPREAD_DEG), lap(EL_SPREAD_DEG),
                     lap(AZ_SPREAD_DEG), lap(EL_SPREAD_DEG),
                     rng.uniform(-math.pi, math.pi, shape)])


def realize_links(rays: np.ndarray, f_ghz: float, subc_hz: np.ndarray,
                  tx_pos: np.ndarray, rx_pos: np.ndarray,
                  tx_rot: np.ndarray, rx_rot: np.ndarray,
                  tx_elem: np.ndarray, rx_elem: np.ndarray,
                  amp: np.ndarray, los: np.ndarray,
                  tx_sector: bool = False, rx_sector: bool = False
                  ) -> np.ndarray:
    """Realize L clustered channels at once from their `draw_rays` rays
    (7, L, N_CLUSTERS).

    Returns (L, S, n_rx, n_tx); `amp` is the linear amplitude of the total
    link loss excluding element patterns (those enter per ray).  Each link
    has a LOS ray (zero power when not `los`) and N_CLUSTERS clusters;
    `K_FACTOR_DB` is read at call time.  Every link is computed on its own,
    so the links of any subset of a batch's rows are that batch's rows.
    """
    excess, w, dep_az_off, dep_el_off, arr_az_off, arr_el_off, phi = rays
    L = tx_pos.shape[0]
    d = rx_pos - tx_pos
    dist = np.linalg.norm(d, axis=-1)
    dep_az, dep_el = angles_from_vector(d)
    arr_az, arr_el = angles_from_vector(-d)

    k_lin = 10.0 ** (K_FACTOR_DB / 10.0)
    p0 = np.where(los, k_lin / (k_lin + 1.0), 0.0)
    # not in place: the rays stay as drawn, for any other rows' call
    w = w * ((1.0 - p0)[:, None] / w.sum(axis=1, keepdims=True))
    powers = np.concatenate([p0[:, None], w], axis=1)          # (L, R)
    delays = np.concatenate([np.zeros((L, 1)), excess], axis=1)
    delays += (dist / C_LIGHT)[:, None]

    zero = np.zeros((L, 1))
    r_dep_az = np.concatenate([zero, dep_az_off], axis=1) + dep_az[:, None]
    r_dep_el = np.concatenate([zero, dep_el_off], axis=1) + dep_el[:, None]
    r_arr_az = np.concatenate([zero, arr_az_off], axis=1) + arr_az[:, None]
    r_arr_el = np.concatenate([zero, arr_el_off], axis=1) + arr_el[:, None]
    phases = np.concatenate([zero, phi], axis=1)

    a_tx = _response(tx_elem, tx_rot, r_dep_az, r_dep_el, f_ghz, tx_sector)
    a_rx = _response(rx_elem, rx_rot, r_arr_az, r_arr_el, f_ghz, rx_sector)
    coef = (np.sqrt(powers) * np.exp(1j * phases))[:, :, None] * np.exp(
        -2j * math.pi * delays[:, :, None] * subc_hz[None, None, :])  # (L,R,S)
    h = np.einsum("lnr,lrs,lmr->lsnm", a_rx, coef, a_tx.conj(),
                  optimize=True)
    h *= amp[:, None, None, None]          # in place: no second link tensor
    return h


def local_link(tx_pos: np.ndarray, tx_rot: np.ndarray, tx_elem: np.ndarray,
               rx_pos: np.ndarray, rx_rot: np.ndarray, rx_elem: np.ndarray,
               f_ghz: float, distance_m: float) -> np.ndarray:
    """Pure-LOS narrowband channels (L, n_rx, n_tx) between L device pairs.

    Positions are (L, 3), rotations (L, 3, 3) local -> global and element
    positions (n, 3) local; the single geometric ray makes each link a
    rank-1 outer product with the free-space amplitude at distance_m.
    """
    d = rx_pos - tx_pos
    if not np.all(np.linalg.norm(d, axis=-1) > 0):
        raise ValueError("coincident tx/rx positions")
    amp = 10.0 ** (-friis_db(distance_m, f_ghz) / 20.0)
    a_tx = _response(tx_elem, tx_rot, *angles_from_vector(d[:, None]), f_ghz)
    a_rx = _response(rx_elem, rx_rot, *angles_from_vector(-d[:, None]), f_ghz)
    return amp * a_rx * a_tx.transpose(0, 2, 1).conj()

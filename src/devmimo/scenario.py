"""Deployment geometry: hexagonal site grid, sector cells, device dropping.

All geometry is deterministic given the layout parameters and an explicit
numpy Generator, so drops can be reproduced bit-exactly from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Union

import numpy as np

from . import channel as ch
from .errors import ConfigurationError

SQRT3 = math.sqrt(3.0)

# Dense-urban conventions (heights: channel.BS_HEIGHT_M, UE_HEIGHT_M).
MIN_BS_UE_DIST_M = 35.0
BS_DOWNTILT_DEG = 12.0


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(deg: float) -> np.ndarray:
    """Positive angle tilts the local +x boresight downward."""
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullBuffer:
    """All UEs always backlogged."""


@dataclass(frozen=True)
class Ftp3:
    """Poisson file arrivals per UE (FTP model 3 style)."""
    file_bytes: int = 500_000
    lambda_per_s: float = 0.5

    def __post_init__(self):
        if not self.file_bytes >= 1:
            raise ConfigurationError("file_bytes must be >= 1")
        if not (math.isfinite(self.lambda_per_s) and self.lambda_per_s > 0):
            raise ConfigurationError("lambda_per_s must be positive and finite")


Traffic = Union[FullBuffer, Ftp3]


class Case(Enum):
    BASELINE = "baseline"
    DIVERSITY = "diversity"
    RANK_AUG = "rank"
    LOC1 = "loc1"
    LOC2 = "loc2"
    LOC3 = "loc3"


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description (defaults follow the dense-urban setup)."""

    isd: float = 200.0                   # site-to-site distance [m]
    num_rings: int = 2                   # hex rings around the center site
    ues_per_cell: int = 10
    f_low_ghz: float = 2.0
    f_high_ghz: float = 6.0
    bandwidth_mhz: float = 10.0
    scs_khz: float = 30.0
    bs_ports: int = 32
    ue_dl_config: tuple = (2, 4)         # (tx, rx)
    ue_ul_config: tuple = (2, 2)         # (tx, rx)
    helper_distance_m: float = 1.0
    ue_max_tx_dbm: float = 23.0
    relay_max_tx_dbm: float = 14.0
    bs_tx_dbm: float = 44.0
    traffic: Traffic = field(default_factory=FullBuffer)
    case: Case = Case.BASELINE

    # simulation controls (documented config keys, not scenario physics)
    sim_duration_s: float = 1.0
    channel_update_slots: int = 5        # channel refresh period in slots
    max_interferers: int = 6             # exact-covariance interferers per victim
    semistatic_threshold_db: float = 10.0
    helper_rx_antennas: int = 4
    relay_streams: int = 2               # forwarded streams on spare f_H chunks
    fh_activity: float = 0.2             # legacy duty cycle on the high band
    loc_users: int = 200
    loc_snr_db: float = 10.0
    loc_method: str = "bartlett"         # or "music"
    range_sigma_m: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite")
        if self.f_low_ghz >= self.f_high_ghz:
            raise ConfigurationError("f_low_ghz must be below f_high_ghz")
        for name in ("ues_per_cell", "bs_ports", "helper_rx_antennas",
                     "relay_streams", "loc_users"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in ("num_rings", "max_interferers", "range_sigma_m"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name in ("ue_dl_config", "ue_ul_config"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
                    isinstance(n, (int, np.integer)) and n >= 1 for n in pair)):
                raise ConfigurationError(f"{name} must be two ints >= 1")
        for name in ("f_low_ghz", "scs_khz", "sim_duration_s",
                     "helper_distance_m"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.isd <= 2.0 * MIN_BS_UE_DIST_M:    # else no UE can be dropped
            raise ConfigurationError(
                f"isd must exceed {2.0 * MIN_BS_UE_DIST_M:g} m")
        if not 0.0 <= self.fh_activity <= 1.0:
            raise ConfigurationError("fh_activity must be in [0, 1]")
        if self.channel_update_slots < 1:
            raise ConfigurationError("channel_update_slots must be >= 1")
        if self.n_prb < 1:
            raise ConfigurationError(
                "bandwidth too small for a single PRB at this SCS")
        if self.loc_method not in ("bartlett", "music"):
            raise ConfigurationError("loc_method must be bartlett or music")

    @property
    def prb_hz(self) -> float:
        return 12.0 * self.scs_khz * 1e3

    @property
    def n_prb(self) -> int:
        """Whole PRBs fitting the bandwidth (remainder is guard band)."""
        return int(self.bandwidth_mhz * 1e6 // self.prb_hz)

    @property
    def n_subbands(self) -> int:
        """One channel sample per 4-PRB group (memory bound)."""
        return max(1, self.n_prb // 4)

    @property
    def subband_hz(self) -> float:
        return self.n_prb * self.prb_hz / self.n_subbands

    @property
    def slot_s(self) -> float:
        """Slot duration from SCS (0.5 ms at 30 kHz)."""
        return 1e-3 * 15.0 / self.scs_khz

    @property
    def n_slots(self) -> int:
        """Slots in one drop (at least one)."""
        return max(round(self.sim_duration_s / self.slot_s), 1)

    @property
    def n_refreshes(self) -> int:
        """Channel refreshes in one drop: at slot 0, then every
        channel_update_slots slots."""
        return -(-self.n_slots // self.channel_update_slots)

    def subband_centers_hz(self) -> np.ndarray:
        """Baseband subband center offsets, symmetric around the carrier."""
        n = self.n_subbands
        return (np.arange(n) - (n - 1) / 2.0) * self.subband_hz

    def replace(self, **changes) -> "ScenarioConfig":
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# arrays and devices
# ---------------------------------------------------------------------------

def ula(n: int, spacing_m: float, axis: int = 0) -> np.ndarray:
    """Element positions (n, 3) in the device-local frame [m] of a centered
    uniform linear array along a coordinate axis."""
    pos = np.zeros((n, 3))
    pos[:, axis] = (np.arange(n) - (n - 1) / 2.0) * spacing_m
    return pos


def half_wavelength_m(f_ghz: float) -> float:
    return 0.5 * ch.C_LIGHT / (f_ghz * 1e9)


def bs_port_array(n_ports: int, f_ghz: float) -> np.ndarray:
    """BS sector array: half-wavelength ULA across the local y axis,
    boresight along local +x (the links give its elements the 3-sector
    pattern)."""
    return ula(n_ports, half_wavelength_m(f_ghz), axis=1)


def ue_array(n_antennas: int, f_ghz: float) -> np.ndarray:
    return ula(n_antennas, half_wavelength_m(f_ghz), axis=0)


# ---------------------------------------------------------------------------
# hexagonal layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteLayout:
    isd: float
    num_rings: int
    site_positions: np.ndarray           # (n_sites, 2)
    cell_site: np.ndarray                # (n_cells,) int
    cell_azimuth_deg: np.ndarray         # (n_cells,)
    mirror_offsets: np.ndarray           # (k, 2) wraparound translations

    @property
    def n_sites(self) -> int:
        return self.site_positions.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cell_site.shape[0]


def build_hex_layout(num_rings: int, isd: float) -> SiteLayout:
    """Hexagonal site lattice with `num_rings` rings around a center site,
    three sectors per site at azimuths 0/120/240 degrees."""
    if num_rings < 0 or isd <= 0:
        raise ConfigurationError("num_rings >= 0 and isd > 0 required")
    a1 = isd * np.array([1.0, 0.0])
    a2 = isd * np.array([0.5, SQRT3 / 2.0])

    coords = []
    n = num_rings
    for q in range(-n, n + 1):
        for r in range(-n, n + 1):
            ring = (abs(q) + abs(r) + abs(q + r)) // 2
            if ring <= n:
                pos = q * a1 + r * a2
                ang = math.atan2(pos[1], pos[0]) if ring > 0 else 0.0
                coords.append((ring, ang, q, r, pos))
    coords.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    sites = np.array([c[4] for c in coords])

    n_sites = len(sites)
    assert n_sites == 1 + 3 * n * (n + 1)
    cell_site = np.repeat(np.arange(n_sites), 3)
    cell_az = np.tile(np.array([0.0, 120.0, 240.0]), n_sites)

    if n == 0:
        mirrors = np.zeros((1, 2))
    else:
        t1 = (n + 1) * a1 + n * a2
        mirrors = [np.zeros(2)]
        for k in range(6):
            th = math.radians(60.0 * k)
            rot = np.array([[math.cos(th), -math.sin(th)],
                            [math.sin(th), math.cos(th)]])
            mirrors.append(rot @ t1)
        mirrors = np.array(mirrors)
    return SiteLayout(isd, num_rings, sites, cell_site, cell_az, mirrors)


def wraparound_vectors(a_xy: np.ndarray, b_xy: np.ndarray,
                       layout: SiteLayout) -> np.ndarray:
    """Vectorized wraparound: displacement from each a (N,2) to each b (M,2).

    Returns (N, M, 2)."""
    d = b_xy[None, :, :2] - a_xy[:, None, :2]          # (N, M, 2)
    cand = d[:, :, None, :] + layout.mirror_offsets[None, None, :, :]
    idx = np.argmin(np.einsum("nmki,nmki->nmk", cand, cand), axis=-1)
    return np.take_along_axis(cand, idx[..., None, None], axis=2)[:, :, 0, :]


# ---------------------------------------------------------------------------
# device dropping
# ---------------------------------------------------------------------------

def _in_hexagon(p: np.ndarray, inradius: float) -> bool:
    """Point inside the Voronoi hexagon of the triangular lattice
    (neighbors at 0/60/.../300 degrees)."""
    for k in range(3):
        th = math.radians(60.0 * k)
        d = abs(p[0] * math.cos(th) + p[1] * math.sin(th))
        if d > inradius:
            return False
    return True


def _sample_sector_point(rng: np.random.Generator, azimuth_deg: float,
                         isd: float) -> np.ndarray:
    """Uniform point in the sector wedge of the site hexagon, at least
    MIN_BS_UE_DIST_M from the site."""
    circum = isd / SQRT3
    for _ in range(10000):
        p = rng.uniform(-circum, circum, size=2)
        if not _in_hexagon(p, isd / 2.0):
            continue
        r = math.hypot(p[0], p[1])
        if r < MIN_BS_UE_DIST_M:
            continue
        rel = (math.degrees(math.atan2(p[1], p[0])) - azimuth_deg + 180.0) % 360.0 - 180.0
        if abs(rel) <= 60.0:
            return p
    raise ConfigurationError("sector point rejection sampling exhausted")


def drop_ues(layout: SiteLayout, cfg: ScenarioConfig,
             rng: np.random.Generator):
    """Drop primaries uniformly in each sector wedge and one helper per
    primary at the configured distance in a uniform random bearing.

    Returns (prim_pos, prim_rot, help_pos, help_rot): positions (U, 3) and
    local-to-global rotations (U, 3, 3), UE u's helper at row u."""
    prim_pos, prim_rot, help_pos, help_az = [], [], [], []
    for ci in range(layout.n_cells):
        site_xy = layout.site_positions[layout.cell_site[ci]]
        for _ in range(cfg.ues_per_cell):
            p = _sample_sector_point(rng, layout.cell_azimuth_deg[ci], cfg.isd)
            pos = np.array([site_xy[0] + p[0], site_xy[1] + p[1],
                            ch.UE_HEIGHT_M])
            prim_pos.append(pos)
            prim_rot.append(rot_z(rng.uniform(0.0, 360.0)))
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            help_pos.append(pos + cfg.helper_distance_m * np.array(
                [math.cos(bearing), math.sin(bearing), 0.0]))
            help_az.append(rng.uniform(0.0, 360.0))
    return (np.array(prim_pos), np.array(prim_rot), np.array(help_pos),
            np.array([rot_z(az) for az in help_az]))

"""Batched per-drop machinery: large-scale geometry tables, vectorized
clustered-channel realization, and the per-refresh orchestration that turns
them into rate tables for the DL diversity and UL rank-augmentation
programs.

Everything here is internal to the drop loop; the link-adaptation kernels
it calls (rank selection, beam codebook, MMSE SE, relay beamformer and
gain, stacked links) live in phy and collab, the O2I loss and the local
device-to-device links in channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from .collab import (EffectiveLink, Provenance, relay_gain,
                     relay_rx_beamformer, stack_rx, stack_tx)
from .phy import (batched_beam_precoder, batched_mmse_se,
                  batched_rank_select)
from .scenario import (BS_DOWNTILT_DEG, BS_HEIGHT_M, UE_HEIGHT_M,
                       ScenarioConfig, SiteLayout, bs_port_array,
                       build_hex_layout, drop_ues, rot_y, rot_z, ue_array,
                       wraparound_vectors)

NF_BS_DB = 5.0
NF_UE_DB = 7.0
NF_HELPER_DB = 9.0

N0_DBM_HZ = -174.0


def thermal_noise_w(bw_hz: float, nf_db: float) -> float:
    return 10.0 ** ((N0_DBM_HZ + nf_db - 30.0) / 10.0) * bw_hz


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# drop geometry and large-scale tables
# ---------------------------------------------------------------------------

@dataclass
class DropGeometry:
    cfg: ScenarioConfig
    layout: SiteLayout
    cell_rot: np.ndarray          # (C, 3, 3) sector orientation + downtilt
    prim_pos: np.ndarray          # (U, 3)
    prim_rot: np.ndarray          # (U, 3, 3)
    help_pos: np.ndarray
    help_rot: np.ndarray
    bs_eff_prim: np.ndarray       # (C, U, 3) wraparound BS position per link
    bs_eff_help: np.ndarray
    d3d_prim: np.ndarray          # (C, U)
    d3d_help: np.ndarray
    los_prim: np.ndarray          # (C, U) bool
    los_help: np.ndarray
    loss_fl_prim: np.ndarray      # (C, U) dB: pathloss+shadowing+penetration
    loss_fh_prim: np.ndarray
    loss_fl_help: np.ndarray
    loss_fh_help: np.ndarray
    pat_db_prim: np.ndarray       # (C, U) sector element gain, geometric dir
    pat_db_help: np.ndarray
    serving: np.ndarray           # (U,)
    ue_of_cell: list              # cell -> array of UE indices
    interf_prim: np.ndarray       # (U, K) strongest non-serving cells, f_L
    interf_help: np.ndarray
    interf_fh_prim: np.ndarray    # (U, K) strongest cells in f_H (any)
    res_fl_prim: np.ndarray       # (U,) residual linear coupling sum
    res_fl_help: np.ndarray
    res_fh_prim: np.ndarray
    snr_fh_ul_db: np.ndarray      # (U,) wideband UL SNR in f_H (large-scale)

    @property
    def n_ues(self) -> int:
        return self.prim_pos.shape[0]

    @property
    def n_cells(self) -> int:
        return self.layout.n_cells


def _device_tables(layout: SiteLayout, cfg: ScenarioConfig, pos_xy: np.ndarray,
                   height: float, rng: np.random.Generator):
    """Per (cell, device) wraparound geometry, LOS states and losses.

    LOS and shadowing are drawn per (site, device) so co-sited sectors
    share them; links are otherwise independent (no cross-correlation).
    """
    cell_xy = layout.site_positions[layout.cell_site]
    vec = wraparound_vectors(pos_xy, cell_xy, layout)       # (N, C, 2)
    vec = vec.transpose(1, 0, 2)                            # (C, N, 2)
    d2d = np.maximum(np.linalg.norm(vec, axis=-1), 1.0)
    dz = BS_HEIGHT_M - height
    d3d = np.sqrt(d2d ** 2 + dz ** 2)

    n_sites, n_dev = layout.n_sites, pos_xy.shape[0]
    site_d2d = d2d[::3]                                     # sector 0 of each site
    p_los = ch.los_probability(site_d2d)
    los_site = rng.uniform(size=(n_sites, n_dev)) < p_los
    los = np.repeat(los_site, 3, axis=0)

    depth = np.minimum(rng.uniform(0.0, 25.0, n_dev), rng.uniform(0.0, 25.0, n_dev))
    pen = {key: ch.o2i_penetration(f, depth, rng)
           for f, key in ((cfg.f_low_ghz, "fl"), (cfg.f_high_ghz, "fh"))}

    loss = {}
    for f, key in ((cfg.f_low_ghz, "fl"), (cfg.f_high_ghz, "fh")):
        pl = np.where(los, ch.pathloss(d3d, f, True, h_ut=height),
                      ch.pathloss(d3d, f, False, h_ut=height))
        sigma = np.where(los_site, ch.SHADOWING_SIGMA_LOS_DB,
                         ch.SHADOWING_SIGMA_NLOS_DB)
        sf = np.repeat(rng.normal(0.0, 1.0, (n_sites, n_dev)) * sigma, 3, axis=0)
        loss[key] = pl + sf + pen[key][None, :]

    bs_eff = np.concatenate(
        [pos_xy[None, :, :] + vec, np.full((layout.n_cells, n_dev, 1), BS_HEIGHT_M)],
        axis=-1)
    bs_eff[:, :, :2] = pos_xy[None, :, :2] + vec
    return vec, d2d, d3d, los, loss, bs_eff


def _pattern_gain_db(vec: np.ndarray, d2d: np.ndarray, cell_rot: np.ndarray,
                     height: float) -> np.ndarray:
    """Sector element gain toward each device's geometric direction [dB]."""
    dz = height - BS_HEIGHT_M
    d = np.concatenate([vec, np.full(d2d.shape + (1,), dz)], axis=-1)
    u = d / np.linalg.norm(d, axis=-1, keepdims=True)
    u_loc = np.einsum("cba,cub->cua", cell_rot, u)
    az, el = ch.angles_from_vector(u_loc)
    return 20.0 * np.log10(ch.sector_element_amplitude(az, el))


def build_drop_geometry(cfg: ScenarioConfig, seed: int) -> DropGeometry:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD0)))
    layout = build_hex_layout(cfg.num_rings, cfg.isd)
    prim_pos, prim_rot, help_pos, help_rot = drop_ues(layout, cfg, rng)
    n_u = prim_pos.shape[0]

    cell_rot = np.array([rot_z(az) @ rot_y(BS_DOWNTILT_DEG)
                         for az in layout.cell_azimuth_deg])

    vp, d2p, d3p, los_p, loss_p, bs_p = _device_tables(
        layout, cfg, prim_pos[:, :2], UE_HEIGHT_M, rng)
    vh, d2h, d3h, los_h, loss_h, bs_h = _device_tables(
        layout, cfg, help_pos[:, :2], UE_HEIGHT_M, rng)

    pat_p = _pattern_gain_db(vp * -1.0, d2p, cell_rot, UE_HEIGHT_M)
    pat_h = _pattern_gain_db(vh * -1.0, d2h, cell_rot, UE_HEIGHT_M)

    coupling = -loss_p["fl"] + pat_p                       # (C, U) dB
    serving = np.argmax(coupling, axis=0)
    ue_of_cell = [np.flatnonzero(serving == c) for c in range(layout.n_cells)]

    k = min(cfg.max_interferers, layout.n_cells - 1)

    def interferers(coup, serv=None):
        c2 = coup.copy()
        if serv is not None:
            c2[serv, np.arange(c2.shape[1])] = -np.inf
        order = np.argsort(-c2, axis=0)                    # (C, U)
        top = order[:k].T                                  # (U, K)
        lin = 10.0 ** (c2 / 10.0)
        lin[~np.isfinite(c2)] = 0.0
        total = lin.sum(axis=0)
        taken = np.take_along_axis(lin.T, top, axis=1).sum(axis=1)
        return top, np.maximum(total - taken, 0.0)

    interf_p, res_p = interferers(coupling, serving)
    coup_help = -loss_h["fl"] + pat_h
    interf_h, res_h = interferers(coup_help, serving)      # helper also hears its serving cell's signal as useful
    coup_fh = -loss_p["fh"] + pat_p
    interf_fh, res_fh = interferers(coup_fh)               # all cells interfere in f_H

    bw = cfg.n_prb * cfg.prb_hz
    noise_bs = thermal_noise_w(bw, NF_BS_DB)
    serv_loss_fh = loss_p["fh"][serving, np.arange(n_u)]
    snr_fh_ul = (cfg.ue_max_tx_dbm - serv_loss_fh
                 - (10.0 * np.log10(noise_bs * 1e3)))

    return DropGeometry(
        cfg, layout, cell_rot, prim_pos, prim_rot, help_pos, help_rot,
        bs_p, bs_h, d3p, d3h, los_p, los_h,
        loss_p["fl"], loss_p["fh"], loss_h["fl"], loss_h["fh"],
        pat_p, pat_h, serving, ue_of_cell,
        interf_p, interf_h, interf_fh, res_p, res_h, res_fh, snr_fh_ul)


# ---------------------------------------------------------------------------
# batched clustered-channel realization
# ---------------------------------------------------------------------------

def realize_links(rng: np.random.Generator, f_ghz: float, subc_hz: np.ndarray,
                  tx_pos: np.ndarray, rx_pos: np.ndarray,
                  tx_rot: np.ndarray, rx_rot: np.ndarray,
                  tx_elem: np.ndarray, rx_elem: np.ndarray,
                  amp: np.ndarray, los: np.ndarray,
                  tx_sector: bool = False, rx_sector: bool = False,
                  n_clusters: int = ch.N_CLUSTERS) -> np.ndarray:
    """Realize L clustered channels at once.

    Returns (L, S, n_rx, n_tx); `amp` is the linear amplitude of the total
    link loss excluding element patterns (those enter per ray).
    """
    L = tx_pos.shape[0]
    S = subc_hz.shape[0]
    R = n_clusters + 1
    d = rx_pos - tx_pos
    dist = np.linalg.norm(d, axis=-1)
    dep_az, dep_el = ch.angles_from_vector(d)
    arr_az, arr_el = ch.angles_from_vector(-d)

    k_lin = 10.0 ** (ch.K_FACTOR_DB / 10.0)
    p0 = np.where(los, k_lin / (k_lin + 1.0), 0.0)
    excess = rng.exponential(ch.DELAY_RMS_S, (L, n_clusters))
    w = np.exp(-excess / ch.DELAY_RMS_S) * 10.0 ** (
        rng.normal(0.0, ch.CLUSTER_SHADOW_STD_DB, (L, n_clusters)) / 10.0)
    w *= (1.0 - p0)[:, None] / w.sum(axis=1, keepdims=True)
    powers = np.concatenate([p0[:, None], w], axis=1)          # (L, R)
    delays = np.concatenate([np.zeros((L, 1)), excess], axis=1)
    delays += (dist / ch.C_LIGHT)[:, None]

    lap = lambda s: rng.laplace(0.0, s / math.sqrt(2.0), (L, n_clusters))
    zero = np.zeros((L, 1))
    r_dep_az = np.concatenate([zero, lap(ch.AZ_SPREAD_DEG)], axis=1) + dep_az[:, None]
    r_dep_el = np.concatenate([zero, lap(ch.EL_SPREAD_DEG)], axis=1) + dep_el[:, None]
    r_arr_az = np.concatenate([zero, lap(ch.AZ_SPREAD_DEG)], axis=1) + arr_az[:, None]
    r_arr_el = np.concatenate([zero, lap(ch.EL_SPREAD_DEG)], axis=1) + arr_el[:, None]
    phases = np.concatenate([zero, rng.uniform(-math.pi, math.pi,
                                               (L, n_clusters))], axis=1)

    kw = 2.0 * math.pi * f_ghz * 1e9 / ch.C_LIGHT

    def side(elem, rot, az, el, sector):
        u = ch.direction_unit(az, el)                          # (L, R, 3)
        u_loc = np.einsum("lba,lrb->lra", rot, u)
        a = np.exp(1j * kw * np.einsum("na,lra->lnr", elem, u_loc))
        if sector:
            az_l, el_l = ch.angles_from_vector(u_loc)
            a = a * ch.sector_element_amplitude(az_l, el_l)[:, None, :]
        return a

    a_tx = side(tx_elem, tx_rot, r_dep_az, r_dep_el, tx_sector)
    a_rx = side(rx_elem, rx_rot, r_arr_az, r_arr_el, rx_sector)
    coef = (np.sqrt(powers) * np.exp(1j * phases))[:, :, None] * np.exp(
        -2j * math.pi * delays[:, :, None] * subc_hz[None, None, :])  # (L,R,S)
    return amp[:, None, None, None] * np.einsum(
        "lnr,lrs,lmr->lsnm", a_rx, coef, a_tx.conj(), optimize=True)


# ---------------------------------------------------------------------------
# DL refresh (baseline + diversity arms)
# ---------------------------------------------------------------------------

@dataclass
class DlEngine:
    """Precomputed batch index tables for the DL drop programs."""
    geo: DropGeometry
    rng: np.random.Generator
    subc: np.ndarray
    bs_elem: np.ndarray
    ue_elem: np.ndarray
    help_elem: np.ndarray
    p_sb_w: float
    noise_ue_w: float
    noise_help_w: float
    h_local: np.ndarray = field(init=False)     # (U, S, n_prim_rx, 1)

    def __post_init__(self):
        geo, cfg = self.geo, self.geo.cfg
        # static local links from the helper's first element (pure LOS at
        # the helper distance), flat over subbands
        h = ch.local_link(geo.help_pos, geo.help_rot, self.help_elem[:1],
                          geo.prim_pos, geo.prim_rot, self.ue_elem,
                          cfg.f_high_ghz, cfg.helper_distance_m)
        self.h_local = np.broadcast_to(
            h[:, None], (geo.n_ues, self.subc.shape[0]) + h.shape[1:]).copy()

    def _bs_batch(self, cells, dev_pos, dev_rot, loss_db, f_ghz, rx_elem):
        """Realize BS->device links for per-device cell indices (flat)."""
        geo = self.geo
        dev_idx = np.repeat(np.arange(dev_pos.shape[0]),
                            cells.shape[1] if cells.ndim == 2 else 1)
        cell_idx = cells.reshape(-1)
        eff = (geo.bs_eff_prim if dev_pos is geo.prim_pos else geo.bs_eff_help)
        tx_pos = eff[cell_idx, dev_idx]
        los = (geo.los_prim if dev_pos is geo.prim_pos else geo.los_help)[
            cell_idx, dev_idx]
        amp = 10.0 ** (-loss_db[cell_idx, dev_idx] / 20.0)
        h = realize_links(self.rng, f_ghz, self.subc, tx_pos,
                          dev_pos[dev_idx], geo.cell_rot[cell_idx],
                          dev_rot[dev_idx], self.bs_elem, rx_elem,
                          amp, los, tx_sector=True)
        shape = (dev_pos.shape[0], -1) + h.shape[1:]
        return h.reshape(shape) if cells.ndim == 2 else h

    def refresh(self, rr: int, want_relay: bool):
        """New channel realizations; returns per-arm rate tables [bps].

        Output dict: direct (U, S), and for the diversity arm relayed (U, S)
        plus the per-UE path choice.
        """
        geo, cfg = self.geo, self.geo.cfg
        u_n, s_n = geo.n_ues, self.subc.shape[0]
        serving = geo.serving

        h_serv = self._bs_batch(serving[:, None], geo.prim_pos, geo.prim_rot,
                                geo.loss_fl_prim, cfg.f_low_ghz,
                                self.ue_elem)[:, 0]
        h_int = self._bs_batch(geo.interf_prim, geo.prim_pos, geo.prim_rot,
                               geo.loss_fl_prim, cfg.f_low_ghz, self.ue_elem)

        ranks, v = batched_rank_select(
            h_serv, np.full(u_n, self.p_sb_w), self.noise_ue_w,
            min(cfg.ue_dl_config[1], cfg.bs_ports))
        pmat = batched_beam_precoder(h_serv, ranks, v=v)
        p_layer = self.p_sb_w / ranks

        # per-cell transmit precoders (round-robin served UE)
        n_c = geo.n_cells
        q_cell = np.zeros((n_c, cfg.bs_ports, pmat.shape[-1]), dtype=complex)
        ql_cell = np.zeros(n_c)
        for c in range(n_c):
            ues = geo.ue_of_cell[c]
            if len(ues) == 0:
                continue
            u = ues[rr % len(ues)]
            q_cell[c, :, :pmat.shape[-1]] = pmat[u]
            ql_cell[c] = p_layer[u]

        def victim_r(h_i, interf, res, noise_w):
            q = q_cell[interf]                                 # (U, K, n, r)
            b = np.einsum("ukswn,uknr->ukswr", h_i, q, optimize=True)
            r = np.einsum("uk,ukswr,uksvr->uswv", ql_cell[interf], b,
                          b.conj(), optimize=True)
            eye = np.eye(h_i.shape[3])
            r = r + (noise_w + res * self.p_sb_w)[:, None, None, None] * eye
            return r

        r_prim = victim_r(h_int, geo.interf_prim, geo.res_fl_prim,
                          self.noise_ue_w)
        rate_direct = batched_mmse_se(h_serv, pmat, p_layer, r_prim) \
            * cfg.subband_hz

        out = {"direct": rate_direct}
        if not want_relay:
            return out

        # --- relayed arm: BS -> helper (f_L) -> AF -> primary (f_H) ---
        h_sh = self._bs_batch(serving[:, None], geo.help_pos, geo.help_rot,
                              geo.loss_fl_help, cfg.f_low_ghz,
                              self.help_elem)[:, 0]
        h_ih = self._bs_batch(geo.interf_help, geo.help_pos, geo.help_rot,
                              geo.loss_fl_help, cfg.f_low_ghz, self.help_elem)
        r_help = victim_r(h_ih, geo.interf_help, geo.res_fl_help,
                          self.noise_help_w)

        # whitened-MRC combiner per helper (wideband); each output stream is
        # forwarded on its own spare f_H chunk, so streams stay orthogonal
        # and the forwarded first-hop noise is white across streams
        # (the relay cannot forward more streams than the BS transmits)
        n_str = min(cfg.relay_streams, self.help_elem.shape[0], cfg.bs_ports)
        w = relay_rx_beamformer(h_sh, r_help, n_str)                # (U,o,4)

        # f_H interference at the primary: legacy co-channel transmissions
        # at the configured duty cycle
        h_fh = self._bs_batch(geo.interf_fh_prim, geo.prim_pos, geo.prim_rot,
                              geo.loss_fh_prim, cfg.f_high_ghz, self.ue_elem)
        r_fh = np.einsum("ukswn,uksvn->uswv", h_fh, h_fh.conj(),
                         optimize=True) * (self.p_sb_w * cfg.fh_activity
                                           / cfg.bs_ports)
        r_fh = r_fh + (self.noise_ue_w + geo.res_fh_prim * cfg.fh_activity
                       * self.p_sb_w)[:, None, None, None] \
            * np.eye(self.ue_elem.shape[0])

        hh = self.h_local @ self.h_local.conj().transpose(0, 1, 3, 2)
        wh = np.einsum("uom,usmn->uson", w, h_sh, optimize=True)    # (U,S,o,n)
        h_out = [self.h_local @ wh[:, :, o:o + 1, :]
                 for o in range(n_str)]                             # (U,S,4,n)

        def relay_rates(k: int) -> np.ndarray:
            """Rates when the relay forwards its k strongest outputs;
            the relay power cap is split across them.  In the whitened
            domain w R1 w^H = I, so forwarded noise has unit power."""
            ranks_k = np.full(u_n, k)
            p_rel = batched_beam_precoder(np.concatenate(h_out[:k], axis=2),
                                          ranks_k, n_beams=4)
            a1 = np.einsum("uom,usmr->usor", w[:, :k], h_sh @ p_rel[:, None])
            sig = np.mean(np.sum(np.abs(a1) ** 2, axis=3), axis=1) \
                * (self.p_sb_w / k)                                 # (U, k)
            g = np.sqrt(dbm_to_w(cfg.relay_max_tx_dbm) / k / (sig + 1.0))
            stacked = stack_rx(*(
                EffectiveLink(g_o * h_o, g_o ** 2 * hh + r_fh,
                              Provenance.RELAYED)
                for g_o, h_o in zip(g.T[:, :, None, None, None], h_out)))
            return batched_mmse_se(stacked.h_eff, p_rel,
                                   self.p_sb_w / ranks_k,
                                   stacked.r_nn) * cfg.subband_hz

        cand = [relay_rates(k) for k in range(1, n_str + 1)]
        totals = np.stack([c.sum(axis=1) for c in cand])            # (K, U)
        best = np.argmax(totals, axis=0)
        rate_rel = np.stack(cand)[best, np.arange(u_n)]
        out["relayed"] = rate_rel
        return out


def make_dl_engine(geo: DropGeometry, rng: np.random.Generator) -> DlEngine:
    cfg = geo.cfg
    subc = cfg.subband_centers_hz()
    bs = bs_port_array(cfg.bs_ports, cfg.f_low_ghz)
    ue = ue_array(cfg.ue_dl_config[1], cfg.f_low_ghz)
    hp = ue_array(cfg.helper_rx_antennas, cfg.f_low_ghz)
    return DlEngine(
        geo, rng, subc, bs.positions, ue.positions, hp.positions,
        p_sb_w=dbm_to_w(cfg.bs_tx_dbm) / cfg.n_subbands,
        noise_ue_w=thermal_noise_w(cfg.subband_hz, NF_UE_DB),
        noise_help_w=thermal_noise_w(cfg.subband_hz, NF_HELPER_DB))


# ---------------------------------------------------------------------------
# UL refresh (legacy 2CA + collaboration arms)
# ---------------------------------------------------------------------------

@dataclass
class UlEngine:
    geo: DropGeometry
    rng: np.random.Generator
    subc: np.ndarray
    bs_elem: np.ndarray
    ue_elem: np.ndarray         # UL tx array of the primary
    help_elem: np.ndarray
    noise_bs_w: float
    weak: np.ndarray            # (U,) semi-static collaboration decision
    neighbor_cells: np.ndarray = field(init=False)   # (C, K)
    local_amp: float = field(init=False)

    def __post_init__(self):
        geo, cfg = self.geo, self.geo.cfg
        self.local_amp = 10.0 ** (
            -ch.friis_db(cfg.helper_distance_m, cfg.f_high_ghz) / 20.0)
        # strongest interfering cells per victim cell by mean UE coupling
        c_n = geo.n_cells
        k = min(cfg.max_interferers, c_n - 1)
        mean_coup = -geo.loss_fl_prim + geo.pat_db_prim          # (C, U)
        score = np.zeros((c_n, c_n))
        for c in range(c_n):
            ues = geo.ue_of_cell[c]
            if len(ues):
                score[:, c] = mean_coup[:, ues].mean(axis=1)
            else:
                score[:, c] = -np.inf
        np.fill_diagonal(score, -np.inf)
        self.neighbor_cells = np.argsort(-score.T, axis=1)[:, :k]

    def _ue_bs_links(self, ue_idx, cell_idx, f_ghz, loss_db, tx_elem,
                     positions, rotations):
        geo = self.geo
        eff = geo.bs_eff_prim if positions is geo.prim_pos else geo.bs_eff_help
        rx_pos = eff[cell_idx, ue_idx]
        los = (geo.los_prim if positions is geo.prim_pos
               else geo.los_help)[cell_idx, ue_idx]
        amp = 10.0 ** (-loss_db[cell_idx, ue_idx] / 20.0)
        return realize_links(self.rng, f_ghz, self.subc, positions[ue_idx],
                             rx_pos, rotations[ue_idx], geo.cell_rot[cell_idx],
                             tx_elem, self.bs_elem, amp, los, rx_sector=True)

    def refresh(self, rr: int):
        """Per-arm, per-band UL rate tables [bps]."""
        geo, cfg = self.geo, self.geo.cfg
        u_n = geo.n_ues
        all_u = np.arange(u_n)
        serving = geo.serving
        p_tot = dbm_to_w(cfg.ue_max_tx_dbm) / cfg.n_subbands
        max_ul = cfg.ue_ul_config[0]

        h_fl = self._ue_bs_links(all_u, serving, cfg.f_low_ghz,
                                 geo.loss_fl_prim, self.ue_elem,
                                 geo.prim_pos, geo.prim_rot)
        h_fh = self._ue_bs_links(all_u, serving, cfg.f_high_ghz,
                                 geo.loss_fh_prim, self.ue_elem,
                                 geo.prim_pos, geo.prim_rot)
        h_hb = self._ue_bs_links(all_u, serving, cfg.f_low_ghz,
                                 geo.loss_fl_help, self.help_elem,
                                 geo.help_pos, geo.help_rot)

        # interfering UE per neighbor cell (round-robin)
        tx_of_cell = np.full(geo.n_cells, -1)
        for c in range(geo.n_cells):
            ues = geo.ue_of_cell[c]
            if len(ues):
                tx_of_cell[c] = ues[rr % len(ues)]

        nbr = self.neighbor_cells                        # (C, K)
        flat_cells = np.repeat(np.arange(geo.n_cells), nbr.shape[1])
        flat_ues = tx_of_cell[nbr.reshape(-1)]
        ok = flat_ues >= 0

        # white-noise SVD precoders for interferers and the legacy arm
        ranks2, v2 = batched_rank_select(h_fl, np.full(u_n, p_tot / 2.0),
                                         self.noise_bs_w, max_ul)
        ranks2h, v2h = batched_rank_select(h_fh, np.full(u_n, p_tot / 2.0),
                                           self.noise_bs_w, max_ul)

        def interference(h_links, vmat, rk, exclude_weak):
            """Summed interferer covariance per (victim cell, subband).

            Each rank's precoded links form one matmul (a padded one-column
            precoder would change the bits); dead or excluded links stay
            zero and neighbours accumulate in index order.
            """
            u = np.maximum(flat_ues, 0)
            live = ok & ~(exclude_weak & self.weak[u])
            a = np.zeros(h_links.shape[:3] + vmat.shape[-1:], dtype=complex)
            for r in range(1, vmat.shape[-1] + 1):
                sel = live & (rk[u] == r)
                p = vmat[u[sel], :, :r] * math.sqrt(p_tot / 2.0 / r)
                a[sel, :, :, :r] = h_links[sel] @ p[:, None]
            aa = a @ a.conj().transpose(0, 1, 3, 2)      # (C*K, S, m, m)
            aa = aa.reshape(nbr.shape + aa.shape[1:])
            contrib = np.zeros((geo.n_cells,) + aa.shape[2:], dtype=complex)
            for k in range(nbr.shape[1]):
                contrib += aa[:, k]
            return contrib

        h_int_fl = self._ue_bs_links(np.maximum(flat_ues, 0), flat_cells,
                                     cfg.f_low_ghz, geo.loss_fl_prim,
                                     self.ue_elem, geo.prim_pos, geo.prim_rot)
        h_int_fh = self._ue_bs_links(np.maximum(flat_ues, 0), flat_cells,
                                     cfg.f_high_ghz, geo.loss_fh_prim,
                                     self.ue_elem, geo.prim_pos, geo.prim_rot)
        eye = np.eye(self.bs_elem.shape[0])
        r_fl = interference(h_int_fl, v2, ranks2, False) + self.noise_bs_w * eye
        r_fh_leg = interference(h_int_fh, v2h, ranks2h, False) \
            + self.noise_bs_w * eye
        r_fh_col = interference(h_int_fh, v2h, ranks2h, True) \
            + self.noise_bs_w * eye

        def band_rates(ues, h, vmat, rk, r_cov):
            """Rates of UEs `ues` on one band: rank-rk white-noise precoder,
            half the power, their serving cell's covariance."""
            col = np.arange(vmat.shape[-1])[None, :]
            p = np.where((col < rk[ues, None])[:, None, :], vmat[ues], 0.0)
            return batched_mmse_se(h[ues], p, p_tot / 2.0 / rk[ues], r_cov,
                                   owner=serving[ues]) * cfg.subband_hz

        rate_leg_fl = band_rates(all_u, h_fl, v2, ranks2, r_fl)
        rate_leg_fh = band_rates(all_u, h_fh, v2h, ranks2h, r_fh_leg)

        # collaboration: weak users stack their direct columns with the
        # relay-forwarded helper columns in f_L and leave f_H; the others
        # keep their legacy f_L rates and use f_H without the weak users'
        # interference
        weak = np.flatnonzero(self.weak)
        strong = np.flatnonzero(~self.weak)
        h_rel = h_hb[weak][:, :, :, :max_ul]            # helper tx subset
        p_split = p_tot / 2.0
        noise_help_w = thermal_noise_w(cfg.subband_hz, NF_HELPER_DB)
        p_in = self.local_amp ** 2 * p_split + max_ul * noise_help_w
        g = relay_gain(10.0 * math.log10(p_in * 1e3), cfg.relay_max_tx_dbm)
        a_rel = self.local_amp * g
        relayed = EffectiveLink(
            a_rel * h_rel,
            r_fl[serving[weak]] + (g ** 2) * noise_help_w * (
                h_rel @ h_rel.conj().transpose(0, 1, 3, 2)),
            Provenance.RELAYED)
        stacked = stack_tx(h_fl[weak], relayed)
        ranks_s, v_s = batched_rank_select(stacked.h_eff,
                                           np.full(weak.size, p_tot),
                                           self.noise_bs_w, 2 * max_ul)
        col = np.arange(v_s.shape[-1])[None, :]
        p_s = np.where((col < ranks_s[:, None])[:, None, :], v_s, 0.0)
        rate_col_fl = rate_leg_fl.copy()
        rate_col_fl[weak] = batched_mmse_se(stacked.h_eff, p_s,
                                            p_tot / ranks_s,
                                            stacked.r_nn) * cfg.subband_hz
        rate_col_fh = np.zeros_like(rate_leg_fh)
        rate_col_fh[strong] = band_rates(strong, h_fh, v2h, ranks2h, r_fh_col)
        return {"legacy_2ca": (rate_leg_fl, rate_leg_fh),
                "collab": (rate_col_fl, rate_col_fh)}


def make_ul_engine(geo: DropGeometry, rng: np.random.Generator) -> UlEngine:
    cfg = geo.cfg
    weak = geo.snr_fh_ul_db < cfg.semistatic_threshold_db
    bs = bs_port_array(cfg.bs_ports, cfg.f_low_ghz)
    ue = ue_array(cfg.ue_ul_config[0], cfg.f_low_ghz)
    hp = ue_array(cfg.helper_rx_antennas, cfg.f_low_ghz)
    return UlEngine(geo, rng, cfg.subband_centers_hz(), bs.positions,
                    ue.positions, hp.positions,
                    thermal_noise_w(cfg.subband_hz, NF_BS_DB), weak)

"""Batched per-drop machinery: large-scale geometry tables per device
class, one builder for the BS-device links, and the per-refresh
orchestration that turns them into rate tables for the DL diversity and UL
rank-augmentation programs.

Everything here is internal to the drop loop; the link-adaptation kernels
it calls (rank selection, beam codebook, MMSE SE, relay beamformer and
gain, stacked links) live in phy and collab, the O2I loss, the clustered
link realization and the local device-to-device links in channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from .channel import realize_links
from .collab import (EffectiveLink, compose_af_link, relay_gain,
                     relay_rx_beamformer, stack_rx, stack_tx)
from .phy import (batched_beam_precoder, batched_mmse_se,
                  batched_rank_select, interference_cov)
from .scenario import (BS_DOWNTILT_DEG, Case, ScenarioConfig, SiteLayout,
                       bs_port_array, build_hex_layout, drop_ues, rot_y,
                       rot_z, ue_array, wraparound_vectors)

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
class DeviceTables:
    """Large-scale tables of one device class (primaries or helpers)."""
    pos: np.ndarray               # (U, 3)
    rot: np.ndarray               # (U, 3, 3)
    bs_eff: np.ndarray            # (C, U, 3) wraparound BS position per link
    los: np.ndarray               # (C, U) bool
    loss: dict                    # "fl"/"fh" -> (C, U) dB: pathloss+shadowing+penetration
    pat_db: np.ndarray            # (C, U) dB sector gain, geometric dir

    def coupling(self, band: str) -> np.ndarray:
        """(C, U) large-scale coupling [dB] of each cell to each device in
        band "fl" or "fh": sector gain less the loss."""
        return -self.loss[band] + self.pat_db


@dataclass
class DropGeometry:
    cfg: ScenarioConfig
    layout: SiteLayout
    cell_rot: np.ndarray          # (C, 3, 3) sector orientation + downtilt
    prim: DeviceTables
    help: DeviceTables
    serving: np.ndarray           # (U,)
    ue_of_cell: list              # cell -> array of UE indices

    @property
    def n_ues(self) -> int:
        return self.prim.pos.shape[0]

    @property
    def n_cells(self) -> int:
        return self.layout.n_cells

    def round_robin(self, rr: int) -> np.ndarray:
        """(C,) UE each cell serves at round-robin index rr, -1 if empty."""
        return np.array([ues[rr % len(ues)] if len(ues) else -1
                         for ues in self.ue_of_cell])


def _device_tables(layout: SiteLayout, cfg: ScenarioConfig,
                   cell_rot: np.ndarray, pos: np.ndarray, rot: np.ndarray,
                   rng: np.random.Generator) -> DeviceTables:
    """Per (cell, device) wraparound geometry, LOS, losses, sector gains.

    LOS and shadowing are drawn per (site, device) so co-sited sectors
    share them; links are otherwise independent (no cross-correlation).
    """
    pos_xy = pos[:, :2]
    cell_xy = layout.site_positions[layout.cell_site]
    vec = wraparound_vectors(pos_xy, cell_xy, layout)       # (N, C, 2)
    vec = vec.transpose(1, 0, 2)                            # (C, N, 2)
    d2d = np.maximum(np.linalg.norm(vec, axis=-1), 1.0)
    d3d = np.sqrt(d2d ** 2 + (ch.BS_HEIGHT_M - ch.UE_HEIGHT_M) ** 2)

    n_sites, n_dev = layout.n_sites, pos_xy.shape[0]
    site_d2d = d2d[::3]                                     # sector 0 of each site
    p_los = ch.los_probability(site_d2d)
    los_site = rng.uniform(size=(n_sites, n_dev)) < p_los
    los = np.repeat(los_site, 3, axis=0)

    depth = np.minimum(rng.uniform(0.0, 25.0, n_dev), rng.uniform(0.0, 25.0, n_dev))
    bands = ((cfg.f_low_ghz, "fl"), (cfg.f_high_ghz, "fh"))
    pen = {key: ch.o2i_penetration(f, depth, rng) for f, key in bands}

    loss = {}
    for f, key in bands:
        pl = np.where(los, ch.pathloss(d3d, f, True),
                      ch.pathloss(d3d, f, False))
        sigma = np.where(los_site, ch.SHADOWING_SIGMA_LOS_DB,
                         ch.SHADOWING_SIGMA_NLOS_DB)
        sf = np.repeat(rng.normal(0.0, 1.0, (n_sites, n_dev)) * sigma, 3, axis=0)
        loss[key] = pl + sf + pen[key][None, :]

    bs_eff = np.concatenate(
        [pos_xy[None, :, :] + vec,
         np.full((layout.n_cells, n_dev, 1), ch.BS_HEIGHT_M)], axis=-1)
    return DeviceTables(pos, rot, bs_eff, los, loss,
                        _pattern_gain_db(vec * -1.0, cell_rot))


def _pattern_gain_db(vec: np.ndarray, cell_rot: np.ndarray) -> np.ndarray:
    """Sector element gain toward each device's geometric direction [dB]."""
    dz = ch.UE_HEIGHT_M - ch.BS_HEIGHT_M
    d = np.concatenate([vec, np.full(vec.shape[:-1] + (1,), dz)], axis=-1)
    u = d / np.linalg.norm(d, axis=-1, keepdims=True)
    u_loc = np.einsum("cba,cub->cua", cell_rot, u)
    az, el = ch.angles_from_vector(u_loc)
    return 20.0 * np.log10(ch.sector_element_amplitude(az, el))


def build_drop_geometry(cfg: ScenarioConfig, seed: int) -> DropGeometry:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD0)))
    layout = build_hex_layout(cfg.num_rings, cfg.isd)
    prim_pos, prim_rot, help_pos, help_rot = drop_ues(layout, cfg, rng)

    cell_rot = np.array([rot_z(az) @ rot_y(BS_DOWNTILT_DEG)
                         for az in layout.cell_azimuth_deg])

    prim = _device_tables(layout, cfg, cell_rot, prim_pos, prim_rot, rng)
    help_ = _device_tables(layout, cfg, cell_rot, help_pos, help_rot, rng)
    serving = np.argmax(prim.coupling("fl"), axis=0)
    ue_of_cell = [np.flatnonzero(serving == c) for c in range(layout.n_cells)]
    return DropGeometry(cfg, layout, cell_rot, prim, help_, serving,
                        ue_of_cell)


def _strongest(coup: np.ndarray, k: int, exclude=None) -> tuple:
    """Interferers by large-scale coupling coup (C, N) [dB] of C cells to
    N victims: per victim, the k strongest cells in descending order (N, k)
    and the linear sum of the others (N,).  Victim n never counts cell
    exclude[n]."""
    c2 = coup.copy()
    if exclude is not None:
        c2[exclude, np.arange(c2.shape[1])] = -np.inf
    top = np.argsort(-c2, axis=0)[:k].T
    lin = 10.0 ** (c2 / 10.0)
    lin[~np.isfinite(c2)] = 0.0
    taken = np.take_along_axis(lin.T, top, axis=1).sum(axis=1)
    return top, np.maximum(lin.sum(axis=0) - taken, 0.0)


# ---------------------------------------------------------------------------
# BS-device links
# ---------------------------------------------------------------------------

@dataclass
class _Engine:
    geo: DropGeometry
    rng: np.random.Generator
    subc: np.ndarray
    bs_elem: np.ndarray
    ue_elem: np.ndarray           # primary array (DL rx, UL tx)
    help_elem: np.ndarray

    def _links(self, rays: np.ndarray, dev: DeviceTables, cells, devs,
               band: str, dev_elem: np.ndarray,
               uplink: bool = False) -> np.ndarray:
        """Realize the links between cells[b] and device devs[b] of `dev`
        in band "fl" or "fh", BS to device or, with `uplink`, device to
        BS, from their rays (one `draw_rays` row per link, in the flattened
        batch order).  Indices broadcast to a batch shape B; returns
        (*B, S, n_rx, n_tx)."""
        cells, devs = np.broadcast_arrays(cells, devs)
        c, u = cells.reshape(-1), devs.reshape(-1)
        geo, cfg = self.geo, self.geo.cfg
        bs = (dev.bs_eff[c, u], geo.cell_rot[c], self.bs_elem)
        ue = (dev.pos[u], dev.rot[u], dev_elem)
        (tx_pos, tx_rot, tx_elem), (rx_pos, rx_rot, rx_elem) = \
            (ue, bs) if uplink else (bs, ue)
        h = realize_links(
            rays, cfg.f_low_ghz if band == "fl" else cfg.f_high_ghz,
            self.subc, tx_pos, rx_pos, tx_rot, rx_rot, tx_elem, rx_elem,
            10.0 ** (-dev.loss[band][c, u] / 20.0), dev.los[c, u],
            tx_sector=not uplink, rx_sector=uplink)
        return h.reshape(cells.shape + h.shape[1:])

    def _rank_links(self, rays: np.ndarray, dev: DeviceTables,
                    cells: np.ndarray, band: str, dev_elem: np.ndarray):
        """The links from each device u of `dev` to its interferers
        cells[u, k] (U, K), BS to device, from the family's rays (row
        u K + k per link), realized one rank k at a time: a generator of
        K tensors (U, S, n_rx, n_tx), so only one rank of the family is
        held at once, and each rank gathers only its own geometry.  With
        K = 0 it is the empty family (0, U, S, n_rx, n_tx), whose shape
        `phy.interference_cov` reads."""
        u_n, k_n = cells.shape
        victims = np.arange(u_n)
        if k_n == 0:
            return self._links(rays, dev, cells, victims[:, None], band,
                               dev_elem).swapaxes(0, 1)
        return (self._links(rays[:, k::k_n], dev, cells[:, k], victims, band,
                            dev_elem) for k in range(k_n))


# ---------------------------------------------------------------------------
# DL refresh (baseline + diversity arms)
# ---------------------------------------------------------------------------

@dataclass
class DlEngine(_Engine):
    """DL refresh: the baseline arm and the diversity arm."""
    p_sb_w: float
    noise_ue_w: float
    noise_help_w: float
    h_local: np.ndarray = field(init=False)     # (U, 1, n_prim_rx, 1)
    # (cells (U, K), residual (U,)) of `_strongest` per victim link
    interf_prim: tuple = field(init=False)      # primaries, f_L
    interf_help: tuple = field(init=False)      # helpers, f_L
    interf_fh: tuple = field(init=False)        # primaries, f_H

    def __post_init__(self):
        geo, cfg = self.geo, self.geo.cfg
        k = min(cfg.max_interferers, geo.n_cells - 1)
        self.interf_prim = _strongest(geo.prim.coupling("fl"), k, geo.serving)
        # the helper hears its primary's serving cell as signal
        self.interf_help = _strongest(geo.help.coupling("fl"), k, geo.serving)
        # every cell interferes in f_H
        self.interf_fh = _strongest(geo.prim.coupling("fh"), k)
        # static local links from the helper's first element (pure LOS at
        # the helper distance), flat over subbands
        self.h_local = ch.local_link(
            geo.help.pos, geo.help.rot, self.help_elem[:1], geo.prim.pos,
            geo.prim.rot, self.ue_elem, cfg.f_high_ghz,
            cfg.helper_distance_m)[:, None]

    def draw(self) -> list:
        """Every ray of one refresh, one `draw_rays` batch per link family
        in the order `refresh` uses them: the serving links and the
        primaries' interferers, then in a diversity drop the helpers'
        serving links, their interferers and the primaries' f_H
        interferers.  A refresh draws the same counts whatever its index."""
        u_n, k_n = self.interf_prim[0].shape
        counts = [u_n, u_n * k_n]
        if self.geo.cfg.case is Case.DIVERSITY:
            counts += [u_n, u_n * k_n, u_n * k_n]
        return [ch.draw_rays(self.rng, n) for n in counts]

    def refresh(self, rr: int):
        """New channel realizations; returns ({arm: ((U, S) rates [bps],)},
        relayed): the baseline arm (direct link) and, in a diversity drop,
        the diversity arm, per subband the better of the direct link and
        the best relay stream count (ties go direct).  `relayed` (U,) marks
        the UEs that take the relay on some subband."""
        geo, cfg = self.geo, self.geo.cfg
        u_n = geo.n_ues
        serving = geo.serving
        all_u = np.arange(u_n)
        rays_serv, rays_prim, *rays_relay = self.draw()

        h_serv = self._links(rays_serv, geo.prim, serving, all_u, "fl",
                             self.ue_elem)
        ranks, v = batched_rank_select(
            h_serv, np.full(u_n, self.p_sb_w), self.noise_ue_w,
            min(cfg.ue_dl_config[1], cfg.bs_ports))
        pmat = batched_beam_precoder(h_serv, ranks, v=v)
        p_layer = self.p_sb_w / ranks

        # per-cell transmit precoders (round-robin served UE)
        tx = geo.round_robin(rr)
        on = tx >= 0
        q_cell = np.where(on[:, None, None], pmat[tx], 0.0)
        ql_cell = np.where(on, p_layer[tx], 0.0)

        # the interferer links are needed only for their covariance, so
        # they are realized one rank at a time as the covariance reads them
        cells, res = self.interf_prim
        r_prim = interference_cov(
            self._rank_links(rays_prim, geo.prim, cells, "fl", self.ue_elem),
            q_cell[cells], ql_cell[cells], self.noise_ue_w + res * self.p_sb_w)
        rate_direct = batched_mmse_se(h_serv, pmat, p_layer, r_prim) \
            * cfg.subband_hz

        arms = {"baseline": (rate_direct,)}
        if cfg.case is not Case.DIVERSITY:
            return arms, np.zeros(u_n, dtype=bool)

        # --- relayed arm: BS -> helper (f_L) -> AF -> primary (f_H) ---
        rays_sh, rays_help, rays_fh = rays_relay
        h_sh = self._links(rays_sh, geo.help, serving, all_u, "fl",
                           self.help_elem)
        cells, res = self.interf_help
        r_help = interference_cov(
            self._rank_links(rays_help, geo.help, cells, "fl",
                             self.help_elem),
            q_cell[cells], ql_cell[cells],
            self.noise_help_w + res * self.p_sb_w)

        # whitened-MRC combiner per helper (wideband); each output stream is
        # forwarded on its own spare f_H chunk, so the streams' signals stay
        # orthogonal (the relay cannot forward more streams than the BS
        # transmits)
        n_str = min(cfg.relay_streams, self.help_elem.shape[0], cfg.bs_ports)
        w = relay_rx_beamformer(h_sh, r_help, n_str)                # (U,o,4)

        r_fh = self._fh_cov(rays_fh)
        wh = np.einsum("uom,usmn->uson", w, h_sh, optimize=True)    # (U,S,o,n)
        # forwarded first-hop noise per output: w whitens with the mean of
        # R1 over subbands, so this is 1 on average, not on every subband
        wr = w[:, None] @ r_help @ np.swapaxes(w, -1, -2).conj()[:, None]
        n1 = np.mean(np.diagonal(wr, axis1=-2, axis2=-1).real, axis=1)

        def relay_rates(k: int) -> np.ndarray:
            """Rates when the relay forwards its k strongest outputs, each
            on its own f_H chunk, splitting the relay power cap across
            them.  The relay precoder comes from the gain-free streams
            wh[:, :, :k] (the AGC gain depends on it); h_local (rank 1) in
            front of each stream only scales their Gram by |h_local|^2."""
            ranks_k = np.full(u_n, k)
            p_rel = batched_beam_precoder(wh[:, :, :k], ranks_k)
            a1 = wh[:, :, :k] @ p_rel[:, None]                      # (U,S,k,r)
            sig = np.mean(np.sum(np.abs(a1) ** 2, axis=3), axis=1) \
                * (self.p_sb_w / k)                                 # (U, k)
            g = np.sqrt(dbm_to_w(cfg.relay_max_tx_dbm) / k / (sig + n1[:, :k]))
            second = stack_rx(*(EffectiveLink(self.h_local * e, r_fh)
                                for e in np.eye(k)))
            relayed = compose_af_link(h_sh, w[:, :k], g, second.h_eff,
                                      r_help, second.r_nn)
            return batched_mmse_se(relayed.h_eff, p_rel,
                                   self.p_sb_w / ranks_k,
                                   relayed.r_nn) * cfg.subband_hz

        cand = [relay_rates(k) for k in range(1, n_str + 1)]
        totals = np.stack([c.sum(axis=1) for c in cand])            # (K, U)
        best = np.argmax(totals, axis=0)
        rate_relayed = np.stack(cand)[best, np.arange(u_n)]
        sel = rate_relayed > rate_direct
        arms["diversity"] = (np.where(sel, rate_relayed, rate_direct),)
        return arms, sel.any(axis=1)

    def _fh_cov(self, rays: np.ndarray) -> np.ndarray:
        """(U, S, m, m) f_H interference-plus-noise covariance at the
        primaries from their interferers' rays: legacy co-channel
        transmissions at the configured duty cycle."""
        geo, cfg = self.geo, self.geo.cfg
        cells, res = self.interf_fh
        u_n, k_n = cells.shape
        s_n, m, n = len(self.subc), self.ue_elem.shape[0], self.bs_elem.shape[0]
        # every rank's links side by side, (U, S, m, K n), so each
        # covariance is one product over all K n columns
        x = np.empty((u_n, s_n, m, k_n, n), dtype=complex)
        links = self._rank_links(rays, geo.prim, cells, "fh", self.ue_elem)
        for k in range(k_n):
            x[:, :, :, k] = next(links)
        x = x.reshape(u_n, s_n, m, k_n * n)
        r_fh = np.empty((u_n, s_n, m, m), dtype=complex)
        for s in range(s_n):                 # one subband's conj at a time
            r_fh[:, s] = x[:, s] @ x[:, s].conj().transpose(0, 2, 1)
        r_fh *= self.p_sb_w * cfg.fh_activity / cfg.bs_ports
        return r_fh + (self.noise_ue_w + res * cfg.fh_activity
                       * self.p_sb_w)[:, None, None, None] * np.eye(m)


def make_dl_engine(geo: DropGeometry, seed: int) -> DlEngine:
    """DL engine of drop `seed`, with its own channel generator."""
    cfg = geo.cfg
    return DlEngine(
        geo, np.random.default_rng(np.random.SeedSequence((seed, 0xC4))),
        cfg.subband_centers_hz(), bs_port_array(cfg.bs_ports, cfg.f_low_ghz),
        ue_array(cfg.ue_dl_config[1], cfg.f_low_ghz),
        ue_array(cfg.helper_rx_antennas, cfg.f_low_ghz),
        p_sb_w=dbm_to_w(cfg.bs_tx_dbm) / cfg.n_subbands,
        noise_ue_w=thermal_noise_w(cfg.subband_hz, NF_UE_DB),
        noise_help_w=thermal_noise_w(cfg.subband_hz, NF_HELPER_DB))


# ---------------------------------------------------------------------------
# UL refresh (legacy 2CA + collaboration arms)
# ---------------------------------------------------------------------------

@dataclass
class UlEngine(_Engine):
    """UL refresh: the legacy two-carrier arm and the collaboration arm."""
    noise_bs_w: float
    weak: np.ndarray            # (U,) semi-static collaboration decision
    neighbor_cells: np.ndarray = field(init=False)   # (C, K)
    local_amp: float = field(init=False)

    def __post_init__(self):
        geo, cfg = self.geo, self.geo.cfg
        self.local_amp = 10.0 ** (
            -ch.friis_db(cfg.helper_distance_m, cfg.f_high_ghz) / 20.0)
        # strongest interfering cells per victim cell by the mean coupling
        # to the victim's UEs; an empty cell's column is -inf
        coup = geo.prim.coupling("fl")
        c_n = geo.n_cells
        score = np.stack([coup[:, ues].mean(axis=1) if len(ues)
                          else np.full(c_n, -np.inf)
                          for ues in geo.ue_of_cell], axis=1)   # (C, C)
        k = min(cfg.max_interferers, c_n - 1)
        self.neighbor_cells = _strongest(score, k, np.arange(c_n))[0]

    def draw(self) -> list:
        """Every ray of one refresh, one `draw_rays` batch per link family
        in the order `refresh` uses them: the primaries' f_L and f_H
        links, the weak users' helper links, then the interferers' f_L and
        f_H links.  A refresh draws the same counts whatever its index."""
        u_n, n_int = self.geo.n_ues, self.neighbor_cells.size
        return [ch.draw_rays(self.rng, n) for n in
                (u_n, u_n, np.count_nonzero(self.weak), n_int, n_int)]

    def refresh(self, rr: int):
        """New channel realizations; returns ({arm: (f_L, f_H) (U, S) rates
        [bps]}, weak): the legacy 2CA arm, then the collaboration arm."""
        geo, cfg = self.geo, self.geo.cfg
        all_u = np.arange(geo.n_ues)
        serving = geo.serving
        p_tot = dbm_to_w(cfg.ue_max_tx_dbm) / cfg.n_subbands
        rays_fl, rays_fh, rays_hb, rays_int_fl, rays_int_fh = self.draw()

        weak = np.flatnonzero(self.weak)
        strong = np.flatnonzero(~self.weak)
        h_fl = self._links(rays_fl, geo.prim, serving, all_u, "fl",
                           self.ue_elem, uplink=True)
        h_fh = self._links(rays_fh, geo.prim, serving, all_u, "fh",
                           self.ue_elem, uplink=True)
        h_hb = self._links(rays_hb, geo.help, serving[weak], weak, "fl",
                           self.help_elem, uplink=True)

        def precode(h, power):
            """White-noise SVD precoder of links h at total `power`, any
            rank up to their transmit antennas, columns past each link's
            rank zeroed, and its per-layer power."""
            rk, v = batched_rank_select(h, np.full(h.shape[0], power),
                                        self.noise_bs_w, h.shape[-1])
            col = np.arange(v.shape[-1])
            return np.where(col < rk[:, None, None], v, 0.0), power / rk

        # precoders for interferers and the legacy arm: half the power per band
        prec_fl = precode(h_fl, p_tot / 2.0)
        prec_fh = precode(h_fh, p_tot / 2.0)

        # interfering UE per neighbor cell (round-robin)
        nbr = self.neighbor_cells                        # (C, K)
        tx = geo.round_robin(rr)[nbr]
        tx_ues = np.maximum(tx, 0)
        cells = np.arange(geo.n_cells)[:, None]
        h_int_fl = self._links(rays_int_fl, geo.prim, cells, tx_ues, "fl",
                               self.ue_elem, uplink=True)
        h_int_fh = self._links(rays_int_fh, geo.prim, cells, tx_ues, "fh",
                               self.ue_elem, uplink=True)

        def interference(h_links, prec, exclude_weak):
            """Interferer covariance plus noise per (victim cell, subband);
            empty cells and, with `exclude_weak`, weak users are silent."""
            p, p_layer = prec
            live = (tx >= 0) & ~(exclude_weak & self.weak[tx_ues])
            return interference_cov(h_links.swapaxes(0, 1), p[tx_ues],
                                    np.where(live, p_layer[tx_ues], 0.0),
                                    self.noise_bs_w)

        r_fl = interference(h_int_fl, prec_fl, False)
        r_fh_leg = interference(h_int_fh, prec_fh, False)
        r_fh_col = interference(h_int_fh, prec_fh, True)

        def band_rates(ues, h, prec, r_cov):
            """Rates of UEs `ues` on one band against their serving cell's
            covariance."""
            p, p_layer = prec
            return batched_mmse_se(h[ues], p[ues], p_layer[ues], r_cov,
                                   owner=serving[ues]) * cfg.subband_hz

        rate_leg_fl = band_rates(all_u, h_fl, prec_fl, r_fl)
        rate_leg_fh = band_rates(all_u, h_fh, prec_fh, r_fh_leg)

        # collaboration: weak users stack their direct columns with the
        # relay-forwarded helper columns in f_L and leave f_H; the others
        # keep their legacy f_L rates and use f_H without the weak users'
        # interference
        # the helper forwards as many primary streams as it has antennas
        n_rel = min(cfg.ue_ul_config[0], self.help_elem.shape[0])
        h_rel = h_hb[:, :, :, :n_rel]                   # helper tx subset
        p_split = p_tot / 2.0
        noise_help_w = thermal_noise_w(cfg.subband_hz, NF_HELPER_DB)
        p_in = self.local_amp ** 2 * p_split + n_rel * noise_help_w
        g = relay_gain(10.0 * math.log10(p_in * 1e3), cfg.relay_max_tx_dbm)
        # local hop: each forwarded stream reaches its own helper antenna
        eye_ul = np.eye(n_rel)
        relayed = compose_af_link(self.local_amp * eye_ul, eye_ul, g, h_rel,
                                  noise_help_w * eye_ul, r_fl[serving[weak]])
        stacked = stack_tx(h_fl[weak], relayed)
        p_s, pl_s = precode(stacked.h_eff, p_tot)
        rate_col_fl = rate_leg_fl.copy()
        rate_col_fl[weak] = batched_mmse_se(stacked.h_eff, p_s, pl_s,
                                            stacked.r_nn) * cfg.subband_hz
        rate_col_fh = np.zeros_like(rate_leg_fh)
        rate_col_fh[strong] = band_rates(strong, h_fh, prec_fh, r_fh_col)
        return ({"legacy_2ca": (rate_leg_fl, rate_leg_fh),
                 "collab": (rate_col_fl, rate_col_fh)}, self.weak)


def make_ul_engine(geo: DropGeometry, seed: int) -> UlEngine:
    """UL engine of drop `seed`, with its own channel generator; its weak
    users have a wideband f_H SNR (large-scale) below the threshold."""
    cfg = geo.cfg
    noise_bs = thermal_noise_w(cfg.n_prb * cfg.prb_hz, NF_BS_DB)
    serv_loss_fh = geo.prim.loss["fh"][geo.serving, np.arange(geo.n_ues)]
    snr_fh_db = (cfg.ue_max_tx_dbm - serv_loss_fh
                 - (10.0 * np.log10(noise_bs * 1e3)))
    return UlEngine(
        geo, np.random.default_rng(np.random.SeedSequence((seed, 0xC5))),
        cfg.subband_centers_hz(), bs_port_array(cfg.bs_ports, cfg.f_low_ghz),
        ue_array(cfg.ue_ul_config[0], cfg.f_low_ghz),
        ue_array(cfg.helper_rx_antennas, cfg.f_low_ghz),
        thermal_noise_w(cfg.subband_hz, NF_BS_DB),
        snr_fh_db < cfg.semistatic_threshold_db)

"""Monte-Carlo drop loop: traffic generation, proportional-fair scheduling,
per-drop throughput statistics and offered-load calibration.

A *drop* realizes one network geometry, then steps slots while refreshing
fast-fading rate tables every few slots.  Each comparison arm (e.g. the
legacy baseline and the collaborative variant) is simulated against the
same geometry, channel randomness and traffic arrivals.  Drops share
nothing, so `map_drops` runs a plan's drops in processes, and a load
calibration builds its seeds' channel tables in processes too (both by
`_blocks.map_items`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _blocks, engine
from .errors import CalibrationError, ConfigurationError
from .scenario import Case, Ftp3, FullBuffer, ScenarioConfig

PF_AVG_WINDOW_SLOTS = 100
PF_RATE_FLOOR_BPS = 1.0
CAL_LAM_INIT_PER_S = 0.25                # first λ probe of calibrate_load


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficEvent:
    """One file arriving at a user's queue."""
    ue: int
    t_arrival_s: float
    size_bytes: int


@dataclass(frozen=True)
class ThroughputRecord:
    ue: int
    t_arrival_s: float
    t_complete_s: float
    size_bytes: int

    @property
    def throughput_bps(self) -> float:
        dt = self.t_complete_s - self.t_arrival_s
        return 8.0 * self.size_bytes / dt if dt > 0 else math.inf


def ftp3_arrivals(traffic: Ftp3, n_ues: int, duration_s: float,
                  rng: np.random.Generator) -> list:
    """Poisson file arrivals per user, merged and time-sorted."""
    events = []
    for u in range(n_ues):
        t = 0.0
        while True:
            t += rng.exponential(1.0 / traffic.lambda_per_s)
            if t >= duration_s:
                break
            events.append(TrafficEvent(u, t, traffic.file_bytes))
    events.sort(key=lambda e: (e.t_arrival_s, e.ue))
    return events


# ---------------------------------------------------------------------------
# proportional-fair scheduler
# ---------------------------------------------------------------------------

@dataclass
class SchedulerState:
    """Per-arm exponentially averaged served rates (one entry per UE)."""
    avg_bps: np.ndarray

    @classmethod
    def create(cls, n_ues: int) -> "SchedulerState":
        return cls(np.full(n_ues, PF_RATE_FLOOR_BPS))

    def update(self, served_bps: np.ndarray) -> None:
        a = 1.0 / PF_AVG_WINDOW_SLOTS
        self.avg_bps = np.maximum((1.0 - a) * self.avg_bps + a * served_bps,
                                  PF_RATE_FLOOR_BPS)


def pf_schedule(rates_bps: np.ndarray, avg_bps: np.ndarray,
                backlogged: np.ndarray) -> np.ndarray:
    """Pick the PF winner per subband among backlogged users.

    rates_bps is (..., n_ues, n_subbands), avg_bps and backlogged are
    (..., n_ues); returns (..., n_subbands) UE indices, -1 where nothing is
    scheduled.  Leading axes are independent schedulers (e.g. cells).
    """
    if rates_bps.shape[-2] == 0:
        return np.full(rates_bps.shape[:-2] + rates_bps.shape[-1:], -1)
    metric = np.where(backlogged[..., None],
                      rates_bps / avg_bps[..., None], -np.inf)
    win = np.argmax(metric, axis=-2)
    best = np.take_along_axis(metric, win[..., None, :], axis=-2)[..., 0, :]
    return np.where(best > 0.0, win, -1)


# ---------------------------------------------------------------------------
# per-arm slot bookkeeping
# ---------------------------------------------------------------------------

class _ArmState:
    """Queues, PF state and utilization counters for one comparison arm."""

    def __init__(self, n_ues: int, full_buffer: bool):
        self.sched = SchedulerState.create(n_ues)
        self.full_buffer = full_buffer
        self.queues = [[] for _ in range(n_ues)]   # [arrival, remaining, size]
        self.records: list = []
        self.served_bytes = np.zeros(n_ues)
        self.busy_res = 0
        self.total_res = 0

    def backlogged(self) -> np.ndarray:
        if self.full_buffer:
            return np.ones(len(self.queues), dtype=bool)
        return np.array([len(q) > 0 for q in self.queues])

    def admit(self, ev: TrafficEvent) -> None:
        self.queues[ev.ue].append([ev.t_arrival_s, ev.size_bytes, ev.size_bytes])

    def serve(self, ue: int, bytes_avail: float, t_end: float) -> None:
        self.served_bytes[ue] += bytes_avail
        if self.full_buffer:
            return
        q = self.queues[ue]
        while q and bytes_avail > 0.0:
            take = min(q[0][1], bytes_avail)
            q[0][1] -= take
            bytes_avail -= take
            if q[0][1] <= 1e-9:
                arr, _, size = q.pop(0)
                self.records.append(ThroughputRecord(ue, arr, t_end, size))

    def finish_full_buffer(self, duration_s: float) -> None:
        for u, b in enumerate(self.served_bytes):
            self.records.append(ThroughputRecord(u, 0.0, duration_s, int(b)))


@dataclass(frozen=True)
class DropStats:
    """Per-arm outcome of one drop."""
    records: tuple
    resource_utilization: float
    served_bytes: np.ndarray
    path_share_relayed: float = 0.0


def percentile_nearest_rank(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("empty sample")
    k = max(int(math.ceil(pct / 100.0 * v.size)), 1)
    return float(v[k - 1])


def upt_stats(records) -> dict:
    vals = np.array([r.throughput_bps for r in records
                     if math.isfinite(r.throughput_bps)])
    if vals.size == 0:
        return {"mean_bps": 0.0, "p5_bps": 0.0, "n_files": 0}
    return {"mean_bps": float(vals.mean()),
            "p5_bps": percentile_nearest_rank(vals, 5.0),
            "n_files": int(vals.size)}


# ---------------------------------------------------------------------------
# drop driver: channel stage, then one scheduling loop
# ---------------------------------------------------------------------------

def _channel_stage(geo: engine.DropGeometry, seed: int):
    """Refresh the channel once per call to next(); yields the engine's
    ({arm: per-band (U, S) rate tables [bps]}, relayed), reference arm
    first, `relayed` (U,) marking the treatment arm's relay-path users."""
    eng = (engine.make_ul_engine if geo.cfg.case is Case.RANK_AUG
           else engine.make_dl_engine)(geo, seed)
    for rr in itertools.count():
        yield eng.refresh(rr)


def _scheduling_stage(cfg: ScenarioConfig, seed: int, ue_of_cell,
                      tables) -> dict:
    """Run the slot loop of one drop against per-refresh rate tables.

    `ue_of_cell` lists each cell's UEs (from the drop geometry) and
    `tables` yields at least cfg.n_refreshes items of `_channel_stage`;
    arrivals come from the drop's traffic stream.  Returns {arm_name:
    DropStats}, reference arm first.
    """
    n_ues = sum(map(len, ue_of_cell))
    full_buffer = isinstance(cfg.traffic, FullBuffer)
    shared = full_buffer and cfg.case is Case.DIVERSITY

    # (cells x widest cell) UE index; padding is never backlogged
    cells = [ues for ues in ue_of_cell if len(ues)]
    pad = np.zeros((len(cells), max(map(len, cells))), dtype=int)
    valid = np.zeros(pad.shape, dtype=bool)
    for c, ues in enumerate(cells):
        pad[c, :len(ues)] = ues
        valid[c, :len(ues)] = True

    tables = iter(tables)
    rates, relayed = next(tables)
    arms = {name: _ArmState(n_ues, full_buffer) for name in rates}
    rng_tr = np.random.default_rng(np.random.SeedSequence((seed, 0x7A)))
    events = [] if full_buffer else ftp3_arrivals(
        cfg.traffic, n_ues, cfg.sim_duration_s, rng_tr)
    ev_i = 0
    rel_slots = 0
    slot_bytes = cfg.slot_s / 8.0

    for slot in range(cfg.n_slots):
        if slot and slot % cfg.channel_update_slots == 0:
            rates, relayed = next(tables)
        t_end = (slot + 1) * cfg.slot_s
        while ev_i < len(events) and events[ev_i].t_arrival_s <= slot * cfg.slot_s:
            for arm in arms.values():
                arm.admit(events[ev_i])
            ev_i += 1
        rel_slots += int(relayed.sum())

        allocs = None
        for name, arm in arms.items():
            if allocs is None or not shared:
                back = arm.backlogged()[pad] & valid
                allocs = [pf_schedule(tab[pad], arm.sched.avg_bps[pad], back)
                          for tab in rates[name]]
            served = np.zeros(n_ues)
            for tab, alloc in zip(rates[name], allocs):
                for c, s in zip(*np.nonzero(alloc >= 0)):
                    u = pad[c, alloc[c, s]]
                    arm.serve(u, tab[u, s] * slot_bytes, t_end)
                    served[u] += tab[u, s]
                arm.busy_res += int(np.sum(alloc >= 0))
                arm.total_res += alloc.size
            arm.sched.update(served)

    out = {}
    for i, (name, arm) in enumerate(arms.items()):
        if full_buffer:
            arm.finish_full_buffer(cfg.n_slots * cfg.slot_s)
        ru = arm.busy_res / arm.total_res if arm.total_res else 0.0
        share = rel_slots / (cfg.n_slots * n_ues) if i else 0.0
        out[name] = DropStats(tuple(arm.records), ru, arm.served_bytes.copy(),
                              share)
    return out


def _check_case(cfg: ScenarioConfig) -> None:
    if cfg.case not in (Case.BASELINE, Case.DIVERSITY, Case.RANK_AUG):
        raise ConfigurationError(f"case {cfg.case} has no drop program")


def run_drop(cfg: ScenarioConfig, seed: int) -> dict:
    """Simulate one drop; returns {arm_name: DropStats}, reference arm first.

    Every arm sees the same geometry, channel stream and arrivals.  Under
    full buffer the diversity arm is served under the baseline arm's PF
    allocation, so its per-user dominance over the baseline is exact.
    """
    _check_case(cfg)
    geo = engine.build_drop_geometry(cfg, seed)
    return _scheduling_stage(cfg, seed, geo.ue_of_cell,
                             _channel_stage(geo, seed))


def map_drops(cfg: ScenarioConfig, seeds) -> list:
    """[run_drop(cfg, s) for s in seeds], computed on one process per
    usable CPU, up to one per seed, by `_blocks.map_items`: each drop
    seeds its generators from (seed, key).  A replaced `run_drop` keeps
    every drop in the calling process."""
    return _blocks.map_items(run_drop, cfg, seeds, run_drop)


# ---------------------------------------------------------------------------
# offered-load calibration
# ---------------------------------------------------------------------------

def measure_ru(cfg: ScenarioConfig, seeds) -> float:
    """Mean resource utilization of the reference arm across seeds."""
    vals = [next(iter(run_drop(cfg, s).values())).resource_utilization
            for s in seeds]
    return float(np.mean(vals))


def _drop_tables(cfg: ScenarioConfig, seed: int) -> tuple:
    """(UEs of each cell, the cfg.n_refreshes items of `_channel_stage`)
    of one drop."""
    geo = engine.build_drop_geometry(cfg, seed)
    return geo.ue_of_cell, list(itertools.islice(_channel_stage(geo, seed),
                                                 cfg.n_refreshes))


def _ru_of_load(cfg: ScenarioConfig, seeds):
    """measure_ru as a function of the FTP arrival rate λ.

    The channel stream never depends on traffic, so each seed's geometry
    and rate tables are built once here, in processes by
    `_blocks.map_items` (a replaced `engine.build_drop_geometry` keeps
    them in the calling process); a call only reruns the scheduling
    stage under Ftp3(file_bytes, λ), in the calling process.
    """
    drops = list(zip(seeds, _blocks.map_items(
        _drop_tables, cfg, seeds, engine.build_drop_geometry)))

    def ru(lam: float) -> float:
        c = cfg.replace(traffic=Ftp3(cfg.traffic.file_bytes, lam))
        vals = [next(iter(_scheduling_stage(c, s, cells, tables).values()))
                .resource_utilization for s, (cells, tables) in drops]
        return float(np.mean(vals))

    return ru


def calibrate_load(cfg: ScenarioConfig, target_ru: float, tol: float = 0.02,
                   seeds=(0, 1, 2), max_iter: int = 12) -> tuple:
    """Bisection on the per-user file arrival rate to hit a target RU.

    Returns (lambda_per_s, achieved_ru), where achieved_ru is
    measure_ru(cfg with that rate, seeds).  Raises CalibrationError when
    the target cannot be bracketed.
    """
    if not isinstance(cfg.traffic, Ftp3):
        raise ConfigurationError("load calibration requires FTP traffic")
    _check_case(cfg)
    if not 0.0 < target_ru < 1.0:
        raise ConfigurationError("target_ru must lie in (0, 1)")
    if not 0.0 <= tol < math.inf:
        raise ConfigurationError("tol must be finite and >= 0")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigurationError("seeds must not be empty")

    probe = _ru_of_load(cfg, seeds)
    lo, hi = 0.0, CAL_LAM_INIT_PER_S
    ru_hi = probe(hi)
    expansions = 0
    while ru_hi < target_ru:
        lo, hi = hi, hi * 2.0
        ru_hi = probe(hi)
        expansions += 1
        if expansions > 8:
            raise CalibrationError(
                f"RU saturates at {ru_hi:.3f} < target {target_ru:.3f}")
    lam, ru = hi, ru_hi
    for _ in range(max_iter):
        if abs(ru - target_ru) <= tol:
            return lam, ru
        mid = 0.5 * (lo + hi)
        ru = probe(mid)
        if ru < target_ru:
            lo = mid
        else:
            hi = mid
        lam = mid
    if abs(ru - target_ru) <= tol:
        return lam, ru
    raise CalibrationError(
        f"calibration did not converge: RU {ru:.3f} vs target {target_ru:.3f}")

"""Traced runs: wrap each module's public entry points from outside and
derive the per-layer metrics from the recorded spans and counts.

A wrapper replaces the module (or class) attribute that the caller looks
up, so nothing under ``src/`` changes.  The wrappers are installed only
around traced iterations.  Spans are kept in memory as
``[name, start, end, parent, iteration]`` and written once at the end.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import fields

from devmimo import cli, engine, localization, simloop

REFRESH = ("engine.DlEngine.refresh", "engine.UlEngine.refresh")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _geometry_key(cfg) -> tuple:
    """Everything in a config that the channel stream depends on."""
    return tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                 if f.name != "traffic")


class Tracer:
    """Installs the wrappers and collects spans and counts per iteration."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []           # one Counter per traced iteration
        self.realizations: list = []     # one set per traced iteration
        self._stack: list = []
        self._seed_of_geo: dict = {}
        self._iteration = -1
        self._targets = [
            (engine, "build_drop_geometry", self._on_geometry),
            (engine, "make_dl_engine", None),
            (engine, "make_ul_engine", None),
            (engine.DlEngine, "refresh", self._on_refresh),
            (engine.UlEngine, "refresh", self._on_refresh),
            (engine, "realize_links", self._on_links),
            (engine, "batched_rank_select", self._on_batch),
            (engine, "batched_beam_precoder", self._on_batch),
            (engine, "batched_mmse_se", self._on_mmse),
            (simloop, "measure_ru", None),
            (simloop, "run_drop", self._on_drop),
            (simloop, "pf_schedule", None),
            (simloop, "ftp3_arrivals", self._on_arrivals),
            (localization, "run_loc_experiment", None),
            (localization, "synthesize_snapshots", None),
            (localization, "noncoherent_aoa", None),
            (cli, "run_experiment", self._on_experiment),
        ]

    # -- installing ---------------------------------------------------------

    def _span_name(self, owner, attr: str) -> str:
        if inspect.ismodule(owner):
            return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"

    def _wrapper(self, name: str, original, hook):
        sig = inspect.signature(original)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = [name, start, end, parent, self._iteration]
            if hook is not None:
                hook(name, sig.bind(*args, **kwargs).arguments, result,
                     self.counts[-1])
            return result

        return traced

    def run(self, fn):
        """Call fn() as the next traced iteration, with every entry point
        wrapped; always unwrap."""
        self._iteration = len(self.counts)
        self.counts.append(Counter())
        self.realizations.append(set())
        self._seed_of_geo.clear()
        saved = []
        try:
            for owner, attr, hook in self._targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(
                    self._span_name(owner, attr), original, hook))
            return fn()
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- counting hooks -----------------------------------------------------

    def _on_geometry(self, name, args, geo, counts):
        # keep geo referenced so its id is not reused within the iteration
        self._seed_of_geo[id(geo)] = (geo, args["seed"])

    def _on_refresh(self, name, args, result, counts):
        eng = args["self"]
        seed = self._seed_of_geo.get(id(eng.geo), (None, None))[1]
        self.realizations[-1].add((type(eng).__name__, seed, args["rr"],
                                   _geometry_key(eng.geo.cfg)))
        counts["engine.refresh.calls"] += 1

    def _on_links(self, name, args, h, counts):
        counts[f"{name}.links"] += args["tx_pos"].shape[0]
        counts[f"{name}.out_mb"] += h.size * h.itemsize / 1e6

    def _on_batch(self, name, args, result, counts):
        counts[f"{name}.batch"] += args["h"].shape[0]

    def _on_mmse(self, name, args, result, counts):
        # complex LU of the m x m covariance plus r right-hand sides
        u_n, s_n = args["h"].shape[:2]
        m = args["r_nn"].shape[-1]
        r = args["p"].shape[-1]
        counts[f"{name}.solves"] += u_n * s_n
        counts[f"{name}.gflop"] += u_n * s_n * (8.0 / 3.0 * m ** 3
                                                + 8.0 * m * m * r) / 1e9

    def _on_drop(self, name, args, stats, counts):
        for arm in ("diversity", "collab"):
            if arm in stats:
                counts["simloop.relay_share.sum"] += \
                    stats[arm].path_share_relayed
                counts["simloop.relay_share.n"] += 1

    def _on_arrivals(self, name, args, events, counts):
        counts[f"{name}.events"] += len(events)

    def _on_experiment(self, name, args, summary, counts):
        out = args["plan"].out_dir
        for f in os.listdir(out):
            counts[f"{name}.out_bytes"] += os.path.getsize(os.path.join(out, f))

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "iteration"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _tail(samples_ms: list) -> tuple:
    """(p50, tail, tail percentile): the tail is the highest percentile
    with at least ten samples beyond it, or the maximum when none has."""
    if not samples_ms:
        return 0.0, 0.0, 0.0
    s = sorted(samples_ms)
    n = len(s)

    def pct(p):                      # nearest rank
        return s[max(1, math.ceil(p / 100.0 * n)) - 1]

    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return statistics.median(s), pct(p), p
    return statistics.median(s), s[-1], 100.0


def layer_metrics(tracer: Tracer, traced_walls: list,
                  untraced_walls: list) -> dict:
    """Per-layer metrics, each the median over traced iterations of its
    per-iteration value; refresh latencies pool every traced refresh."""
    n_it = len(tracer.counts)
    busy = [Counter() for _ in range(n_it)]
    calls = [Counter() for _ in range(n_it)]
    child = Counter()                        # span id -> traced child time
    for name, start, end, parent, it in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    self_t = [Counter() for _ in range(n_it)]
    durations = {name: [] for name in REFRESH}
    for sid, (name, start, end, parent, it) in enumerate(tracer.spans):
        busy[it][name] += end - start
        calls[it][name] += 1
        self_t[it][name] += end - start - child[sid]
        if name in durations:
            durations[name].append(1e3 * (end - start))

    def med(per_it):
        return float(statistics.median(per_it)) if per_it else 0.0

    m = {}

    def put(key, unit, per_it):
        m[key] = (med(per_it), unit)

    def busy_calls(name):
        put(f"{name}.busy_s", "s", [b[name] for b in busy])
        put(f"{name}.calls", "count", [c[name] for c in calls])

    def counted(key, unit):
        put(key, unit, [c[key] for c in tracer.counts])

    busy_calls("engine.build_drop_geometry")
    for name in REFRESH:
        busy_calls(name)
        put(f"{name}.self_s", "s", [s[name] for s in self_t])
        p50, tail, p = _tail(durations[name])
        m[f"{name}.p50_ms"] = (p50, "ms")
        m[f"{name}.tail_ms"] = (tail, "ms")
        m[f"{name}.tail_pct"] = (p, "%")
        m[f"{name}.samples"] = (float(len(durations[name])), "count")
    busy_calls("engine.realize_links")
    counted("engine.realize_links.links", "count")
    counted("engine.realize_links.out_mb", "MB")
    for name in ("engine.batched_rank_select", "engine.batched_beam_precoder"):
        busy_calls(name)
        counted(f"{name}.batch", "count")
    busy_calls("engine.batched_mmse_se")
    counted("engine.batched_mmse_se.solves", "count")
    counted("engine.batched_mmse_se.gflop", "GFLOP")
    put("engine.refresh.distinct_ratio", "ratio",
        [len(r) / c["engine.refresh.calls"] if c["engine.refresh.calls"]
         else 0.0 for r, c in zip(tracer.realizations, tracer.counts)])

    busy_calls("simloop.run_drop")
    put("simloop.slot_loop.self_s", "s", [s["simloop.run_drop"]
                                          for s in self_t])
    busy_calls("simloop.pf_schedule")
    put("simloop.ftp3_arrivals.busy_s", "s",
        [b["simloop.ftp3_arrivals"] for b in busy])
    counted("simloop.ftp3_arrivals.events", "count")
    put("simloop.measure_ru.calls", "count",
        [c["simloop.measure_ru"] for c in calls])
    put("simloop.relay_share", "ratio",
        [c["simloop.relay_share.sum"] / c["simloop.relay_share.n"]
         if c["simloop.relay_share.n"] else 0.0 for c in tracer.counts])

    put("localization.run_loc_experiment.busy_s", "s",
        [b["localization.run_loc_experiment"] for b in busy])
    busy_calls("localization.noncoherent_aoa")
    put("localization.synthesize_snapshots.busy_s", "s",
        [b["localization.synthesize_snapshots"] for b in busy])
    put("localization.self_s", "s",
        [s["localization.run_loc_experiment"] for s in self_t])

    put("cli.run_experiment.busy_s", "s",
        [b["cli.run_experiment"] for b in busy])
    put("cli.run_experiment.self_s", "s",
        [s["cli.run_experiment"] for s in self_t])
    counted("cli.run_experiment.out_bytes", "B")

    m["trace.wall_s"] = (med(traced_walls), "s")
    m["trace.overhead_s"] = (med(traced_walls) - med(untraced_walls), "s")
    return m

"""Guards for the benchmark harness under bench/, whose own smoke test
(bench/test_smoke.py) lies outside tests/.  The tracer wraps entry points
of the package by attribute name and binds their arguments by parameter
name, so a rename under src/ breaks every traced benchmark run; these
tests catch it here.
"""

import importlib
import json
import threading
from collections import Counter
from pathlib import Path

import pytest

from devmimo import _blocks

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# spans each workload's iteration must record: the wrapped entry points
# are looked up where the package calls them
DROP_SPANS = {"cli.run_experiment", "simloop.run_drop",
              "engine.build_drop_geometry", "engine.realize_links",
              "engine.batched_rank_select", "engine.batched_mmse_se",
              "simloop.pf_schedule"}
SPANS = {
    "dl_diversity": DROP_SPANS | {"engine.make_dl_engine",
                                  "engine.DlEngine.refresh",
                                  "engine.batched_beam_precoder"},
    "ul_rank": DROP_SPANS | {"engine.make_ul_engine",
                             "engine.UlEngine.refresh",
                             "simloop.ftp3_arrivals"},
    "calibrate_ftp": {"engine.build_drop_geometry", "engine.make_dl_engine",
                      "engine.DlEngine.refresh", "engine.realize_links",
                      "simloop.pf_schedule", "simloop.ftp3_arrivals"},
    "loc_ladder": {"cli.run_experiment", "localization.run_loc_experiment",
                   "localization.synthesize_snapshots",
                   "localization.noncoherent_aoa"},
}


@pytest.fixture
def bench(monkeypatch):
    """The harness's tracer and workloads modules, imported as run.py
    imports them."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("tracer"), importlib.import_module(
        "workloads")


def test_tracer_targets_are_attributes_of_their_owners(bench):
    tracing, _ = bench
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracing.Tracer()._targets
               if attr not in owner.__dict__]
    assert not missing


def test_every_workload_has_expected_spans():
    assert set(SPANS) == set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_iteration_runs_under_the_tracer(bench, name, tmp_path):
    # the --tiny iterations may fail their output checks (ul_rank completes
    # no file), so only the traced run itself is checked
    tracing, workloads = bench
    wl = workloads.WORKLOADS[name](0, True)
    tracer = tracing.Tracer()
    originals = [owner.__dict__[attr] for owner, attr, _ in tracer._targets]
    it = tracer.run(lambda: wl.run(str(tmp_path)))
    assert it.fingerprint
    assert [owner.__dict__[attr] for owner, attr, _ in tracer._targets] \
        == originals
    assert SPANS[name] <= {span[0] for span in tracer.spans}
    metrics = tracing.layer_metrics(tracer, [1.0], [1.0])
    assert metrics["cli.run_experiment.busy_s"][1] == "s"


@pytest.mark.parametrize("name", ["dl_diversity", "ul_rank"])
def test_traced_drops_run_in_the_calling_process(bench, name, tmp_path,
                                                  monkeypatch):
    # a drop run in a worker process records its spans there, where the
    # tracer never sees them, so a traced plan runs every drop in the
    # calling process, also on 2 CPUs
    tracing, workloads = bench
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[name](0, True)
    tracer.run(lambda: wl.run(str(tmp_path)))
    calls = Counter(span[0] for span in tracer.spans)
    assert len(wl.inputs["drop_seeds"]) == 2
    assert calls["simloop.run_drop"] == 2
    assert calls["engine.build_drop_geometry"] == 2


@pytest.mark.parametrize("name", WORKLOADS)
def test_pool_threads_record_no_span(bench, name, tmp_path, monkeypatch):
    # the row blocks of the kernels and of the localization spectrum run
    # on pool threads, which must call no wrapped name: span and count
    # totals equal a one-CPU run's
    tracing, workloads = bench
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 2)
    threads = set()
    rows = _blocks._rows

    def record(fn, arrays, b):
        threads.add(threading.get_ident())
        return rows(fn, arrays, b)

    monkeypatch.setattr(_blocks, "_rows", record)
    runs = []
    for cpus in (1, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        tracer = tracing.Tracer()
        wl = workloads.WORKLOADS[name](0, True)
        tracer.run(lambda: wl.run(str(tmp_path / str(cpus))))
        runs.append((Counter(span[0] for span in tracer.spans),
                     tracer.counts))
    assert runs[1] == runs[0]
    assert threads - {threading.get_ident()}    # some block ran on the pool

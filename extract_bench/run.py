"""Extraction benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 extract_bench/run.py --workload short_pages --seed 1 --seconds 16 --trace 0

Runs from the repository root, writes only under ``.bench_work/`` there, and
prints two JSON lines: the host state and details, then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
if __name__ == "__main__":
    # a run writes only under WORK: temporary files too, so TMPDIR is set
    # before anything below picks a temporary directory
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"))
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    atexit.register(shutil.rmtree, WORK, True)
sys.path.insert(0, ROOT)
os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

import pyarrow  # noqa: E402
import ray  # noqa: E402
from bench import _cpu_probe  # noqa: E402

from extract_bench import spantrace  # noqa: E402
from extract_bench.session import RaySession, nproc  # noqa: E402
from extract_bench.workloads import WORKLOADS  # noqa: E402

N_SETUPS = 2  # setup_s is the median of this many cold starts
MIN_PASSES = 4  # peak_rss_mb is the median over the passes
PROBE_ITERS = 2_000_000  # ~0.3 s per cpu_probe
TIME_LIMIT_S = 160  # leaves the clean-up time to exit within 180 s


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _pmax(values: list[int]) -> tuple[int, float]:
    """Highest of a fixed percentile ladder with at least ten values above it."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1 - p / 100) >= 10 or p == 50.0:
            return xs[min(len(xs) - 1, int(len(xs) * p / 100))], p


def _setup(wl, session: RaySession, runtime_env: dict | None = None) -> float:
    """ray.init plus the cold warm-up pass that spawns and imports workers."""
    t0 = time.perf_counter()
    session.start(runtime_env)
    wl.warm_up()
    return time.perf_counter() - t0


def _timed_passes(wl, session: RaySession, seconds: float, rss: bool = False):
    """Passes until ``seconds`` have been measured and at least
    ``MIN_PASSES`` made; each pass is checked after its clock stops."""
    passes, measured = [], 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        if rss:
            session.reset_peak_rss()
        res = wl.run_pass()
        peak = session.peak_rss_mb() if rss else 0.0
        measured += res.wall_s
        passes.append((res, peak, wl.check(res)))
    return passes


def _tally(checks) -> dict:
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    mismatched = sum(c.mismatched for c in checks)
    return {
        "correct": failed == 0 and mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "mismatch_frac": mismatched / attempted,
    }


def end_to_end(wl, session: RaySession, seconds: float) -> tuple[dict, dict]:
    wl.prepare()
    setups = []
    for i in range(N_SETUPS):
        if i:
            session.stop()
        setups.append(_setup(wl, session))
    passes = _timed_passes(wl, session, seconds, rss=True)
    session.stop()
    tally = _tally([c for _, _, c in passes])
    metrics = {
        # all passes' documents over all their walls: the host's speed moves
        # on every time scale, and a sum averages it more than a median
        "docs_per_s": _m(tally["attempted"] / sum(r.wall_s for r, _, _ in passes), "1/s"),
        "setup_s": _m(statistics.median(setups), "s"),
        "ok_frac": _m(1 - tally["failed_frac"], "ratio"),
        "match_frac": _m(1 - tally["mismatch_frac"], "ratio"),
        "peak_rss_mb": _m(statistics.median(p for _, p, _ in passes), "MB"),
    }
    details = {
        **tally,
        "passes": len(passes),
        "pass_walls_s": [r.wall_s for r, _, _ in passes],
        "setups_s": setups,
    }
    return metrics, details


def traced(wl, session: RaySession, seconds: float) -> tuple[dict, dict]:
    """Untraced reference pass and Ray floor, then traced passes in a
    session whose workers carry the span wrappers, then the in-process
    single-thread baseline."""
    rec = spantrace.Recorder()
    with spantrace.locally_traced(rec):
        wl.prepare()
    _setup(wl, session)
    # the first pass over the full input runs ~10 % slower than later ones
    checks = [wl.check(wl.run_pass())]
    ref = wl.run_pass()
    checks.append(wl.check(ref))
    floor_s = wl.floor_pass()
    session.stop()

    trace_dir = os.path.join(WORK, "trace")
    os.makedirs(trace_dir)
    _setup(wl, session, spantrace.worker_runtime_env(trace_dir, ROOT))
    with spantrace.locally_traced(rec):
        t_start = time.perf_counter()
        passes = _timed_passes(wl, session, seconds)
        t_end = time.perf_counter()
    session.stop()
    inproc = wl.inproc_pass()

    all_spans = rec.spans + spantrace.load_worker_spans(trace_dir)
    window = [s for s in all_spans if t_start <= s[4] and s[5] <= t_end]
    layers = spantrace.layer_totals(window)
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "count": 0}
    docs = layers.get("extract.row", zero)["calls"] or 1

    def per_doc_us(name: str, key: str = "self_s") -> dict:
        return _m(layers.get(name, zero)[key] / docs * 1e6, "us")

    # long_pages synthesizes its pages at set-up, not in the pass
    synth = layers.get("training_data.synthesize_page") or spantrace.layer_totals(
        [s for s in all_spans if s[3] == "training_data.synthesize_page"]
    ).get("training_data.synthesize_page", zero)
    traced_wall = statistics.median(r.wall_s for r, _, _ in passes)
    covered = sum(t["self_s"] for n, t in layers.items() if n not in spantrace.OWN_SPANS)
    walls = ref.out.column("wall_us").to_pylist()
    pmax, pmax_at = _pmax(walls)
    udf_s = sum(walls) / 1e6
    parse = layers.get("dom.parse", zero)

    metrics = {
        "training_data.synthesize_page_us": _m(
            synth["self_s"] / max(1, synth["calls"]) * 1e6, "us"),
        "spans.spans_to_html_us": per_doc_us("spans.spans_to_html"),
        "extract.arrow_in_us": per_doc_us("extract.extract_spans_batch"),
        "extract.arrow_out_us": per_doc_us("extract.rows_to_table"),
        "spans.emit_spans_us": per_doc_us("spans.emit_spans"),
        "readability.candidates_per_doc": _m(
            sum(ref.out.column("n_candidates").to_pylist()) / ref.out.num_rows, "count"),
        "dom.parse_us": per_doc_us("dom.parse"),
        "dom.elements_per_doc": _m(parse["count"] / max(1, parse["calls"]), "count"),
        **{f"{name}_us": per_doc_us(name) for _, name in spantrace.PHASES
           if name != "readability.grab"},
        "readability.grab_us": per_doc_us("readability.grab", "incl_s"),
        **{f"{name}_us": per_doc_us(name) for _, name in spantrace.GRAB_PHASES},
        "extract.row_us_p50": _m(float(statistics.median(walls)), "us"),
        "extract.row_us_pmax": _m(float(pmax), "us"),
        "ray.stage_s": _m(ref.wall_s, "s"),
        "ray.udf_s": _m(udf_s, "s"),
        "ray.overhead_s": _m(ref.wall_s - udf_s, "s"),
        "ray.floor_s": _m(floor_s, "s"),
        "ray.blocks": _m(ref.blocks, "count"),
        "extract.inproc_docs_per_s": _m(inproc, "1/s"),
        "extract_pipeline.crash_run_s": _m(ref.write.get("crash_run_s", 0.0), "s"),
        "extract_pipeline.resume_s": _m(ref.write.get("resume_s", 0.0), "s"),
        "lineage.partitions_committed": _m(ref.write.get("partitions_committed", 0), "count"),
        "io.output_mb": _m(ref.write.get("output_mb", 0.0), "MB"),
        "trace.coverage": _m(covered / sum(r.wall_s for r, _, _ in passes), "ratio"),
        "trace.overhead_s": _m(traced_wall - ref.wall_s, "s"),
    }
    details = {
        **_tally(checks + [c for _, _, c in passes]),
        "traced_passes": len(passes),
        "traced_docs": docs,
        "row_us_pmax_percentile": pmax_at,
        "row_us_rows": len(walls),
    }
    return metrics, details


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def _on_term(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (the self-test runs tiny inputs)")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)  # so that the clean-up below runs
    signal.alarm(TIME_LIMIT_S)
    session = RaySession(os.path.join(WORK, "ray"))
    try:
        host = {"nproc": nproc(), "cpu_probe_before": _cpu_probe(PROBE_ITERS),
                "ray": ray.__version__, "pyarrow": pyarrow.__version__}
        wl = WORKLOADS[args.workload](WORK, args.seed, args.scale)
        run = traced if args.trace else end_to_end
        metrics, details = run(wl, session, args.seconds)
        host["cpu_probe_after"] = _cpu_probe(PROBE_ITERS)
    finally:
        signal.alarm(0)
        if ray.is_initialized():
            session.stop()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": host,
                      "details": details}))
    print(json.dumps({"correct": details["correct"], "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

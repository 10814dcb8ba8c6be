"""Self-test of the extraction benchmark at tiny size.

    python3 -m pytest extract_bench -q

Every workload runs end to end and traced under one Ray CPU and prints
every metric of BENCHMARK.json with its unit; the correctness checks reject
a dropped span and a row duplicated after resume.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

from extract_bench import workloads as W
from extract_bench.session import RaySession
from swift_readability_ray import fixtures
from swift_readability_ray.pipelines import training_data
from swift_readability_ray.schema import OUT
from swift_readability_ray.stages.extract import extract_spans_batch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "extract_bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
        env={**os.environ, "OMP_NUM_THREADS": "1"},  # nproc → 1 Ray CPU
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    info, result = _run(workload, trace)
    assert info["host"]["nproc"] == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _corrupt(out: pa.Table, row: int) -> pa.Table:
    rows = out.to_pylist()
    rows[row]["spans"] = rows[row]["spans"][:-1]
    return pa.Table.from_pylist(rows, schema=OUT)


def test_short_pages_check_rejects_a_dropped_span(tmp_path):
    path = W._write(W.documents_table(5, 12), str(tmp_path / "documents.parquet"))
    reference = W.span_stats_reference(path)
    docs = training_data._to_span_docs(W.documents_table(5, 12))
    out = extract_spans_batch(docs, **W.ShortPages.fn_kwargs)
    assert W.check_span_stats(out, reference).mismatched == 0
    assert W.check_span_stats(_corrupt(out, 3), reference).mismatched == 1


def test_long_pages_check_rejects_a_dropped_span():
    pages, expected = W.long_pages_table(5, 2)
    out = extract_spans_batch(pages)
    assert W.check_spans(out, expected).mismatched == 0
    assert W.check_spans(_corrupt(out, 1), expected).mismatched == 1


def test_fixture_resume_check_rejects_a_row_duplicated_after_resume(tmp_path):
    wl = W.FixtureResume(str(tmp_path), seed=5, scale=0.02)
    wl.prepare()
    # Ray's socket paths must stay short: keep its session files in the root
    ray_dir = os.path.join(ROOT, ".bench_work", "selftest-ray")
    session = RaySession(ray_dir)
    session.start()
    try:
        res = wl.run_pass()
    finally:
        session.stop()
        shutil.rmtree(ray_dir, ignore_errors=True)
    assert wl.check(res).mismatched == 0
    # a partition file written twice, as a resume that re-ran a committed
    # partition would leave it
    out_dir = os.path.join(os.path.dirname(wl.input), "out")
    first = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs
        if f.endswith(".parquet") and "part=" in d
    )[0]
    shutil.copy(first, first.replace(".parquet", "-again.parquet"))
    blocks, _ = W.read_partitioned_output(out_dir)
    res.out = W._table(blocks)
    check = wl.check(res)
    assert check.mismatched == check.attempted


def test_fixture_check_needs_every_lineage_record_and_metrics():
    docs = fixtures.generate_corpus(5, 1)
    inp, exp = fixtures.corpus_to_tables(docs)
    out = extract_spans_batch(inp, base_url=fixtures.BASE_URL)
    expected = exp.to_pylist()
    assert W.check_fixtures(out, expected, 8, 8, True).mismatched == 0
    assert W.check_fixtures(out, expected, 7, 8, True).mismatched == len(expected)
    assert W.check_fixtures(out, expected, 8, 8, False).mismatched == len(expected)

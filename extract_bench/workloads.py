"""Inputs, pipeline passes and correctness checks of the three workloads.

Every input is made from the workload seed; the package receives only the
generated tables.  A pass runs one of the package's public pipeline entry
points in the current Ray session, makes one pass over its input and returns
the outputs; the workload's check compares them with a reference that is
built without the extraction pipeline.

* ``short_pages``: small synthesized pages through
  ``training_data.extract_spans`` — per-row and per-block fixed costs.
* ``long_pages``: pages of 20-600 joined documents through
  ``extract_pipeline.extraction_dataset`` — DOM size and traversal cost.
* ``fixture_resume``: the fixture corpus through
  ``run_resumable_extraction``, aborted after half its partitions and
  resumed — the write path.
"""

from __future__ import annotations

import glob
import importlib.util
import math
import os
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from swift_readability_ray import fixtures
from swift_readability_ray.pipelines import extract_pipeline
from swift_readability_ray.pipelines import training_data
from swift_readability_ray.schema import OUT
from swift_readability_ray.sources.io import read_documents
from swift_readability_ray.stages.extract import extract_spans_batch
from swift_readability_ray.state.lineage import LineageLog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# vocabulary and row shape of the sf documents table: 10-100 words per row
VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
# long pages join consecutive rows of a documents table this long (sf0.1)
SOURCE_DOCS = 5000


def documents_table(seed: int, n: int) -> pa.Table:
    rng = random.Random(seed)
    texts = [" ".join(rng.choices(VOCAB, k=rng.randint(10, 100))) for _ in range(n)]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
        }
    )


@dataclass
class Check:
    attempted: int
    failed: int  # rows with an error, or lost
    mismatched: int  # rows lost, duplicated or different from the reference


@dataclass
class PassResult:
    wall_s: float
    out: pa.Table
    blocks: int
    write: dict = field(default_factory=dict)  # write-path facts (fixture_resume)


def _identity(batch: pa.Table) -> pa.Table:
    return batch


def _collect(ds: ray.data.Dataset) -> list[pa.Table]:
    """Execute ``ds`` and receive its output blocks in this process."""
    return list(ds.iter_batches(batch_format="pyarrow", batch_size=None))


def _table(blocks: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(blocks) if blocks else OUT.empty_table()


def _streaming_pass(build) -> PassResult:
    """Build the pipeline's Dataset and consume it, timed."""
    t0 = time.perf_counter()
    blocks = _collect(build())
    return PassResult(time.perf_counter() - t0, _table(blocks), len(blocks))


def _floor_s(read, batch_size: int) -> float:
    """Wall of an identity ``map_batches`` over ``read()``: Ray's floor."""
    t0 = time.perf_counter()
    _collect(read().map_batches(_identity, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=batch_size))
    return time.perf_counter() - t0


def _inproc_docs_per_s(path: str, batch_size: int, extract) -> float:
    """Single-thread docs/s of ``extract`` over ``batch_size`` row slices of
    the input, in this process and without Ray."""
    tbl = pq.read_table(path)
    t0 = time.perf_counter()
    for i in range(0, tbl.num_rows, batch_size):
        extract(tbl.slice(i, batch_size))
    return tbl.num_rows / (time.perf_counter() - t0)


def _write(table: pa.Table, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path)
    return path


def _span_key(spans: list[dict]) -> list[tuple]:
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


def _doc_ids(out: pa.Table) -> Counter:
    return Counter(out.column("doc_id").to_pylist())


def _rows_failed(out: pa.Table, want_ids) -> int:
    seen = _doc_ids(out)
    errors = sum(e is not None for e in out.column("error").to_pylist())
    return errors + sum(1 for d in want_ids if d not in seen)


def _check_rows(out: pa.Table, reference: dict, key) -> Check:
    """Each row's ``key(spans)`` against ``reference[doc_id]``; a document
    whose row is missing, duplicated, failed or different is a mismatch, and
    so is every row of an unknown document."""
    seen = _doc_ids(out)
    got = {
        d: key(spans)
        for d, spans, error in zip(
            out.column("doc_id").to_pylist(),
            out.column("spans").to_pylist(),
            out.column("error").to_pylist(),
        )
        if error is None
    }
    mismatched = sum(
        1 for d, want in reference.items() if seen[d] != 1 or got.get(d) != want
    ) + sum(n for d, n in seen.items() if d not in reference)
    return Check(len(reference), _rows_failed(out, reference), mismatched)


# --------------------------------------------------------------- short_pages


def span_stats_reference(docs_path: str) -> dict[str, tuple[int, int, int]]:
    """doc_id → (n_spans, n_media_spans, text_chars) from the DuckDB
    ``span_stats`` oracle of ``__ray_entry__`` over the documents table."""
    import duckdb

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(ROOT, "__ray_entry__.py")
    )
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    con = duckdb.connect()
    try:
        quoted = docs_path.replace("'", "''")
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{quoted}')")
        rows = con.execute(entry.oracle_sql()["span_stats"]).fetchall()
    finally:
        con.close()
    return {str(d): (n, m, c) for d, n, m, c in rows}


def _span_stats(spans: list[dict]) -> tuple[int, int, int]:
    return (
        len(spans),
        sum(s["kind"] == "media" for s in spans),
        sum(len(s["text"] or "") for s in spans),
    )


def check_span_stats(out: pa.Table, reference: dict[str, tuple]) -> Check:
    return _check_rows(out, reference, _span_stats)


class ShortPages:
    name = "short_pages"
    n_docs = 600
    batch_size = 64  # extract_spans's default
    fn_kwargs = {"base_url": "http://testdata.local/doc.html", "include_content_html": False}

    def __init__(self, work: str, seed: int, scale: float) -> None:
        self.dir = os.path.join(work, self.name, "main")
        self.warm_dir = os.path.join(work, self.name, "warm")
        self.seed = seed
        self.n = max(8, round(self.n_docs * scale))

    def prepare(self) -> None:
        path = _write(documents_table(self.seed, self.n), f"{self.dir}/documents.parquet")
        _write(documents_table(self.seed + 1, 16), f"{self.warm_dir}/documents.parquet")
        self.reference = span_stats_reference(path)

    def warm_up(self) -> None:
        _streaming_pass(lambda: training_data.extract_spans(self.warm_dir))

    def run_pass(self) -> PassResult:
        return _streaming_pass(lambda: training_data.extract_spans(self.dir))

    def check(self, res: PassResult) -> Check:
        return check_span_stats(res.out, self.reference)

    def floor_pass(self) -> float:
        return _floor_s(lambda: ray.data.read_parquet(
            f"{self.dir}/documents.parquet", columns=["doc_id", "text", "source"]
        ), self.batch_size)

    def inproc_pass(self) -> float:
        return _inproc_docs_per_s(
            f"{self.dir}/documents.parquet", self.batch_size,
            lambda b: extract_spans_batch(training_data._to_span_docs(b), **self.fn_kwargs),
        )


# ---------------------------------------------------------------- long_pages


def page_lengths(rng: random.Random, n: int, lo: int = 20, hi: int = 600) -> list[int]:
    """``n`` page lengths in documents, log-uniform in [lo, hi]: one draw in
    each of ``n`` equal strata of log k, in seeded order.  The stratification
    keeps a pass's total text, and so its work, nearly equal across seeds
    while every page's size still comes from the seed."""
    a, b = math.log(lo), math.log(hi)
    ks = [round(math.exp(a + (i + rng.random()) * (b - a) / n)) for i in range(n)]
    rng.shuffle(ks)
    return ks


def expected_page_spans(page_id: str, text: str) -> list[tuple]:
    """What extraction must return for a generated long page: one text span
    per 40-word paragraph, then the inline media span."""
    words = text.split()
    paras = [" ".join(words[i : i + 40]) + "." for i in range(0, len(words), 40)]
    spans = [("text", p, "") for p in paras] + [("media", "", f"mem://img/{page_id}")]
    return [(*s, i) for i, s in enumerate(spans)]


def long_pages_table(seed: int, n_pages: int) -> tuple[pa.Table, dict[str, list]]:
    texts = documents_table(seed, SOURCE_DOCS).column("text").to_pylist()
    rng = random.Random(f"long_pages/{seed}")
    pages = []
    for k in page_lengths(rng, n_pages):
        start = rng.randrange(SOURCE_DOCS)
        pages.append(" ".join(texts[(start + j) % SOURCE_DOCS] for j in range(k)))
    joined = pa.table(
        {
            "doc_id": pa.array(range(n_pages), pa.int64()),
            "text": pa.array(pages, pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n_pages)], pa.string()),
        }
    )
    # the same text/media/text span split as the short_pages pipeline
    span_docs = training_data._to_span_docs(joined)
    expected = {str(i): expected_page_spans(str(i), t) for i, t in enumerate(pages)}
    return span_docs, expected


def check_spans(out: pa.Table, expected: dict[str, list]) -> Check:
    return _check_rows(out, expected, _span_key)


class LongPages:
    name = "long_pages"
    n_pages = 40
    batch_size = 32  # extraction_dataset's default

    def __init__(self, work: str, seed: int, scale: float) -> None:
        self.path = os.path.join(work, self.name, "pages.parquet")
        self.warm_path = os.path.join(work, self.name, "warm.parquet")
        self.seed = seed
        self.n = max(4, round(self.n_pages * scale))

    def prepare(self) -> None:
        pages, self.expected = long_pages_table(self.seed, self.n)
        _write(pages, self.path)
        _write(long_pages_table(self.seed + 1, 2)[0], self.warm_path)

    def warm_up(self) -> None:
        _streaming_pass(lambda: extract_pipeline.extraction_dataset(self.warm_path))

    def run_pass(self) -> PassResult:
        return _streaming_pass(lambda: extract_pipeline.extraction_dataset(self.path))

    def check(self, res: PassResult) -> Check:
        return check_spans(res.out, self.expected)

    def floor_pass(self) -> float:
        return _floor_s(lambda: read_documents(self.path, columns=["doc_id", "spans"]),
                        self.batch_size)

    def inproc_pass(self) -> float:
        return _inproc_docs_per_s(self.path, self.batch_size, extract_spans_batch)


# ------------------------------------------------------------ fixture_resume

_EXPECTED_FIELDS = ("title", "byline", "dir", "lang", "excerpt", "site_name", "published_time")


def check_fixtures(
    out: pa.Table, expected: list[dict], committed: int, num_partitions: int,
    metrics_written: bool,
) -> Check:
    """Strict per-document comparison with the corpus's constructed
    expectations, plus exactly-once: one row per input document, a lineage
    record for every partition and the job's metrics table.  If exactly-once
    fails, no row of the output counts as correct."""
    by_id = {r["doc_id"]: r for r in out.to_pylist()}
    seen = _doc_ids(out)
    mismatched = 0
    for exp in expected:
        row = by_id.get(exp["doc_id"])
        ok = row is not None and seen[exp["doc_id"]] == 1 and row["error"] is None
        if ok and exp["mode"] == "strict":
            ok = (
                _span_key(row["spans"]) == _span_key(exp["spans"])
                and all((row[k] or None) == (exp[k] or None) for k in _EXPECTED_FIELDS)
                and row["readerable"] == exp["readerable"]
            )
        elif ok:
            ok = bool(row["spans"])
        mismatched += not ok
    want = {e["doc_id"] for e in expected}
    mismatched += sum(n for d, n in seen.items() if d not in want)
    exactly_once = (
        out.num_rows == len(expected)
        and len(seen) == out.num_rows
        and committed == num_partitions
        and metrics_written
    )
    if not exactly_once:
        mismatched = max(mismatched, len(expected))
    return Check(len(expected), _rows_failed(out, want), mismatched)


def read_partitioned_output(out_dir: str) -> tuple[list[pa.Table], int]:
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    return [pq.read_table(f) for f in files], sum(os.path.getsize(f) for f in files)


class FixtureResume:
    name = "fixture_resume"
    n_per_category = 50
    num_partitions = 8
    fail_after = 4
    batch_size = 32  # run_resumable_extraction's default

    def __init__(self, work: str, seed: int, scale: float) -> None:
        self.base = os.path.join(work, self.name)
        self.seed = seed
        self.n = max(2, round(self.n_per_category * scale))

    def prepare(self) -> None:
        inp, exp = fixtures.corpus_to_tables(fixtures.generate_corpus(self.seed, self.n))
        self.input = _write(inp, f"{self.base}/main/documents.parquet")
        self.expected = exp.to_pylist()
        warm, _ = fixtures.corpus_to_tables(fixtures.generate_corpus(self.seed + 1, 1))
        self.warm_input = _write(warm, f"{self.base}/warm/documents.parquet")

    def _out_dir(self, inp: str) -> str:
        out_dir = os.path.join(os.path.dirname(inp), "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        return out_dir

    def warm_up(self) -> None:
        extract_pipeline.run_resumable_extraction(
            self.warm_input, self._out_dir(self.warm_input), num_partitions=1,
            base_url=fixtures.BASE_URL,
        )

    def run_pass(self) -> PassResult:
        out_dir = self._out_dir(self.input)
        kwargs = dict(num_partitions=self.num_partitions, base_url=fixtures.BASE_URL)
        t0 = time.perf_counter()
        try:
            extract_pipeline.run_resumable_extraction(
                self.input, out_dir, fail_after_partitions=self.fail_after, **kwargs
            )
        except RuntimeError as exc:
            if "injected failure" not in str(exc):
                raise
        else:
            raise RuntimeError("the crash run finished without the injected abort")
        t1 = time.perf_counter()
        extract_pipeline.run_resumable_extraction(self.input, out_dir, **kwargs)
        t2 = time.perf_counter()
        blocks, nbytes = read_partitioned_output(out_dir)
        write = {
            "crash_run_s": t1 - t0,
            "resume_s": t2 - t1,
            "partitions_committed": len(LineageLog(out_dir).completed_partitions()),
            "metrics_written": os.path.exists(os.path.join(out_dir, "metrics.parquet")),
            "output_mb": nbytes / 1e6,
        }
        return PassResult(t2 - t0, _table(blocks), len(blocks), write)

    def check(self, res: PassResult) -> Check:
        return check_fixtures(
            res.out, self.expected, res.write["partitions_committed"],
            self.num_partitions, res.write["metrics_written"],
        )

    def floor_pass(self) -> float:
        return _floor_s(lambda: read_documents(self.input, columns=["doc_id", "spans"]),
                        self.batch_size)

    def inproc_pass(self) -> float:
        return _inproc_docs_per_s(
            self.input, self.batch_size,
            lambda b: extract_spans_batch(b, base_url=fixtures.BASE_URL),
        )


WORKLOADS = {w.name: w for w in (ShortPages, LongPages, FixtureResume)}

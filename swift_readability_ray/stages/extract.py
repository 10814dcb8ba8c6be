"""Extraction stage: spans → article spans + metadata columns.

The single fused per-row transform of SURVEY.md §3.4: all extraction phases
(span reassembly, parse, metadata, preprocess, grabArticle, prepArticle,
postprocess, span emission) run inside one ``map_batches`` UDF so the DOM
never crosses a stage boundary.  The heavy state (compiled regex table, tag
sets) lives at module scope, so it is built once per worker process and
shared by every task that lands there; per-row failures are captured in the
``error`` column instead of failing the batch (ArticleGrabber-style
robustness, SURVEY.md §4.2).  Work counters ride the OUT rows
(``n_candidates``, ``input_bytes``, ``wall_us``), so metrics come from data
columns alone; ``n_candidates`` counts the elements scored by the grab
attempts that ran (a retry attempt skipped as a repeat of the failed one
scores none).

Usage::

    ds.map_batches(
        extract_spans_batch,
        fn_kwargs={"options": ExtractOptions(), "base_url": ...},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=32,                # HTML rows are fat — keep batches small
    )
"""

from __future__ import annotations

import time

import pyarrow as pa

from ..readability.core import ExtractOptions, Extractor
from ..schema import OUT
from ..spans import emit_spans, spans_to_html


class ReadabilityExtractor:
    """Batch extractor over ``(doc_id, spans)`` pyarrow tables."""

    def __init__(
        self,
        options: ExtractOptions | None = None,
        base_url: str = "http://localhost/",
        include_content_html: bool = True,
    ) -> None:
        self.options = options or ExtractOptions()
        self.base_url = base_url
        self.include_content_html = include_content_html

    def extract_one(self, doc_id: str, spans: list[dict]) -> dict:
        """Extraction for one row, timed — ``wall_us`` rides the OUT row so
        per-partition metrics can report real wall_seconds from data columns
        alone (no retry-lossy side channel)."""
        t0 = time.perf_counter()
        row = self._extract_one_inner(doc_id, spans)
        row["wall_us"] = int((time.perf_counter() - t0) * 1e6)
        return row

    def _extract_one_inner(self, doc_id: str, spans: list[dict]) -> dict:
        row = {
            "doc_id": doc_id,
            "spans": [],
            "title": None,
            "byline": None,
            "dir": None,
            "lang": None,
            "excerpt": None,
            "site_name": None,
            "published_time": None,
            "content_html": None,
            "text_content": None,
            "length": 0,
            "readerable": False,
            "error": None,
            "n_candidates": 0,
            "input_bytes": 0,
        }
        extractor = Extractor(self.options)
        try:
            html = spans_to_html(spans)
            row["input_bytes"] = len(html)
            result = extractor.parse(html, self.base_url)
        except Exception as exc:  # per-row isolation: never fail the batch
            row["error"] = f"{type(exc).__name__}: {exc}"
            return row
        finally:
            row["n_candidates"] = extractor.candidates_scored
        if result is None:
            row["error"] = "no-article"
            return row
        article = result["article_element"]
        row["spans"] = emit_spans(article)
        row["title"] = result["title"]
        row["byline"] = result["byline"]
        row["dir"] = result["dir"]
        row["lang"] = result["lang"]
        row["excerpt"] = result["excerpt"]
        row["site_name"] = result["siteName"]
        row["published_time"] = result["publishedTime"]
        if self.include_content_html:
            row["content_html"] = result["content"]
        row["text_content"] = result["textContent"]
        row["length"] = result["length"]
        row["readerable"] = result["readerable"]
        return row

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        span_lists = batch.column("spans").to_pylist()
        rows = [
            self.extract_one(doc_id, spans or [])
            for doc_id, spans in zip(doc_ids, span_lists)
        ]
        return rows_to_table(rows)


def rows_to_table(rows: list[dict]) -> pa.Table:
    columns = {name: [r[name] for r in rows] for name in OUT.names}
    arrays = [
        pa.array(columns[f.name], type=f.type) for f in OUT
    ]
    return pa.Table.from_arrays(arrays, schema=OUT)


_CACHED: dict[tuple, ReadabilityExtractor] = {}


def _cached_extractor(options, base_url, include_content_html):
    key = (options, base_url, include_content_html)
    ex = _CACHED.get(key)
    if ex is None:
        ex = ReadabilityExtractor(
            options=options, base_url=base_url, include_content_html=include_content_html
        )
        _CACHED[key] = ex
    return ex


def extract_spans_batch(
    batch: pa.Table,
    options: ExtractOptions | None = None,
    base_url: str = "http://localhost/",
    include_content_html: bool = True,
) -> pa.Table:
    """``map_batches`` UDF: a process-cached :class:`ReadabilityExtractor`
    over one ``(doc_id, spans)`` batch."""
    return _cached_extractor(options, base_url, include_content_html)(batch)

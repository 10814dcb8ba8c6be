"""PDF/layout-parse stage (north rule: "HTML boilerplate strip, PDF/layout
parse, DOM heuristics").

``PdfLayoutParser`` is a ``map_batches`` callable class over ``(doc_id,
payload)`` rows: each PDF is parsed by the pure-Python content-stream
scanner (functions/pdf.py — raw + FlateDecode streams, Tj/TJ, escapes,
reading-order sort) into DOCUMENTS-schema spans, so PDF corpora flow into
the same downstream stages as HTML span documents.  Per-row failures land
in the ``error`` column, never fail the batch (same isolation contract as
the Readability extractor).

Binary payloads are fat → keep ``batch_size`` small (8-16), like the
multimodal stages.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.pdf import extract_pdf_blocks
from ..schema import SPAN

PDF_OUT = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("spans", pa.list_(SPAN)),
        ("n_blocks", pa.int32()),
        ("n_chars", pa.int64()),
        ("error", pa.string()),
    ]
)


class PdfLayoutParser:
    """Actor-pool stage: PDF bytes → ordered layout spans + counters."""

    def __init__(self) -> None:
        # the parser is module-level pure functions + compiled regexes —
        # importing this module IS the once-per-actor setup
        self.docs_processed = 0
        self.docs_failed = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        out_spans, out_blocks, out_chars, out_err = [], [], [], []
        for payload in payloads:
            try:
                blocks = extract_pdf_blocks(payload or b"")
                spans = [
                    {
                        "kind": b["kind"],
                        "text": b["text"] if b["kind"] == "text" else "",
                        "media_ref": b["media_ref"],
                        "offset": i,
                    }
                    for i, b in enumerate(blocks)
                ]
                out_spans.append(spans)
                out_blocks.append(len(blocks))
                out_chars.append(
                    sum(len(b["text"]) for b in blocks if b["kind"] == "text")
                )
                out_err.append(None)
            except Exception as exc:  # per-row isolation
                self.docs_failed += 1
                out_spans.append([])
                out_blocks.append(0)
                out_chars.append(0)
                out_err.append(f"{type(exc).__name__}: {exc}")
        self.docs_processed += len(ids)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(out_spans, pa.list_(SPAN)),
                pa.array(out_blocks, pa.int32()),
                pa.array(out_chars, pa.int64()),
                pa.array(out_err, pa.string()),
            ],
            schema=PDF_OUT,
        )


_PARSER: PdfLayoutParser | None = None


def parse_pdf_batch(batch: pa.Table) -> pa.Table:
    """Task-pool form of :class:`PdfLayoutParser`: a module-cached instance
    on warm worker processes — no actor-pool spin-up per pipeline; the
    parser state is compiled module regexes, safe to share within a
    process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = PdfLayoutParser()
    return _PARSER(batch)

"""Arrow schemas for the interleaved text+media document model.

Exact input shape from BASELINE.json ``input_hint``; output adds the derived
columns of SURVEY.md §1.2 so the per-row invariant (span-sequence equality on
kind/text/media_ref/order) is directly checkable.
"""

from __future__ import annotations

import pyarrow as pa

SPAN = pa.struct(
    [
        ("kind", pa.string()),       # "text" | "media"
        ("text", pa.string()),       # payload for text spans; "" for media
        ("media_ref", pa.string()),  # URI/id for media spans; "" for text
        ("offset", pa.int32()),      # 0-based ordinal within the document
    ]
)

DOCUMENTS = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN))])

OUT = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN)),          # extracted article spans, in order
        ("title", pa.string()),
        ("byline", pa.string()),
        ("dir", pa.string()),
        ("lang", pa.string()),
        ("excerpt", pa.string()),
        ("site_name", pa.string()),
        ("published_time", pa.string()),
        ("content_html", pa.string()),
        ("text_content", pa.string()),
        ("length", pa.int32()),
        ("readerable", pa.bool_()),
        ("error", pa.string()),             # null on success
        ("n_candidates", pa.int32()),       # work counter: elements scored by
                                            # the grab attempts that ran
        ("input_bytes", pa.int32()),        # reassembled HTML size
        ("wall_us", pa.int64()),            # per-row extraction wall time
    ]
)

METRICS = pa.schema(
    [
        ("stage", pa.string()),
        ("partition_id", pa.int64()),
        ("docs_processed", pa.int64()),
        ("docs_failed", pa.int64()),
        ("bytes_parsed", pa.int64()),
        ("candidates_scored", pa.int64()),
        ("wall_seconds", pa.float64()),
    ]
)

LINEAGE = pa.schema(
    [
        ("partition_id", pa.int64()),
        ("doc_id_min", pa.string()),
        ("doc_id_max", pa.string()),
        ("row_count", pa.int64()),
        ("status", pa.string()),  # "complete"
    ]
)

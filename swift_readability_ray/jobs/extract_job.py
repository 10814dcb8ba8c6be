"""`ray job submit` entry point for the extraction pipeline.

Cluster usage (SURVEY.md §3.4 / north rule):

    ray job submit --working-dir . -- \
        python -m swift_readability_ray.jobs.extract_job \
        --input  /data/docs.lance \
        --output /data/extracted \
        --num-partitions 256 --batch-size 32

The input must be a DOCUMENTS-schema table: ``(doc_id: string,
spans: list<struct<kind, text, media_ref, offset>>)`` — the interleaved
text+media shape of BASELINE.json's input_hint.  Local smoke run over the
synthetic fixture corpus::

    python - <<'PY'
    import pyarrow.parquet as pq
    from swift_readability_ray.fixtures import generate_corpus, corpus_to_tables
    inp, _ = corpus_to_tables(generate_corpus())
    pq.write_table(inp, "/tmp/spans_docs.parquet")
    PY
    python -m swift_readability_ray.jobs.extract_job \
        --input /tmp/spans_docs.parquet --output /tmp/extract_out \
        --num-partitions 4

The job is resumable: re-submitting with the same ``--output`` and
``--num-partitions`` skips completed partitions via their lineage records
(another ``--num-partitions`` on that output is refused).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Resumable Readability extraction job")
    p.add_argument("--input", required=True,
                   help="documents table (Lance, Parquet, Arrow IPC/Feather, ORC, CSV or JSON-lines)")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--num-partitions", type=int, default=64)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--base-url", default="http://localhost/")
    p.add_argument("--char-threshold", type=int, default=500)
    p.add_argument("--serializer", choices=["html", "xml", "text"], default="html")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():  # ray job submit initialises the cluster ctx
        ray.init(address="auto" if _on_cluster() else "local",
                 include_dashboard=False, ignore_reinit_error=True)

    from swift_readability_ray.pipelines.extract_pipeline import (
        run_resumable_extraction,
    )
    from swift_readability_ray.readability.core import ExtractOptions

    _check_input_schema(args.input)
    opts = ExtractOptions(
        char_threshold=args.char_threshold, serializer=args.serializer
    )
    t0 = time.perf_counter()
    result = run_resumable_extraction(
        args.input,
        args.output,
        num_partitions=args.num_partitions,
        options=opts,
        base_url=args.base_url,
        batch_size=args.batch_size,
    )
    result["wall_seconds"] = round(time.perf_counter() - t0, 2)
    print(json.dumps(result))
    return 0


def _check_input_schema(path: str) -> None:
    """Fail fast with a readable message on non-DOCUMENTS inputs, in any
    format ``read_documents`` reads: the schema of the input's first piece."""
    from swift_readability_ray.sources.io import list_pieces, piece_schema

    pieces = list_pieces(path)
    schema = piece_schema(pieces[0]) if pieces else None
    if schema is None:
        return  # empty input — let the reader report
    names = set(schema.names)
    if not {"doc_id", "spans"} <= names:
        raise SystemExit(
            f"input {path!r} has columns {sorted(names)}; expected the "
            "DOCUMENTS schema (doc_id: string, spans: list<struct<kind, "
            "text, media_ref, offset>>) — see swift_readability_ray/schema.py"
        )


def _on_cluster() -> bool:
    import os

    return bool(os.environ.get("RAY_ADDRESS")) and os.environ.get("RAY_ADDRESS") != "local"


if __name__ == "__main__":
    sys.exit(main())

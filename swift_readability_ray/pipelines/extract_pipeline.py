"""End-to-end extraction pipeline (SURVEY.md §3.4).

    read (Lance/Parquet, column-pruned)
      → [optional] doc_id-hash partition column + skew routing
      → map_batches(extract_spans_batch, task pool, pyarrow, zero-copy)
      → write partitioned output + lineage + metrics

Design points for 100 TB scale:
- streaming end-to-end: no take_all / to_pandas / mid-pipeline materialize;
  consumption is a partitioned parquet write.
- the extract stage is the ONLY heavy stage and is embarrassingly parallel —
  no semantic shuffle exists in this workload (SURVEY.md §7.2); the one
  optional exchange is a placement repartition when input files are skewed.
- skew: per-row HTML byte size is computed vectorially; oversized rows
  (> ``skew_threshold_bytes``) are extracted one per batch so one 50 MB
  document cannot stall a 4 MB-average batch.
- resumable: ``run_resumable_extraction`` stages the input once into
  hash-partitioned shuffle files, then extracts each partition from its own
  staged files (pruned reads, linear total I/O) with per-partition lineage
  commits (state/lineage.py); restarts skip completed partitions and a
  completed job writes the METRICS-schema report beside the data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import mix64 as _mix64
from ..readability.core import ExtractOptions
from ..sources.io import read_documents
from ..stages.extract import extract_spans_batch
from ..state.lineage import LineageLog


# per-position byte weights (cycle mod 64), fixed at import → placement is
# stable across processes and restarts
_POS_W = _mix64(np.arange(1, 65, dtype=np.uint64)) | np.uint64(1)


def _with_hash_partition(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Append a stable doc_id-hash partition id column (fully vectorized).

    Python's salted ``hash()`` is unusable for placement, and the previous
    crc32 form looped Python per row (VERDICT r3 #4).  This hashes the raw
    utf8 buffer with one ``np.bitwise_xor.reduceat`` pass — each byte
    weighted by a position-dependent odd constant (cycling mod 64), then a
    SplitMix/Murmur-style finalize over (xor-hash, length).  Placement-
    quality uniformity with zero per-row Python work; integer id columns
    hash their values directly.
    """
    arr = batch.column("doc_id")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_integer(arr.type):
        h = _mix64(arr.to_numpy(zero_copy_only=False).astype(np.uint64))
    else:
        off_item = 8 if (
            pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
        ) else 4
        offs = np.frombuffer(
            arr.buffers()[1],
            np.int64 if off_item == 8 else np.int32,
            len(arr) + 1,
            arr.offset * off_item,
        ).astype(np.int64)
        data = np.frombuffer(arr.buffers()[2], np.uint8)
        starts = offs[:-1] - offs[0]
        lengths = np.diff(offs)
        total = int(offs[-1] - offs[0])
        h = np.zeros(len(arr), np.uint64)
        if total:
            weighted = data[offs[0] : offs[-1]].astype(np.uint64) * _POS_W[
                (np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)) & 63
            ]
            # reduceat over nonempty-row starts only: consecutive segments
            # absorb trailing empty rows, which contribute no bytes, so each
            # segment is exactly one row's bytes; empty rows keep h=0
            nonempty = np.flatnonzero(lengths > 0)
            if len(nonempty):
                h[nonempty] = np.bitwise_xor.reduceat(weighted, starts[nonempty])
        h = _mix64(h ^ _mix64(lengths.astype(np.uint64)))
    parts = (h % np.uint64(num_partitions)).astype(np.int64)
    return batch.append_column("part", pa.array(parts, pa.int64()))


def _span_bytes(batch: pa.Table) -> pa.Table:
    """Vectorized per-row payload size: total utf8 bytes of span texts.

    Per-row sums come from prefix-sum differences at the list boundaries —
    no Python loop over rows (the span_stats pattern)."""
    spans = batch.column("spans")
    flat = pc.list_flatten(spans)
    text_len = pc.binary_length(pc.coalesce(pc.struct_field(flat, "text"), ""))
    n_spans = pc.list_value_length(spans).to_numpy(zero_copy_only=False).astype(np.int64)
    lens = text_len.to_numpy(zero_copy_only=False).astype(np.int64)
    ends = np.cumsum(n_spans)
    cum = np.concatenate(([0], np.cumsum(lens)))
    row_totals = cum[ends] - cum[ends - n_spans]
    return batch.append_column("payload_bytes", pa.array(row_totals, pa.int64()))


def extraction_dataset(
    input_path: str,
    options: ExtractOptions | None = None,
    base_url: str = "http://localhost/",
    batch_size: int = 32,
    concurrency: int | None = None,
    skew_threshold_bytes: int | None = 4 << 20,
    include_content_html: bool = True,
    override_num_blocks: int | None = None,
) -> ray.data.Dataset:
    """Build the lazy extraction Dataset (streaming; caller consumes it).

    The extractor runs as plain ``map_batches`` tasks on warm worker
    processes (its regex state is module-level); ``concurrency`` caps the
    number of concurrent tasks.
    """
    ds = read_documents(
        input_path,
        columns=["doc_id", "spans"],
        override_num_blocks=override_num_blocks,
    )
    kwargs = dict(
        fn_kwargs={
            "options": options,
            "base_url": base_url,
            "include_content_html": include_content_html,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if concurrency is not None:
        kwargs["concurrency"] = concurrency

    if skew_threshold_bytes is None:
        return ds.map_batches(extract_spans_batch, batch_size=batch_size, **kwargs)

    # Skew-aware split (SURVEY.md §4.2): giant-HTML rows are extracted one
    # per batch so they can't straggle an average batch.
    # Trade-off: the two filter branches each re-execute the (column-pruned)
    # read + cheap size tagging — Ray re-runs lineage per consumer.  When
    # the double read matters (very large inputs), run the resumable path
    # instead: its staging pass materializes hash partitions once and every
    # later read is from staged files; or pass skew_threshold_bytes=None
    # and rely on per-task isolation alone.
    sized = ds.map_batches(_span_bytes, batch_format="pyarrow", zero_copy_batch=True)
    small = sized.filter(expr=f"payload_bytes <= {skew_threshold_bytes}").drop_columns(
        ["payload_bytes"]
    )
    large = sized.filter(expr=f"payload_bytes > {skew_threshold_bytes}").drop_columns(
        ["payload_bytes"]
    )
    small_out = small.map_batches(extract_spans_batch, batch_size=batch_size, **kwargs)
    large_out = large.map_batches(extract_spans_batch, batch_size=1, **kwargs)
    return small_out.union(large_out)


def run_extraction(
    input_path: str,
    output_path: str,
    options: ExtractOptions | None = None,
    base_url: str = "http://localhost/",
    batch_size: int = 32,
    concurrency: int | None = None,
    skew_threshold_bytes: int | None = 4 << 20,
) -> dict:
    """Single streaming pass: read → extract → partitioned parquet write."""
    ds = extraction_dataset(
        input_path,
        options=options,
        base_url=base_url,
        batch_size=batch_size,
        concurrency=concurrency,
        skew_threshold_bytes=skew_threshold_bytes,
    )
    ds.write_parquet(output_path)
    stats = ds.stats()
    return {"output_path": output_path, "stats": stats}


def _partition_metrics(path: str) -> dict:
    """Per-partition extraction metrics (north rule: docs processed,
    candidates scored, bytes parsed) from the written partition's own
    columns — exact, derived from data, no side channel to lose on retry."""
    import os

    import pyarrow.parquet as pq

    docs = failed = candidates = input_bytes = wall_us = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            if name.endswith(".parquet"):
                t = pq.read_table(
                    os.path.join(root, name),
                    columns=["error", "n_candidates", "input_bytes", "wall_us"],
                )
                docs += t.num_rows
                failed += t.num_rows - pc.sum(
                    pc.cast(pc.is_null(t.column("error")), "int64")
                ).as_py()
                candidates += pc.sum(t.column("n_candidates")).as_py() or 0
                input_bytes += pc.sum(t.column("input_bytes")).as_py() or 0
                wall_us += pc.sum(t.column("wall_us")).as_py() or 0
    return {
        "docs_processed": docs,
        "docs_failed": failed,
        "candidates_scored": candidates,
        "bytes_parsed": input_bytes,
        "wall_seconds": wall_us / 1e6,
    }


def run_resumable_extraction(
    input_path: str,
    output_path: str,
    num_partitions: int = 8,
    options: ExtractOptions | None = None,
    base_url: str = "http://localhost/",
    batch_size: int = 32,
    fail_after_partitions: int | None = None,
) -> dict:
    """Partitioned, resumable run with per-partition lineage commits.

    Two phases, each linear in the input size:

    1. **Stage** (one full pass): read → append doc_id-hash ``part`` column →
       write ``out/staging/part=<k>/``.  This is the job's one explicit
       exchange — the same materialized-shuffle-files pattern every
       shuffle-service uses — and is itself resumable as a unit (an
       incomplete staging is discarded and redone).
    2. **Extract per partition** (pruned reads): each pending partition reads
       ONLY its staged files, extracts, writes ``out/part=<k>/`` and commits
       an atomic lineage record with its metrics.  A re-run skips completed
       partitions and cleans half-written orphans.

    Filtering the full input once per partition instead would scan the
    dataset ``num_partitions`` times — quadratic I/O at 100 TB.
    ``fail_after_partitions`` injects a mid-run abort for tests.
    """
    import os
    import shutil

    log = LineageLog(output_path)
    done = log.completed_partitions()

    staging = os.path.join(output_path, "staging")
    staging_marker = os.path.join(staging, "_COMPLETE")
    if done and not os.path.exists(staging_marker):
        # all-partition completion without staging means a finished prior run
        # already cleaned up; nothing to stage for the remaining (none) work
        pending = [p for p in range(num_partitions) if p not in done]
        if pending:
            raise RuntimeError(
                "staging missing but partitions pending — delete the output "
                "dir to restart, or restore the staging directory"
            )
    if not os.path.exists(staging_marker) and len(done) < num_partitions:
        shutil.rmtree(staging, ignore_errors=True)  # discard half-written staging
        ds = read_documents(input_path, columns=["doc_id", "spans"])
        ds = ds.map_batches(
            _with_hash_partition,
            fn_kwargs={"num_partitions": num_partitions},
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        ds.write_parquet(staging, partition_cols=["part"])
        with open(staging_marker, "w") as f:
            f.write("complete")

    kwargs = dict(
        fn_kwargs={"options": options, "base_url": base_url},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )

    processed = 0
    completed_now = []
    for part in range(num_partitions):
        if part in done:
            continue
        log.clean_orphan(part)
        part_staging = os.path.join(staging, f"part={part}")
        part_dir = log.partition_dir(part)
        if os.path.isdir(part_staging):
            part_ds = ray.data.read_parquet(part_staging)  # pruned: this partition only
            out = part_ds.map_batches(extract_spans_batch, **kwargs)
            out.write_parquet(part_dir)
        else:  # hash bucket got no rows
            os.makedirs(part_dir, exist_ok=True)
        metrics = _partition_metrics(part_dir)
        row_count = metrics["docs_processed"]
        log.record(part, row_count, extra=metrics)
        completed_now.append(part)
        processed += row_count
        if fail_after_partitions is not None and len(completed_now) >= fail_after_partitions:
            raise RuntimeError(f"injected failure after {fail_after_partitions} partitions")

    if len(log.completed_partitions()) >= num_partitions:
        shutil.rmtree(staging, ignore_errors=True)  # all committed; drop shuffle files
        # job report: METRICS-schema table beside the data (SURVEY.md §2.1
        # sink contract — metrics/lineage as a second table)
        import pyarrow.parquet as _pq

        _pq.write_table(
            log.metrics_table(), os.path.join(output_path, "metrics.parquet")
        )

    return {
        "output_path": output_path,
        "partitions_completed": sorted(log.completed_partitions()),
        "rows_processed_this_run": processed,
    }

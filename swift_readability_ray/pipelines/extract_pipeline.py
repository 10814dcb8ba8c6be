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
- resumable: ``run_resumable_extraction`` runs no Ray Data execution, only
  plain Ray tasks sized in bytes.  It stages the input once into
  hash-partitioned shuffle files, one staging task per byte-balanced read
  unit (``sources.io.read_units``) writing at most one file per bucket, then
  extracts every pending partition's staged files in byte-balanced groups,
  one task each (linear total I/O), into a per-run scratch directory.  The
  caller takes the tasks' manifests with ``ray.wait`` and commits each
  partition when its last manifest returns: rename to ``part=<k>``, then an
  atomic lineage record (state/lineage.py) whose metrics come from the
  manifests.  An abort cancels the tasks not yet returned.  Restarts skip
  completed partitions and a completed job writes the METRICS-schema report
  beside the data.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .. import tasks
from ..functions.hashing import mix64 as _mix64
from ..readability.core import ExtractOptions
from ..schema import OUT
from ..sources.io import byte_groups, read_documents, read_piece, read_units
from ..stages import extract as _extract
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


# bytes per task of the resumable write path: one staging task per read unit
# of about this many input bytes, and one extraction task per group of a
# partition's staged files of about this many bytes.  Fewer, larger tasks
# cut the per-task fixed cost and the staged file count (at most one file
# per staging task per bucket); 128 MiB is Ray Data's default block size.
_TARGET_BYTES = 128 << 20

# a work item's manifest: its partition and these sums over the rows it wrote
_MANIFEST_KEYS = ("docs_processed", "docs_failed", "candidates_scored", "bytes_parsed", "wall_us")


def _stage_unit(unit: list[tuple], staging: str, name: str, num_partitions: int) -> None:
    """Staging task (``tasks.stage_unit``) over one read unit: streams its
    pieces through ``_with_hash_partition`` and writes each bucket's rows,
    in input order, to ``staging/part=<k>/<name>`` — one file per bucket
    the unit reaches."""
    writers = {}
    try:
        for piece in unit:
            for batch in read_piece(piece, columns=["doc_id", "spans"]):
                if not batch.num_rows:
                    continue
                parts = _with_hash_partition(batch, num_partitions).column("part").to_numpy()
                order = np.argsort(parts, kind="stable")
                keys, starts = np.unique(parts[order], return_index=True)
                rows = batch.take(order)
                for key, lo, hi in zip(keys, starts, [*starts[1:], len(order)]):
                    if key not in writers:
                        os.makedirs(os.path.join(staging, f"part={key}"), exist_ok=True)
                        writers[key] = pq.ParquetWriter(
                            os.path.join(staging, f"part={key}", name), rows.schema)
                    writers[key].write_table(rows.slice(lo, hi - lo))
    finally:
        for writer in writers.values():
            writer.close()


def _extract_staged_files(srcs: list[str], dst: str, options, base_url: str,
                          batch_size: int) -> dict:
    """Extraction task (``tasks.extract_staged_files``) over a group of one
    partition's staged files: streams them in ``batch_size``-row batches
    through the extractor into the scratch file ``dst`` and returns a
    manifest counted from the rows written — metrics come from the data,
    with no re-read of the output."""
    totals = dict.fromkeys(_MANIFEST_KEYS, 0)
    with pq.ParquetWriter(dst, OUT) as writer:
        batches = (rb for src in srcs
                   for rb in pq.ParquetFile(src).iter_batches(batch_size, columns=["doc_id", "spans"]))
        for rb in batches:
            # looked up per call, so wrappers installed after import apply
            out = _extract.extract_spans_batch(pa.Table.from_batches([rb]),
                                               options=options, base_url=base_url)
            writer.write_table(out)
            totals["docs_processed"] += out.num_rows
            totals["docs_failed"] += out.num_rows - out.column("error").null_count
            for key, col in (("candidates_scored", "n_candidates"),
                             ("bytes_parsed", "input_bytes"), ("wall_us", "wall_us")):
                totals[key] += pc.sum(out.column(col)).as_py() or 0
    return totals


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

    Two phases, each linear in the input size and each plain Ray tasks (no
    Ray Data execution), sized by ``_TARGET_BYTES``:

    1. **Stage** (one full pass): one task per read unit
       (``sources.io.read_units``) reads it, appends the doc_id-hash ``part``
       column and writes at most one file per bucket into this run's
       scratch directory, which is renamed to ``out/staging/`` when every
       task has returned.  This is the job's one explicit exchange — the
       same materialized-shuffle-files pattern every shuffle-service uses —
       and is itself resumable as a unit (an incomplete staging is discarded
       and redone).  The staging marker records ``num_partitions``.
    2. **Extract: Ray tasks, per-partition commit by rename.**  Each pending
       partition's staged files are split into byte-balanced groups, one
       Ray task each, which extracts its group into this run's scratch
       directory ``out/_attempts/<run-id>/part=<k>/`` and returns a
       manifest.  The caller takes manifests with ``ray.wait``
       as tasks finish; when a partition's last manifest returns, it renames
       the partition's scratch directory to ``out/part=<k>/`` and then writes
       an atomic lineage record with the manifests' metrics.  A partition
       with no rows is committed at once.  On any exception (an injected
       abort included) the tasks not yet returned are cancelled before it
       propagates.  Writes of an aborted run stay in its own scratch
       directory, which the next run deletes; a re-run skips completed
       partitions and cleans half-committed orphans.

    Filtering the full input once per partition instead would scan the
    dataset ``num_partitions`` times — quadratic I/O at 100 TB.  Both
    phases are plain tasks because a Ray Data execution would add no
    operator, only its start-up and per-block scheduling cost, and its
    write makes one file per read block per bucket.  An output directory
    keeps the ``num_partitions`` it was started with; another value raises
    ``ValueError`` (its buckets would differ), as do ``num_partitions`` or
    ``batch_size`` below 1, before anything is written.
    ``fail_after_partitions`` injects an abort after that many commits, for
    tests.
    """
    for name, value in (("num_partitions", num_partitions), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, not {value}")
    log = LineageLog(output_path)
    done = log.completed_partitions()

    staging = os.path.join(output_path, "staging")
    staging_marker = os.path.join(staging, "_COMPLETE")
    recorded = {r["num_partitions"] for r in log.records()}
    if os.path.exists(staging_marker):
        with open(staging_marker) as f:
            recorded.add(json.load(f)["num_partitions"])
    if recorded - {num_partitions}:
        raise ValueError(f"{output_path!r} was started with num_partitions={sorted(recorded)}, "
                         f"not {num_partitions}; re-run with that or use a new output dir")
    pending = [p for p in range(num_partitions) if p not in done]
    restage = pending and not os.path.exists(staging_marker)
    if restage and done:
        raise RuntimeError(
            "staging missing but partitions pending — delete the output "
            "dir to restart, or restore the staging directory"
        )

    attempts = os.path.join(output_path, "_attempts")
    shutil.rmtree(attempts, ignore_errors=True)  # scratch of earlier runs
    scratch = os.path.join(attempts, uuid.uuid4().hex)
    left, totals, committed = {}, {}, []

    def commit(part: int) -> None:
        os.rename(os.path.join(scratch, f"part={part}"), log.partition_dir(part))
        metrics = dict(totals[part], num_partitions=num_partitions)
        metrics["wall_seconds"] = metrics.pop("wall_us") / 1e6
        log.record(part, metrics["docs_processed"], extra=metrics)
        committed.append(metrics["docs_processed"])
        if fail_after_partitions is not None and len(committed) >= fail_after_partitions:
            raise RuntimeError(f"injected failure after {fail_after_partitions} partitions")

    refs, part_of = [], {}  # tasks not yet returned; each task's partition
    try:
        if restage:
            shutil.rmtree(staging, ignore_errors=True)  # discard half-written staging
            staged = os.path.join(scratch, "staging")
            # pieces go as plain tuples: unpickling ``io.Piece`` would import
            # pyarrow before the task's cancel-safe imports (see tasks.py)
            refs = [tasks.stage_unit.remote([tuple(p) for p in unit], staged,
                                            f"unit-{i:06d}.parquet", num_partitions)
                    for i, unit in enumerate(read_units(input_path, _TARGET_BYTES))]
            while refs:
                [ref], refs = ray.wait(refs)
                ray.get(ref)  # raises a staging task's error
            os.makedirs(staged, exist_ok=True)  # no read unit had rows
            os.rename(staged, staging)
            with open(staging_marker, "w") as f:
                json.dump({"num_partitions": num_partitions}, f)

        for part in pending:
            log.clean_orphan(part)
            os.makedirs(os.path.join(scratch, f"part={part}"))
            files = sorted(glob.glob(os.path.join(staging, f"part={part}", "*.parquet")))
            groups = byte_groups(files, [os.path.getsize(f) for f in files], _TARGET_BYTES)
            left[part], totals[part] = len(groups), dict.fromkeys(_MANIFEST_KEYS, 0)
            for group in groups:
                dst = os.path.join(scratch, f"part={part}", os.path.basename(group[0]))
                refs.append(tasks.extract_staged_files.remote(
                    group, dst, options, base_url, batch_size))
                part_of[refs[-1]] = part
            if not groups:  # hash bucket got no rows
                commit(part)
        while refs:
            [ref], refs = ray.wait(refs)
            part = part_of[ref]
            manifest = ray.get(ref)
            totals[part] = {k: n + manifest[k] for k, n in totals[part].items()}
            left[part] -= 1
            if not left[part]:
                commit(part)
    finally:
        for ref in refs:  # an abort stops the tasks not yet returned
            ray.cancel(ref)

    if len(log.completed_partitions()) >= num_partitions:
        # all committed: drop shuffle files and scratch; write the job report,
        # a METRICS-schema table beside the data (SURVEY.md §2.1 sink contract)
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(attempts, ignore_errors=True)
        pq.write_table(log.metrics_table(), os.path.join(output_path, "metrics.parquet"))

    return {
        "output_path": output_path,
        "partitions_completed": sorted(log.completed_partitions()),
        "rows_processed_this_run": sum(committed),
    }

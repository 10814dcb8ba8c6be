"""Sources/sinks for the document tables (SURVEY.md §2.1).

Production target is Lance (BASELINE.json input_hint); this container has no
``lance`` package, so the adapter gates on an import-try and transparently
falls back to Parquet with an identical schema.  ``read_documents`` returns a
lazy ``ray.data.Dataset`` whose blocks stream through the object store — no
full materialization.  ``read_units`` lists the same input as byte-balanced
runs of pieces (parquet row groups, or whole files) that a plain Ray task
streams with ``read_piece``, for callers that schedule their own tasks.
``ray.data`` is imported where it is used, not here, so a Ray worker that
imports this module for ``read_piece`` does not pay for it.
"""

from __future__ import annotations

import os
from typing import Iterator, NamedTuple

import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - lance is absent in this environment
    import lance  # type: ignore  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def _make_ipc_datasource():
    """Arrow IPC (Feather v2 / .arrows stream) file datasource.

    Ray ships no ``read_ipc``; this subclasses ``FileBasedDatasource`` so
    IPC files get the same streaming execution as every other source:
    one read task per file, record batches yielded incrementally (never
    the whole file as one block), zero-copy into the object store.
    Column pruning happens per batch before the block is emitted."""
    from ray.data.datasource import FileBasedDatasource

    class _ArrowIPC(FileBasedDatasource):
        _FILE_EXTENSIONS = ["arrow", "feather", "ipc", "arrows"]

        def __init__(self, paths, columns=None, **kwargs):
            super().__init__(paths, **kwargs)
            self._columns = columns

        def _open_input_source(self, filesystem, path, **open_args):
            # the random-access IPC (Feather v2) footer needs seek; the
            # default open_input_stream is forward-only
            return filesystem.open_input_file(path)

        def _read_stream(self, f, path: str):
            return _ipc_tables(f, self._columns)

    return _ArrowIPC


def _ipc_reader(f):
    """The record-batch reader of an open, seekable Arrow IPC file: the
    random-access format (Feather v2) or, failing that, the stream format
    (.arrows)."""
    import pyarrow.ipc as ipc

    try:
        return ipc.open_file(f)
    except pa.ArrowInvalid:
        f.seek(0)
        return ipc.open_stream(f)


def _ipc_tables(f, columns=None) -> Iterator[pa.Table]:
    """One table per record batch of an open Arrow IPC file."""
    reader = batches = _ipc_reader(f)
    if isinstance(reader, pa.ipc.RecordBatchFileReader):
        batches = (reader.get_batch(i) for i in range(reader.num_record_batches))
    for rb in batches:
        t = pa.Table.from_batches([rb])
        yield t.select(columns) if columns else t


def _make_orc_datasource():
    """ORC file datasource (Ray ships no ``read_orc``).

    One read task per file; stripes are yielded incrementally so a large
    ORC file never lands as one block.  Column pruning is pushed into the
    ORC stripe reader itself (``read_stripe(i, columns=...)``), so unneeded
    columns never leave storage — the same prune-at-the-read property the
    Parquet path gets from ``read_parquet(columns=...)``."""
    from ray.data.datasource import FileBasedDatasource

    class _Orc(FileBasedDatasource):
        _FILE_EXTENSIONS = ["orc"]

        def __init__(self, paths, columns=None, **kwargs):
            super().__init__(paths, **kwargs)
            self._columns = columns

        def _open_input_source(self, filesystem, path, **open_args):
            # the ORC footer/stripe index needs seek
            return filesystem.open_input_file(path)

        def _read_stream(self, f, path: str):
            return _orc_tables(f, self._columns)

    return _Orc


def _orc_tables(f, columns=None) -> Iterator[pa.Table]:
    """One table per stripe of an open ORC file, pruned in the stripe
    reader."""
    import pyarrow.orc as orc

    reader = orc.ORCFile(f)
    for i in range(reader.nstripes):
        yield pa.Table.from_batches([reader.read_stripe(i, columns=columns)])


def _format(path: str) -> str:
    """The input format of ``path``, by its extension (Parquet by default)."""
    if (path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions"))) and HAVE_LANCE:
        return "lance"
    if path.endswith((".arrow", ".feather", ".ipc", ".arrows")):
        return "ipc"
    if path.endswith(".orc"):
        return "orc"
    if path.endswith(".csv"):
        return "csv"
    if path.endswith((".jsonl", ".json")):
        return "json"
    return "parquet"


def read_documents(path: str, columns: list[str] | None = None, **kwargs) -> ray.data.Dataset:
    """Read a documents table — format by extension: Lance (if the
    package is available), Parquet (default), Arrow IPC / Feather, ORC,
    CSV, or JSON-lines.

    ``columns`` prunes at the read for the columnar formats so only
    needed columns leave storage; the row-oriented formats (CSV/JSONL)
    must parse whole records, so pruning happens immediately after the
    read — still before anything crosses a shuffle.
    """
    import ray.data

    fmt = _format(path)
    if fmt == "lance":  # pragma: no cover
        return ray.data.read_lance(path, columns=columns, **kwargs)
    if fmt == "ipc":
        return ray.data.read_datasource(
            _make_ipc_datasource()(path, columns=columns), **kwargs)
    if fmt == "orc":
        return ray.data.read_datasource(
            _make_orc_datasource()(path, columns=columns), **kwargs)
    if fmt == "csv":
        ds = ray.data.read_csv(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    if fmt == "json":
        ds = ray.data.read_json(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    return ray.data.read_parquet(path, columns=columns, **kwargs)


class Piece(NamedTuple):
    """The smallest input range one reader call streams: a parquet row group
    (or Lance fragment) by ``index``, else a whole file (``index`` None)."""

    fmt: str
    path: str
    index: int | None
    nbytes: int


def _files(path: str) -> list[str]:
    """``path`` itself, or the files under the directory ``path`` in name
    order, skipping those whose relative path starts with ``.`` or ``_``
    (as Ray's file datasources do)."""
    if not os.path.isdir(path):
        return [path]
    out = []
    for root, _, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            if not os.path.relpath(full, path).startswith((".", "_")):
                out.append(full)
    return sorted(out)


def list_pieces(path: str) -> list[Piece]:
    """Every piece of the documents table at ``path``, in read order, sized
    in stored bytes (a row group's compressed column chunks)."""
    fmt = _format(path)
    if fmt == "lance":  # pragma: no cover - unverified: lance is absent here
        import lance

        return [Piece(fmt, path, frag.fragment_id,
                      sum(os.path.getsize(os.path.join(path, "data", d.path()))
                          for d in frag.data_files()))
                for frag in lance.dataset(path).get_fragments()]
    pieces = []
    for f in _files(path):
        if fmt != "parquet":
            pieces.append(Piece(fmt, f, None, os.path.getsize(f)))
            continue
        meta = pq.ParquetFile(f).metadata
        for i in range(meta.num_row_groups):
            rg = meta.row_group(i)
            nbytes = sum(rg.column(j).total_compressed_size for j in range(rg.num_columns))
            pieces.append(Piece(fmt, f, i, nbytes))
    return pieces


def byte_groups(items: list, sizes: list[int], target_bytes: int) -> list[list]:
    """Split ``items`` (in order) into at most ``ceil(sum(sizes) /
    target_bytes)`` contiguous runs of about equal bytes.  Each item goes to
    the run its byte midpoint falls in, so a run exceeds ``sum / runs`` by
    less than one item; an item larger than the target is a run of its own."""
    total = sum(sizes)
    k = max(1, -(-total // target_bytes))
    groups: list[list] = [[] for _ in range(k)]
    before = 0
    for item, n in zip(items, sizes):
        groups[min(k - 1, k * (2 * before + n) // (2 * total)) if total else 0].append(item)
        before += n
    return [g for g in groups if g]


def read_units(path: str, target_bytes: int) -> list[list[Piece]]:
    """The input at ``path`` as byte-balanced read units of at most about
    ``target_bytes`` each (``byte_groups`` over ``list_pieces``)."""
    pieces = list_pieces(path)
    return byte_groups(pieces, [p.nbytes for p in pieces], target_bytes)


# rows per parquet read batch are set so a batch holds about this many
# uncompressed bytes: a row group can be far larger than a task should hold
_BATCH_BYTES = 16 << 20


def read_piece(piece: tuple, columns: list[str] | None = None) -> Iterator[pa.Table]:
    """Stream one piece (a ``Piece`` or the plain tuple of its fields) as
    tables, through the same per-format reader as ``read_documents`` (the
    row formats CSV/JSON through the pyarrow readers that Ray's datasources
    wrap)."""
    fmt, path, index, _ = piece
    if fmt == "lance":  # pragma: no cover - unverified: lance is absent here
        import lance

        for rb in lance.dataset(path).get_fragment(index).to_batches(columns=columns):
            yield pa.Table.from_batches([rb])
        return
    if fmt == "parquet":
        pf = pq.ParquetFile(path)
        rg = pf.metadata.row_group(index)
        rows = max(1, rg.num_rows * _BATCH_BYTES // max(1, rg.total_byte_size))
        for rb in pf.iter_batches(rows, row_groups=[index], columns=columns):
            yield pa.Table.from_batches([rb])
        return
    with pa.OSFile(path) as f:
        if fmt == "ipc":
            yield from _ipc_tables(f, columns)
        elif fmt == "orc":
            yield from _orc_tables(f, columns)
        elif fmt == "csv":
            import pyarrow.csv as csv

            for rb in csv.open_csv(f, read_options=csv.ReadOptions(use_threads=False)):
                t = pa.Table.from_batches([rb])
                yield t.select(columns) if columns else t
        else:
            import pyarrow.json as pajson

            t = pajson.read_json(f)
            yield t.select(columns) if columns else t


def piece_schema(piece: Piece) -> pa.Schema | None:
    """The Arrow schema of one piece, read from the file footer or header
    where the format has one (CSV parses its first block, JSON-lines its
    whole file); None for a file with no rows to infer it from."""
    if piece.fmt == "parquet":
        return pq.read_schema(piece.path)
    if piece.fmt in ("ipc", "orc"):
        import pyarrow.orc as orc

        with pa.OSFile(piece.path) as f:
            return (_ipc_reader(f) if piece.fmt == "ipc" else orc.ORCFile(f)).schema
    tables = read_piece(piece)
    try:
        return next(tables).schema
    except StopIteration:
        return None
    finally:
        tables.close()


def write_table(ds: ray.data.Dataset, path: str, **kwargs) -> None:
    """Write a Dataset to a table directory — Lance if available, ORC by
    extension, else Parquet.  Every format writes one file per block via
    the streaming executor (never a single giant file)."""
    if HAVE_LANCE and path.endswith(".lance"):
        ds.write_lance(path, **kwargs)  # pragma: no cover
        return
    if path.endswith(".csv"):
        ds.write_csv(os.path.abspath(path), **kwargs)
        return
    if path.endswith(".jsonl"):
        # Ray's write_json emits one JSON-lines file per block already;
        # pandas does the row serialization in C (no per-row Python loop)
        ds.write_json(os.path.abspath(path), **kwargs)
        return
    if path.endswith(".orc"):
        # Ray ships no write_orc; map over blocks writing one ORC file per
        # block (same resumable one-file-per-block layout as write_parquet).
        # LOCAL paths only (pyarrow.orc.write_table opens the path
        # directly); resolved absolute on the DRIVER so worker cwd never
        # matters, and kwargs pass through to the ORC writer.
        out_dir = os.path.abspath(path)
        os.makedirs(out_dir, exist_ok=True)

        def _write(batch):
            import uuid

            import pyarrow as pa
            import pyarrow.orc as _orc

            fn = f"{out_dir}/block-{uuid.uuid4().hex}.orc"
            _orc.write_table(batch, fn, **kwargs)
            return pa.table({"path": pa.array([fn])})

        ds.map_batches(_write, batch_format="pyarrow",
                       batch_size=None).materialize()
        return
    ds.write_parquet(path, **kwargs)

"""Web-graph operators over a host link graph: degree-weighted edge
aggregation, fixed-iteration integer PageRank, and connected components.

A web-scale corpus engine weighs documents by the quality of the hosts
that link to them (CCNet / RefinedWeb-style centrality weighting) and
groups hosts into link neighborhoods before sampling — that needs the
host graph itself plus two distributed graph algorithms.  The reference
repo has no graph stage (it is extraction-only); this family belongs to
the engine's training-data layer (SURVEY.md §2.11).

Scale shape
-----------
- The edge list is a Dataset and stays one: aggregation is per-block
  partial counting (bounded key space) + one native groupby; nothing
  per-row ever runs on the driver above the metadata gates.
- PageRank is implemented twice with PINNED-IDENTICAL integer semantics:
  a vectorized driver path (numpy ``np.add.at`` scatter-adds) below the
  edge gate, and a distributed path — per iteration one hash join
  (edges ⋈ ranks on src) plus one native groupby-Sum — above it.  Tests
  force the distributed path and pin both equal to the SQL oracle.
- Connected components reuse ``dedup.propagate_min_labels`` (the same
  pointer-jumping min-label propagation that collapses near-dup
  clusters) above the gate, and a driver union-find below it.

Integer PageRank semantics (oracle-pinned, all floor divisions on
non-negative int64 — numpy ``//`` == DuckDB ``//``):

    rank_0(v)   = PR_SCALE
    contrib(u→v)= (rank(u) * w_uv) // outdeg_w(u)
    rank_k(v)   = PR_JUMP + (85 * Σ_in contrib) // 100

Ranks are unnormalized fixed-point integers (PR_SCALE = 1e9 per node).
Overflow bound: rank ≤ Σ ranks ≈ n_hosts × PR_SCALE, and the contrib
product rank×w must stay under 2^63 — at 10^8 hosts and 10^6-link edges
that is ~1e17×… too hot, so a production run at that extreme would shift
PR_SCALE down; the semantics stay identical.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray.data

from .. import routing as R
from ..functions.hashing import md5_bucket
from .dedup import _default_join_partitions, propagate_min_labels

logger = logging.getLogger(__name__)

N_HOSTS = 48
PR_SCALE = 1_000_000_000
PR_DAMP_NUM = 85
PR_DAMP_DEN = 100
PR_JUMP = (PR_SCALE * (PR_DAMP_DEN - PR_DAMP_NUM)) // PR_DAMP_DEN


def host_name(n: int) -> str:
    """Zero-padded host label — lexicographic order == numeric order, so
    string Min aggregates and SQL ``min()`` agree on component labels."""
    return "h%02d" % n


def synthesize_host_edges(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(src_host, dst_host) — one row per outgoing link instance, derived
    deterministically from ``doc_id`` through the md5 oracle bridge:
    src = md5(doc_id) % 48, fanout d = 1 + md5(doc_id ‖ ':d') % 3,
    dst_j = md5(doc_id ‖ ':' ‖ j) % 48 for j < d, self-loops dropped.

    The documents table carries no real URLs, so the link structure is
    synthesized exactly like the SQL oracle synthesizes it — the graph
    ALGORITHMS downstream are what is under test.  Per-doc Python md5 is
    the oracle-bridge price (same convention as split_assign /
    corpus_shuffle); a real crawl would extract hrefs in the extraction
    stage instead.
    """

    def edge_batch(batch: pa.Table) -> pa.Table:
        src: list[str] = []
        dst: list[str] = []
        for i in batch.column("doc_id").to_pylist():
            s = md5_bucket(i, N_HOSTS)
            for j in range(1 + md5_bucket(f"{i}:d", 3)):
                t = md5_bucket(f"{i}:{j}", N_HOSTS)
                if t != s:
                    src.append(host_name(s))
                    dst.append(host_name(t))
        return pa.table({"src_host": pa.array(src, pa.string()),
                         "dst_host": pa.array(dst, pa.string())})

    return docs.map_batches(
        edge_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _i64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.asarray(arr, dtype=np.int64)


def _pagerank_numpy(edges: pa.Table, iterations: int) -> pa.Table:
    """Driver-side vectorized PageRank over an AGGREGATED edge table
    (src, dst, w) — factorize hosts, scatter-add with ``np.add.at``."""
    src = np.asarray(edges.column("src").combine_chunks())
    dst = np.asarray(edges.column("dst").combine_chunks())
    w = _i64(edges.column("w"))
    hosts = np.unique(np.concatenate([src, dst]))
    if hosts.size == 0:
        return pa.table({"host": pa.array([], pa.string()),
                         "rank_c": pa.array([], pa.int64())})
    si = np.searchsorted(hosts, src)
    di = np.searchsorted(hosts, dst)
    od = np.zeros(hosts.size, np.int64)
    np.add.at(od, si, w)
    r = np.full(hosts.size, PR_SCALE, np.int64)
    for _ in range(iterations):
        contrib = (r[si] * w) // od[si]
        insum = np.zeros(hosts.size, np.int64)
        np.add.at(insum, di, contrib)
        r = PR_JUMP + (PR_DAMP_NUM * insum) // PR_DAMP_DEN
    return pa.table({"host": pa.array(hosts.tolist(), pa.string()),
                     "rank_c": pa.array(r, pa.int64())})


def _pagerank_distributed(
    ew: ray.data.Dataset, iterations: int, join_partitions: int | None
) -> ray.data.Dataset:
    """Distributed PageRank: per iteration ONE hash join (weighted edges ⋈
    ranks on src — the edge relation is the big side and is never moved to
    the driver) and ONE native groupby-Sum; the zero-contribution rows for
    in-link-free nodes come from a union, not a second join."""
    from ray.data.aggregate import Sum

    if join_partitions is None:
        join_partitions = _default_join_partitions(ew)

    outdeg = (
        ew.groupby("src").aggregate(Sum("w"))
        .rename_columns({"sum(w)": "od"})
    )
    ewo = ew.join(
        outdeg, join_type="inner", num_partitions=join_partitions,
        on=("src",), right_suffix="_r",
    ).materialize()  # static across iterations

    from ray.data.aggregate import Count

    nodes = ew.map_batches(
        lambda b: pa.table({"host": pa.concat_arrays(
            [b.column("src").combine_chunks(),
             b.column("dst").combine_chunks()])}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).groupby("host").aggregate(Count()).map_batches(
        lambda b: b.select(["host"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    ranks = nodes.map_batches(
        lambda b: pa.table({
            "host": b.column("host"),
            "rank": pa.array(np.full(b.num_rows, PR_SCALE, np.int64)),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    def contrib_batch(b: pa.Table) -> pa.Table:
        c = (_i64(b.column("rank")) * _i64(b.column("w"))) // _i64(b.column("od"))
        return pa.table({"dst": b.column("dst"), "c": pa.array(c, pa.int64())})

    def zero_batch(b: pa.Table) -> pa.Table:
        return pa.table({"dst": b.column("host"),
                         "c": pa.array(np.zeros(b.num_rows, np.int64))})

    def finish_batch(b: pa.Table) -> pa.Table:
        r = PR_JUMP + (PR_DAMP_NUM * _i64(b.column("c"))) // PR_DAMP_DEN
        return pa.table({"host": b.column("dst"), "rank": pa.array(r, pa.int64())})

    for _ in range(iterations):
        contrib = ewo.join(
            ranks, join_type="inner", num_partitions=join_partitions,
            on=("src",), right_on=("host",), right_suffix="_k",
        ).map_batches(contrib_batch, batch_format="pyarrow",
                      zero_copy_batch=True)
        zeros = nodes.map_batches(zero_batch, batch_format="pyarrow",
                                  zero_copy_batch=True)
        ranks = (
            contrib.union(zeros)
            .groupby("dst").aggregate(Sum("c"))
            .rename_columns({"sum(c)": "c"})
            .map_batches(finish_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
            .materialize()
        )
    return ranks


def pagerank(
    ew: ray.data.Dataset,
    iterations: int = 5,
    join_partitions: int | None = None,
) -> pa.Table:
    """Integer PageRank over an aggregated weighted edge Dataset
    (src, dst, w) → (host, rank_c) sorted by host.

    Regime split on the aggregated edge count (free metadata after the
    materialize): a host graph at or under the gate limit edges iterates
    vectorized on the driver (five scatter-add passes beat five
    join+groupby rounds by orders of magnitude at this size); above it the
    join-per-iteration distributed path runs.  Both are oracle-pinned to
    the same integer semantics and tests force-compare them.
    """
    ew = ew.materialize()
    n_edges = ew.count()
    empty_edges = pa.table({"src": pa.array([], pa.string()),
                            "dst": pa.array([], pa.string()),
                            "w": pa.array([], pa.int64())})
    if n_edges == 0:
        return _pagerank_numpy(empty_edges, iterations)
    if R.route("graph.pagerank", n_edges) == "driver":
        tbl = pa.concat_tables(ew.iter_batches(batch_format="pyarrow"))
        return _pagerank_numpy(tbl, iterations).sort_by("host")
    ranks = _pagerank_distributed(ew, iterations, join_partitions)
    out = pa.concat_tables(ranks.iter_batches(batch_format="pyarrow"))
    out = out.rename_columns(["host", "rank_c"])
    return out.sort_by("host")


def connected_components(
    edges: ray.data.Dataset,
    join_partitions: int | None = None,
) -> pa.Table:
    """Connected components of the (undirected) host graph → one row per
    host ``(host, component)`` where ``component`` is the min host label.

    Below the gate limit edges: one-pass driver union-find (min-root).
    Above: ``propagate_min_labels`` — the same distributed pointer-jumping
    propagation the near-dup corpus collapse uses, every reduction a
    native Min aggregate.  Tests force the distributed path and pin both
    equal to the recursive-CTE SQL oracle.
    """
    def both_dirs(b: pa.Table) -> pa.Table:
        s = b.column("src_host").combine_chunks()
        d = b.column("dst_host").combine_chunks()
        return pa.table({"u": pa.concat_arrays([s, d]),
                         "v": pa.concat_arrays([d, s])})

    doubled = edges.map_batches(
        both_dirs, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    empty = pa.table({"host": pa.array([], pa.string()),
                      "component": pa.array([], pa.string())})
    if doubled.count() == 0:
        return empty
    if R.route("graph.connected_components", doubled.count()) == "driver":
        return _union_find_labels(doubled).sort_by("host")
    labels = propagate_min_labels(
        doubled, join_partitions=join_partitions,
        caller="connected_components",
    )
    out = pa.concat_tables(labels.iter_batches(batch_format="pyarrow"))
    if out.num_rows == 0:
        return empty
    return out.rename_columns(["host", "component"]).sort_by("host")


def _union_find_labels(edges: ray.data.Dataset) -> pa.Table:
    """Driver-side min-root union-find over a small doubled edge Dataset →
    (host, component) table — dedup.union_find_labels with graph naming."""
    from .dedup import union_find_labels

    return union_find_labels(edges).rename_columns(["host", "component"])


def random_walks(
    ew: ray.data.Dataset,
    steps: int = 3,
    join_partitions: int | None = None,
) -> pa.Table:
    """Deterministic ``steps``-hop walks from every host — the positive-
    pair sampler graph-embedding training (DeepWalk/node2vec) consumes.
    At step k from host c the walk moves to the ``md5(c ‖ ':wk') %
    out_hosts(c)``-th DISTINCT out-neighbor in dst order (the md5 oracle
    bridge again, so walks are reproducible on any cluster size and in
    SQL); dangling hosts absorb (stay in place).  → (host, h1..h{steps}).

    Driver path (≤ the gate limit aggregated edges): dict-indexed
    neighbor lists, one pass.  Distributed path: per step ONE left-outer
    join against the out-degree table (computes the target rank) and ONE
    two-key left-outer join against the rank-indexed neighbor table —
    the walk frontier is a Dataset throughout, so 10^8 simultaneous
    walks shard across the cluster; neighbor ranking is a per-src
    map_groups (real per-group work: sort + arange, not 1-row calls).
    """
    ew = ew.materialize()
    n_edges = ew.count()
    if n_edges == 0:
        return pa.table({"host": pa.array([], pa.string()),
                         **{f"h{k+1}": pa.array([], pa.string())
                            for k in range(steps)}})

    if R.route("graph.random_walks", n_edges) == "driver":
        tbl = pa.concat_tables(ew.iter_batches(batch_format="pyarrow"))
        nbrs: dict[str, list[str]] = {}
        hosts_set = set()
        for s, d in zip(tbl.column("src").to_pylist(),
                        tbl.column("dst").to_pylist()):
            nbrs.setdefault(s, []).append(d)
            hosts_set.add(s)
            hosts_set.add(d)
        for s in nbrs:
            nbrs[s].sort()
        hosts = sorted(hosts_set)
        cols: dict[str, list[str]] = {f"h{k+1}": [] for k in range(steps)}
        for h in hosts:
            cur = h
            for k in range(steps):
                lst = nbrs.get(cur)
                if lst:
                    cur = lst[md5_bucket(f"{cur}:w{k}", len(lst))]
                cols[f"h{k+1}"].append(cur)
        return pa.table({"host": pa.array(hosts, pa.string()),
                         **{c: pa.array(v, pa.string())
                            for c, v in cols.items()}})

    from ray.data.aggregate import Count

    if join_partitions is None:
        join_partitions = _default_join_partitions(ew)

    # ew rows are distinct (src,dst): out-neighbor count is a row count
    outn = ew.groupby("src").aggregate(Count()).rename_columns(
        {"count()": "nn"}).materialize()

    def rank_group(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = g.take(pc.sort_indices(g, sort_keys=[("dst", "ascending")]))
        return pa.table({
            "src": g.column("src"), "dst": g.column("dst"),
            "rk": pa.array(np.arange(g.num_rows, dtype=np.int64)),
        })

    import pyarrow.compute as _pc

    nbr = ew.groupby("src").map_groups(
        rank_group, batch_format="pyarrow").materialize()

    nodes = ew.map_batches(
        lambda b: pa.table({"host": pa.concat_arrays(
            [b.column("src").combine_chunks(),
             b.column("dst").combine_chunks()])}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).groupby("host").aggregate(Count()).map_batches(
        lambda b: pa.table({"host": b.column("host"),
                            "cur": b.column("host")}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    walks = nodes
    kept = ["host"]
    for k in range(steps):
        def with_rank(b: pa.Table, _k=k, _kept=tuple(kept)) -> pa.Table:
            cur = b.column("cur").to_pylist()
            nn = b.column("nn").to_pylist()  # null for dangling hosts
            rk = [md5_bucket(f"{c}:w{_k}", n) if n else -1
                  for c, n in zip(cur, nn)]
            out = {c: b.column(c) for c in _kept}
            out["cur"] = b.column("cur")
            out["rk_t"] = pa.array(rk, pa.int64())
            return pa.table(out)

        def step_out(b: pa.Table, _k=k, _kept=tuple(kept)) -> pa.Table:
            nxt = _pc.coalesce(b.column("dst"), b.column("cur"))
            out = {c: b.column(c) for c in _kept}
            out[f"h{_k+1}"] = nxt
            out["cur"] = nxt
            return pa.table(out)

        walks = walks.join(
            outn, join_type="left_outer", num_partitions=join_partitions,
            on=("cur",), right_on=("src",), right_suffix="_o",
        ).map_batches(with_rank, batch_format="pyarrow",
                      zero_copy_batch=True).join(
            nbr, join_type="left_outer", num_partitions=join_partitions,
            on=("cur", "rk_t"), right_on=("src", "rk"), right_suffix="_n",
        ).map_batches(step_out, batch_format="pyarrow",
                      zero_copy_batch=True).materialize()
        kept.append(f"h{k+1}")

    out = pa.concat_tables(
        walks.map_batches(
            lambda b, _kept=tuple(kept): b.select(list(_kept)),
            batch_format="pyarrow", zero_copy_batch=True,
        ).iter_batches(batch_format="pyarrow")
    )
    return out.sort_by("host")


def triangle_count(
    ew: ray.data.Dataset,
    join_partitions: int | None = None,
) -> pa.Table:
    """Undirected triangle count of the host graph → one row
    ``(n_triangles)`` — the classic two-join distributed graph primitive
    (wedge building then closure check), and the numerator of the global
    clustering coefficient used to characterize link-farm structure.

    Edges canonicalize to a<b (direction collapsed, distinct); triangles
    are ordered a<b<c so each counts once.  Driver path: per-node
    higher-neighbor sets, ``sum |N⁺(a) ∩ N⁺(b)|`` over edges.
    Distributed: und ⋈ und on b=a' builds wedges (a<b<c), one two-key
    hash join against und closes them; both pinned equal to the
    three-way self-join oracle."""
    from ray.data.aggregate import Count

    def canon(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "a": pc.min_element_wise(b.column("src"), b.column("dst")),
            "b": pc.max_element_wise(b.column("src"), b.column("dst")),
        })

    und = ew.map_batches(
        canon, batch_format="pyarrow", zero_copy_batch=True
    ).groupby(["a", "b"]).aggregate(Count()).map_batches(
        lambda t: t.select(["a", "b"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    n_edges = und.count()
    if n_edges == 0:
        return pa.table({"n_triangles": pa.array([0], pa.int64())})

    if R.route("graph.triangle_count", n_edges) == "driver":
        tbl = pa.concat_tables(und.iter_batches(batch_format="pyarrow"))
        aa = tbl.column("a").to_pylist()
        bb = tbl.column("b").to_pylist()
        up: dict[str, set] = {}
        for a, b in zip(aa, bb):
            up.setdefault(a, set()).add(b)
        t = sum(len(up[a] & up[b]) for a, b in zip(aa, bb) if b in up)
        return pa.table({"n_triangles": pa.array([t], pa.int64())})

    if join_partitions is None:
        join_partitions = _default_join_partitions(und)
    wedges = und.join(
        und, join_type="inner", num_partitions=join_partitions,
        on=("b",), right_on=("a",), right_suffix="_2",
    ).map_batches(
        lambda t: pa.table({"a": t.column("a"), "b": t.column("b"),
                            "c": t.column("b_2")}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    closed = wedges.join(
        und, join_type="inner", num_partitions=join_partitions,
        on=("a", "c"), right_on=("a", "b"), right_suffix="_3",
    )
    return pa.table(
        {"n_triangles": pa.array([closed.count()], pa.int64())})


def edge_negatives(
    ew: ray.data.Dataset,
    per_host: int = 4,
    join_partitions: int | None = None,
) -> pa.Table:
    """Deterministic NEGATIVE edge sampling for link-prediction training —
    the complement of ``random_walks``' positives: for every host, up to
    ``per_host`` md5-bridged candidate targets, keeping those that are
    NOT a real out-edge (and not self) → (src, dst, slot).

    Scale shape: candidates are generated per node block (no driver
    loop), and the rejection test is ONE distributed left-anti hash join
    against the aggregated edge list — exactly how negatives are mined
    against a 10^10-edge graph; nothing materializes until the final
    (bounded) collect."""
    from ray.data.aggregate import Count

    ew = ew.materialize()
    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string()),
                      "slot": pa.array([], pa.int64())})
    n_edges = ew.count()
    if n_edges == 0:
        return empty
    if R.route("graph.edge_negatives", n_edges) == "driver":
        # tiny edge list: driver set-lookup rejection (the anti join's
        # hash shuffle can emit schema-less empty blocks on 1-row sides)
        tbl = pa.concat_tables(ew.iter_batches(batch_format="pyarrow"))
        ss = tbl.column("src").to_pylist()
        dd = tbl.column("dst").to_pylist()
        real = set(zip(ss, dd))
        src, dst, slot = [], [], []
        for h in sorted(set(ss) | set(dd)):
            for j in range(per_host):
                c = host_name(md5_bucket(f"{h}:n{j}", N_HOSTS))
                if c != h and (h, c) not in real:
                    src.append(h)
                    dst.append(c)
                    slot.append(j)
        return pa.table({"src": pa.array(src, pa.string()),
                         "dst": pa.array(dst, pa.string()),
                         "slot": pa.array(slot, pa.int64())})
    if join_partitions is None:
        join_partitions = _default_join_partitions(ew)

    nodes = ew.map_batches(
        lambda b: pa.table({"host": pa.concat_arrays(
            [b.column("src").combine_chunks(),
             b.column("dst").combine_chunks()])}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).groupby("host").aggregate(Count()).map_batches(
        lambda b: b.select(["host"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    def cands(b: pa.Table) -> pa.Table:
        src, dst, slot = [], [], []
        for h in b.column("host").to_pylist():
            for j in range(per_host):
                c = host_name(md5_bucket(f"{h}:n{j}", N_HOSTS))
                if c != h:
                    src.append(h)
                    dst.append(c)
                    slot.append(j)
        return pa.table({"src": pa.array(src, pa.string()),
                         "dst": pa.array(dst, pa.string()),
                         "slot": pa.array(slot, pa.int64())})

    cand = nodes.map_batches(cands, batch_format="pyarrow",
                             zero_copy_batch=True)
    edges_only = ew.map_batches(
        lambda b: b.select(["src", "dst"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    neg = cand.join(
        edges_only, join_type="left_anti",
        num_partitions=join_partitions, on=("src", "dst"),
    )
    out = pa.concat_tables(neg.iter_batches(batch_format="pyarrow"))
    if out.num_rows == 0:
        return empty
    return out.select(["src", "dst", "slot"]).sort_by(
        [("src", "ascending"), ("slot", "ascending")])


HITS_SCALE = 1_000_000


def _hits_numpy(edges: pa.Table, iterations: int) -> pa.Table:
    """Driver-side vectorized HITS over an aggregated (src, dst, w) edge
    table — factorized hosts, ``np.add.at`` scatter-adds, max-normalized
    integers each half-step (semantics documented on :func:`hits`)."""
    src = np.asarray(edges.column("src").combine_chunks())
    dst = np.asarray(edges.column("dst").combine_chunks())
    w = _i64(edges.column("w"))
    hosts = np.unique(np.concatenate([src, dst]))
    empty = pa.table({"host": pa.array([], pa.string()),
                      "authority_c": pa.array([], pa.int64()),
                      "hub_c": pa.array([], pa.int64())})
    if hosts.size == 0:
        return empty
    si = np.searchsorted(hosts, src)
    di = np.searchsorted(hosts, dst)
    h = np.full(hosts.size, HITS_SCALE, np.int64)
    a = np.zeros(hosts.size, np.int64)
    for _ in range(iterations):
        a_raw = np.zeros(hosts.size, np.int64)
        np.add.at(a_raw, di, w * h[si])
        a = (a_raw * HITS_SCALE) // max(int(a_raw.max()), 1)
        h_raw = np.zeros(hosts.size, np.int64)
        np.add.at(h_raw, si, w * a[di])
        h = (h_raw * HITS_SCALE) // max(int(h_raw.max()), 1)
    return pa.table({"host": pa.array(hosts.tolist(), pa.string()),
                     "authority_c": pa.array(a, pa.int64()),
                     "hub_c": pa.array(h, pa.int64())})


def _hits_distributed(
    ew: ray.data.Dataset, iterations: int, join_partitions: int | None
) -> pa.Table:
    """Distributed HITS: each half-step is ONE hash join (edges ⋈ scores
    on the propagating endpoint) + ONE native groupby-Sum + a tiny global
    max (a metadata-cheap ``Dataset.max``) broadcast into the normalizing
    map.  Nodes missing from a half-step's sum re-enter through a union
    of zero rows, exactly like the PageRank sibling."""
    from ray.data.aggregate import Count, Sum

    if join_partitions is None:
        join_partitions = _default_join_partitions(ew)

    nodes = ew.map_batches(
        lambda b: pa.table({"host": pa.concat_arrays(
            [b.column("src").combine_chunks(),
             b.column("dst").combine_chunks()])}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).groupby("host").aggregate(Count()).map_batches(
        lambda b: b.select(["host"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    def const_scores(val: int):
        def mk(b: pa.Table) -> pa.Table:
            return pa.table({
                "host": b.column("host"),
                "s": pa.array(np.full(b.num_rows, val, np.int64))})
        return mk

    def zero_scores(b: pa.Table) -> pa.Table:
        return pa.table({"dst": b.column("host"),
                         "c": pa.array(np.zeros(b.num_rows, np.int64))})

    def half_step(scores: ray.data.Dataset, out_key: str, in_key: str
                  ) -> ray.data.Dataset:
        # propagate w·s from out_key endpoint, sum at in_key endpoint,
        # max-normalize to HITS_SCALE
        def contrib(b: pa.Table) -> pa.Table:
            c = _i64(b.column("w")) * _i64(b.column("s"))
            return pa.table({"dst": b.column(in_key),
                             "c": pa.array(c, pa.int64())})

        raw = ew.join(
            scores, join_type="inner", num_partitions=join_partitions,
            on=(out_key,), right_on=("host",), right_suffix="_k",
        ).map_batches(contrib, batch_format="pyarrow",
                      zero_copy_batch=True)
        summed = (
            raw.union(nodes.map_batches(zero_scores, batch_format="pyarrow",
                                        zero_copy_batch=True))
            .groupby("dst").aggregate(Sum("c"))
            .rename_columns({"sum(c)": "c"}).materialize()
        )
        peak = max(int(summed.max("c") or 0), 1)

        def norm(b: pa.Table) -> pa.Table:
            s = (_i64(b.column("c")) * HITS_SCALE) // peak
            return pa.table({"host": b.column("dst"),
                             "s": pa.array(s, pa.int64())})

        return summed.map_batches(norm, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    h = nodes.map_batches(const_scores(HITS_SCALE), batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    a = nodes.map_batches(const_scores(0), batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    for _ in range(iterations):
        a = half_step(h, "src", "dst")
        h = half_step(a, "dst", "src")
    at = pa.concat_tables(a.iter_batches(batch_format="pyarrow"))
    ht = pa.concat_tables(h.iter_batches(batch_format="pyarrow"))
    at = at.rename_columns(["host", "authority_c"]).sort_by("host")
    ht = ht.rename_columns(["host", "hub_c"]).sort_by("host")
    return at.append_column("hub_c", ht.column("hub_c"))


def hits(
    ew: ray.data.Dataset,
    iterations: int = 3,
    join_partitions: int | None = None,
) -> pa.Table:
    """Fixed-iteration integer HITS over an aggregated weighted edge
    Dataset (src, dst, w) → (host, authority_c, hub_c) sorted by host —
    the hub/authority companion to :func:`pagerank` (quality weighting
    wants BOTH: PageRank finds endorsed hosts, HITS separates directories
    that point well from content hosts that are pointed at).

    Integer semantics (oracle-pinned, floor divisions on non-negative
    int64 — numpy ``//`` == DuckDB ``//``), per iteration:

        a_raw(v) = Σ_{u→v} w · h(u);  a = (a_raw · S) // max(a_raw)
        h_raw(u) = Σ_{u→v} w · a(v);  h = (h_raw · S) // max(h_raw)

    with S = HITS_SCALE = 1e6 and h₀ = S.  The per-half-step max
    normalization replaces the float L2 norm of classic HITS — it keeps
    every score in [0, S] so the next multiply is bounded by
    Σw · S ≤ 2^63 while total edge weight stays under ~9·10¹²; past
    that a production run shifts HITS_SCALE down, exactly like the
    PR_SCALE note above.  max(a_raw) > 0 whenever the edge set is
    non-empty (h starts positive; the argmax-authority node has an
    in-link, so the following hub max is positive too) — the ``max(·,1)``
    guards are for the empty graph only.

    Regime split mirrors :func:`pagerank`: vectorized driver scatter-adds
    under the gate limit aggregated edges, join-per-half-step
    distributed above it (or when forced); tests pin the
    two paths equal."""
    ew = ew.materialize()
    n_edges = ew.count()
    empty_edges = pa.table({"src": pa.array([], pa.string()),
                            "dst": pa.array([], pa.string()),
                            "w": pa.array([], pa.int64())})
    if n_edges == 0:
        return _hits_numpy(empty_edges, iterations)
    if R.route("graph.hits", n_edges) == "driver":
        tbl = pa.concat_tables(ew.iter_batches(batch_format="pyarrow"))
        return _hits_numpy(tbl, iterations).sort_by("host")
    return _hits_distributed(ew, iterations, join_partitions)


def clustering_coefficients(
    ew: ray.data.Dataset,
    join_partitions: int | None = None,
) -> pa.Table:
    """LOCAL clustering coefficient per host — the per-node refinement of
    :func:`triangle_count`: degree, triangle membership count, and
    ``cc_ppm = ⌊2·10⁶·tri ÷ (deg·(deg−1))⌋`` (NULL under degree 2, where
    no wedge exists) → (host, degree, n_triangles, cc_ppm) by host.
    High degree + near-zero coefficient is the hub signature; high
    coefficient at moderate degree marks cliquey link farms.

    Scale shape mirrors triangle_count: edges canonicalize to a<b and
    dedup once; the driver path intersects higher-neighbor sets per edge
    and credits all three corners; above the gate the SAME two-join
    wedge-closure plan runs distributed, with per-corner counts folded
    from the closed-triangle rows (3 thin rows per triangle, grouped
    before the driver sees them).  Degrees fold from per-block endpoint
    partials either way."""
    from ray.data.aggregate import Count

    def canon(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "a": pc.min_element_wise(b.column("src"), b.column("dst")),
            "b": pc.max_element_wise(b.column("src"), b.column("dst")),
        })

    und = ew.map_batches(
        canon, batch_format="pyarrow", zero_copy_batch=True
    ).groupby(["a", "b"]).aggregate(Count()).map_batches(
        lambda t: t.select(["a", "b"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    empty = pa.table({"host": pa.array([], pa.string()),
                      "degree": pa.array([], pa.int64()),
                      "n_triangles": pa.array([], pa.int64()),
                      "cc_ppm": pa.array([], pa.int64())})
    n_edges = und.count()
    if n_edges == 0:
        return empty

    def finalize(hosts: list, deg: dict, tri: dict) -> pa.Table:
        hs = sorted(hosts)
        d = [deg.get(h, 0) for h in hs]
        t = [tri.get(h, 0) for h in hs]
        cc = [None if dd < 2 else (2_000_000 * tt) // (dd * (dd - 1))
              for dd, tt in zip(d, t)]
        return pa.table({"host": pa.array(hs, pa.string()),
                         "degree": pa.array(d, pa.int64()),
                         "n_triangles": pa.array(t, pa.int64()),
                         "cc_ppm": pa.array(cc, pa.int64())})

    if R.route("graph.clustering_coefficients", n_edges) == "driver":
        tbl = pa.concat_tables(und.iter_batches(batch_format="pyarrow"))
        aa = tbl.column("a").to_pylist()
        bb = tbl.column("b").to_pylist()
        up: dict[str, set] = {}
        deg: dict[str, int] = {}
        for a, b in zip(aa, bb):
            up.setdefault(a, set()).add(b)
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        tri: dict[str, int] = {}
        for a, b in zip(aa, bb):
            for c in up.get(a, set()) & up.get(b, set()):
                tri[a] = tri.get(a, 0) + 1
                tri[b] = tri.get(b, 0) + 1
                tri[c] = tri.get(c, 0) + 1
        return finalize(list(deg), deg, tri)

    if join_partitions is None:
        join_partitions = _default_join_partitions(und)
    # degrees: bounded per-block endpoint partials (host space is bounded)
    deg_parts = und.map_batches(
        lambda t: pa.table({"host": pa.concat_arrays(
            [t.column("a").combine_chunks(),
             t.column("b").combine_chunks()]),
            "n": pa.array([1] * (2 * t.num_rows), pa.int64())}
        ).group_by(["host"]).aggregate([("n", "sum")]),
        batch_format="pyarrow", zero_copy_batch=True)
    deg_tbl = pa.concat_tables(
        deg_parts.iter_batches(batch_format="pyarrow"))
    deg_tbl = deg_tbl.group_by(["host"]).aggregate([("n_sum", "sum")])
    deg = dict(zip(deg_tbl.column("host").to_pylist(),
                   deg_tbl.column("n_sum_sum").to_pylist()))

    wedges = und.join(
        und, join_type="inner", num_partitions=join_partitions,
        on=("b",), right_on=("a",), right_suffix="_2",
    ).map_batches(
        lambda t: pa.table({"a": t.column("a"), "b": t.column("b"),
                            "c": t.column("b_2")}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    closed = wedges.join(
        und, join_type="inner", num_partitions=join_partitions,
        on=("a", "c"), right_on=("a", "b"), right_suffix="_3",
    )
    corner_parts = closed.map_batches(
        lambda t: pa.table({"host": pa.concat_arrays(
            [t.column("a").combine_chunks(),
             t.column("b").combine_chunks(),
             t.column("c").combine_chunks()]),
            "n": pa.array([1] * (3 * t.num_rows), pa.int64())}
        ).group_by(["host"]).aggregate([("n", "sum")]),
        batch_format="pyarrow", zero_copy_batch=True)
    # a triangle-free graph yields ZERO batches here — concat would raise
    corner_batches = list(corner_parts.iter_batches(batch_format="pyarrow"))
    tri: dict[str, int] = {}
    if corner_batches:
        tri_tbl = pa.concat_tables(corner_batches)
        if tri_tbl.num_rows:
            tri_tbl = tri_tbl.group_by(["host"]).aggregate(
                [("n_sum", "sum")])
            tri = dict(zip(tri_tbl.column("host").to_pylist(),
                           tri_tbl.column("n_sum_sum").to_pylist()))
    return finalize(list(deg), deg, tri)


def degree_assortativity(ew: ray.data.Dataset) -> pa.Table:
    """Global degree assortativity of the undirected host graph →
    (n_edges, r_ppm): the Pearson correlation of endpoint degrees over
    both edge orientations.  With both orientations included the two
    marginals are identical (Σx = Σy, Σx² = Σy²), so the usual sqrt
    denominator collapses and r = (n·Σxy − (Σx)²) ÷ (n·Σxx − (Σx)²) is
    EXACT in integers — reported in truncating-division ppm, NULL for a
    degree-regular graph (zero variance).  Negative r = hubs prefer
    leaves (disassortative, the usual web shape).

    Scale shape: degrees fold from bounded per-block endpoint partials
    (host space is bounded) and broadcast once via ``ray.put``; the edge
    scan folds the four sufficient statistics per block — no shuffle,
    nothing bigger than the host catalog ever moves."""
    from ray.data.aggregate import Count

    def canon(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "a": pc.min_element_wise(b.column("src"), b.column("dst")),
            "b": pc.max_element_wise(b.column("src"), b.column("dst")),
        })

    und = ew.map_batches(
        canon, batch_format="pyarrow", zero_copy_batch=True
    ).groupby(["a", "b"]).aggregate(Count()).map_batches(
        lambda t: t.select(["a", "b"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    def one_row(n_edges: int, r_ppm) -> pa.Table:
        return pa.table({"n_edges": pa.array([n_edges], pa.int64()),
                         "r_ppm": pa.array([r_ppm], pa.int64())})

    if und.count() == 0:
        return one_row(0, None)

    deg_parts = und.map_batches(
        lambda t: pa.table({"host": pa.concat_arrays(
            [t.column("a").combine_chunks(),
             t.column("b").combine_chunks()]),
            "n": pa.array([1] * (2 * t.num_rows), pa.int64())}
        ).group_by(["host"]).aggregate([("n", "sum")]),
        batch_format="pyarrow", zero_copy_batch=True)
    deg_tbl = pa.concat_tables(
        deg_parts.iter_batches(batch_format="pyarrow"))
    deg_tbl = deg_tbl.group_by(["host"]).aggregate([("n_sum", "sum")])
    hosts = np.asarray(deg_tbl.column("host").to_pylist(), dtype=object)
    degs = deg_tbl.column("n_sum_sum").to_numpy().astype(np.int64)
    horder = np.argsort(hosts)
    ref = ray.put((hosts[horder], degs[horder]))

    def stat_partial(t: pa.Table) -> pa.Table:
        hs, dg = ray.get(ref)
        ai = np.searchsorted(hs, np.asarray(t.column("a").to_pylist(),
                                            dtype=object))
        bi = np.searchsorted(hs, np.asarray(t.column("b").to_pylist(),
                                            dtype=object))
        da, db = dg[ai], dg[bi]
        return pa.table({
            "n": pa.array([2 * len(da)], pa.int64()),
            "sx": pa.array([int((da + db).sum())], pa.int64()),
            "sxx": pa.array([int((da * da + db * db).sum())], pa.int64()),
            "sxy": pa.array([2 * int((da * db).sum())], pa.int64())})

    st = pa.concat_tables(
        und.map_batches(stat_partial, batch_format="pyarrow",
                        zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow"))
    n = int(pa.compute.sum(st.column("n")).as_py())
    sx = int(pa.compute.sum(st.column("sx")).as_py())
    sxx = int(pa.compute.sum(st.column("sxx")).as_py())
    sxy = int(pa.compute.sum(st.column("sxy")).as_py())
    den = n * sxx - sx * sx
    if den == 0:
        return one_row(n // 2, None)
    num = 1_000_000 * (n * sxy - sx * sx)
    q = abs(num) // abs(den)
    return one_row(n // 2, q if (num >= 0) == (den >= 0) else -q)

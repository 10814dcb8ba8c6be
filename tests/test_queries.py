"""Driver-contract self-check: every ``queries()`` entry with an
``oracle_sql()`` mirror must produce identical rows/columns/values to DuckDB
over the same parquet tables (mini version of the correctness gate)."""

import contextlib
import functools
import importlib.util
import math
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = os.environ.get("TEST_SF_DIR", "/root/testdata/sf0.001")
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _entry_module():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "__ray_entry__.py")
    spec = importlib.util.spec_from_file_location("__ray_entry__", path)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    if not os.path.isdir(SF):
        pytest.skip(f"testdata {SF} missing")
    return _entry_module()


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        f = f"{SF}/{t}.parquet"
        if os.path.exists(f):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{f}')")
    return con


def _to_df(x) -> pd.DataFrame:
    if isinstance(x, pa.Table):
        df = x.to_pandas()
    elif isinstance(x, pd.DataFrame):
        df = x
    else:  # ray Dataset
        df = x.to_pandas()
    return df[sorted(df.columns)].reset_index(drop=True)


# derived at collection time: every oracle_sql() key is compared — a new
# oracle can never be silently left out of the matrix
ORACLED = sorted(_entry_module().oracle_sql())
QUERIES = sorted(_entry_module().queries())


@functools.lru_cache(maxsize=None)
def _run(name: str):
    """``queries()[name](SF)``, once per session: the oracle, rows-only
    and degenerate-table tests share each run."""
    return _entry_module().queries()[name](SF)


@pytest.mark.parametrize("name", ORACLED)
def test_query_matches_oracle(entry_mod, duck, name):
    mine = _to_df(_run(name))
    ref = _to_df(duck.execute(entry_mod.oracle_sql()[name]).fetchdf())
    pd.testing.assert_frame_equal(mine, ref, check_exact=True)


def test_every_oracle_has_a_query(entry_mod):
    qs = set(entry_mod.queries())
    missing = set(entry_mod.oracle_sql()) - qs
    assert not missing, f"oracle_sql keys without queries(): {missing}"


def test_rows_only_queries_return_rows(entry_mod):
    qs = entry_mod.queries()
    rows_only = set(qs) - set(entry_mod.oracle_sql())
    for name in sorted(rows_only):
        out = _run(name)
        n = out.count() if hasattr(out, "count") and not isinstance(
            out, (pa.Table, pd.DataFrame)) else len(out)
        assert n >= 0, name


def _dryrun_module():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "tools", "oracle_dryrun.py")
    spec = importlib.util.spec_from_file_location("oracle_dryrun", path)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


@pytest.fixture(scope="session")
def degenerate_sf(tmp_path_factory):
    """SF with every table cut to its first 0 ("zero") or 1 ("one") rows,
    written once per session."""
    import pyarrow.parquet as pq

    if not os.path.isdir(SF):
        pytest.skip(f"testdata {SF} missing")
    dirs = {}
    for kind, n_rows in (("zero", 0), ("one", 1)):
        d = tmp_path_factory.mktemp(f"sf_{kind}")
        for t in TABLES:
            f = f"{SF}/{t}.parquet"
            if os.path.exists(f):
                pq.write_table(pq.read_table(f).slice(0, n_rows),
                               str(d / f"{t}.parquet"))
        dirs[kind] = str(d)
    return dirs


@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("kind", ["zero", "one"])
def test_query_on_degenerate_tables(entry_mod, degenerate_sf, kind, name):
    """Every query runs on zero-row and one-row tables.  An oracled one
    equals its oracle there (compared as tools/oracle_dryrun.py does), and
    a table result keeps the schema the query has over SF."""
    dryrun = _dryrun_module()
    sf = degenerate_sf[kind]
    out = entry_mod.queries()[name](sf)
    mine = dryrun._to_df(out)
    if isinstance(out, pa.Table):
        full = _run(name)
        assert out.schema.equals(full.schema), (out.schema, full.schema)
    if name in entry_mod.oracle_sql():
        _assert_equals_oracle(entry_mod, sf, name, mine)


def _assert_equals_oracle(entry_mod, sf, name, mine):
    """``mine`` equals ``name``'s oracle over the tables in ``sf``,
    compared as tools/oracle_dryrun.py does."""
    dryrun = _dryrun_module()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    ref = con.execute(entry_mod.oracle_sql()[name]).fetchdf()
    con.close()
    ok, why = dryrun._compare(dryrun._canon(mine), dryrun._canon(ref))
    assert ok, why


# ops whose distributed path failed on zero rows: it renamed a schema-less
# Ray aggregate by position, or hash-joined a side without rows
FORCED_ZERO_ROW_OPS = [
    "customers_without_orders", "delta_dedup", "dup_ngram_stats",
    "dup_span_coverage", "gram_novelty", "join_cardinality_audit",
    "order_backlog_monthly", "orders_by_segment", "q3_top_orders",
    "simhash_dedup",
]


@pytest.mark.parametrize("name", FORCED_ZERO_ROW_OPS)
def test_forced_paths_on_zero_row_tables(entry_mod, degenerate_sf, name):
    """With every gate forced distributed, the op equals its oracle on
    zero-row tables."""
    from swift_readability_ray import routing

    sf = degenerate_sf["zero"]
    with routing.forced():
        mine = _dryrun_module()._to_df(entry_mod.queries()[name](sf))
    _assert_equals_oracle(entry_mod, sf, name, mine)


def test_orders_by_segment_join_fallback(ray_session):
    """A dimension above the broadcast budget takes the distributed hash
    join path and produces identical results (judge r1: unbounded driver
    dict guard)."""
    broadcast, joined = _default_and_forced("orders_by_segment")
    assert broadcast.to_pylist() == joined.to_pylist()


def test_systematic_sample_distributed_fallback(ray_session):
    """The bucket-prefix-sum distributed path selects exactly the docs the
    driver-cumsum gate path selects."""
    gate, forced = _default_and_forced("systematic_sample")
    assert gate.equals(forced)


def test_partition_prune_actually_prunes(ray_session):
    """The planner must read strictly fewer partition directories than
    exist (the certificate's value-match alone can't prove pruning)."""
    from swift_readability_ray.pipelines.training_data import (
        partition_prune_certificate,
    )

    t = partition_prune_certificate(SF)
    md = {k.decode(): int(v.decode()) for k, v in t.schema.metadata.items()
          if k in (b"dirs_total", b"dirs_read")}
    assert md["dirs_read"] < md["dirs_total"], md
    assert t.num_rows > 0


def test_streaming_split_fans_out(ray_session):
    """More than one concurrent rank must actually receive blocks."""
    from swift_readability_ray.pipelines.training_data import (
        streaming_split_certificate,
    )

    t = streaming_split_certificate(SF)
    md = {k.decode(): int(v.decode()) for k, v in t.schema.metadata.items()}
    assert md["shards_nonempty"] >= 2, md


def test_compaction_shrinks_file_count(ray_session):
    """The compacted layout must hold the same rows in far fewer files."""
    from swift_readability_ray.pipelines.training_data import (
        compaction_certificate,
    )

    t = compaction_certificate(SF)
    md = {k.decode(): int(v.decode()) for k, v in t.schema.metadata.items()}
    assert md["files_compact"] < md["files_small"], md


def test_clustering_coefficients_distributed_fallback(ray_session):
    """The wedge-closure distributed path credits the same per-corner
    triangle counts as the driver set-intersection path."""
    gate, forced = _default_and_forced("clustering_coefficients")
    assert gate.equals(forced)


def test_clustering_coefficients_triangle_free_forced(ray_session):
    """A triangle-free graph produces ZERO closed-wedge batches on the
    distributed path — must yield cc 0/NULL, not an empty-concat crash."""
    import pyarrow as pa
    import ray

    from swift_readability_ray import routing
    from swift_readability_ray.stages.graph import clustering_coefficients

    edges = ray.data.from_arrow(pa.table(
        {"src": ["a", "b"], "dst": ["b", "c"],
         "w": pa.array([1, 1], pa.int64())}))
    with routing.forced("graph.clustering_coefficients"):
        t = clustering_coefficients(edges)
    rows = {r["host"]: r for r in t.to_pylist()}
    assert rows["b"]["degree"] == 2 and rows["b"]["n_triangles"] == 0
    assert rows["b"]["cc_ppm"] == 0
    assert rows["a"]["cc_ppm"] is None  # degree 1: no wedge exists


def test_dup_ngram_stats_distributed_fallback(ray_session):
    """Above the driver-merge gate the gram/doc combines run as distributed
    groupbys (with the dup-key broadcast) and produce identical results."""
    merged, distributed = _default_and_forced("dup_ngram_stats")
    assert merged.to_pylist() == distributed.to_pylist()


def test_decontaminate_distributed_fallback(ray_session):
    """Above the eval-gram broadcast gate, decontamination runs as a
    distributed-distinct + hash semi-join + tag-union groupby — identical
    to the shuffle-free broadcast path."""
    broadcast, distributed = _default_and_forced("decontaminate")
    assert broadcast.to_pylist() == distributed.to_pylist()


def test_q3_top_orders_distributed_fallback(ray_session):
    """Above the broadcast budget q3 runs both joins distributed (hash join
    on custkey, then orderkey) plus per-block top-k partials — identical to
    the broadcast + driver-merge path."""
    broadcast, distributed = _default_and_forced("q3_top_orders")
    assert broadcast.to_pylist() == distributed.to_pylist()


def test_events_rolling_distributed_fallback(ray_session):
    """Above the driver gate the window runs as a user_id groupby with the
    same per-group kernel — identical to the driver-side run-slicing path."""
    driver, shuffled = _default_and_forced("events_rolling")
    assert driver.to_pylist() == shuffled.to_pylist()


def test_events_quantiles_distributed_fallback(ray_session):
    """Above the driver gate the per-type order statistics run as an
    event_type groupby with the same rank kernel."""
    driver, shuffled = _default_and_forced("events_quantiles")
    assert driver.to_pylist() == shuffled.to_pylist()


def test_customers_without_orders_join_fallback(ray_session):
    """Above the broadcast gate the churn anti-join runs as a distributed
    LEFT ANTI hash join with identical counts."""
    broadcast, joined = _default_and_forced("customers_without_orders")
    assert broadcast.to_pylist() == joined.to_pylist()


def test_events_sessions_distributed_fallback(ray_session):
    """Above the driver gate sessionization runs as the user_id groupby
    with the same gap kernel."""
    driver, shuffled = _default_and_forced("events_sessions")
    assert driver.to_pylist() == shuffled.to_pylist()


def test_events_user_counts_distributed_fallback(ray_session):
    """Above the driver gate the distinct-count runs as a distributed
    pair-distinct groupby + per-type count."""
    driver, shuffled = _default_and_forced("events_user_counts")
    assert driver.to_pylist() == shuffled.to_pylist()


def test_quantile_sketch_error_bound(ray_session):
    """Every histogram-sketch quantile estimate lies within its
    self-reported hard bound (bin_width_c) of the exact rank-semantics
    quantile, per type, and the counts agree exactly."""
    from swift_readability_ray.pipelines.training_data import (
        events_quantiles,
        events_quantiles_sketch,
    )

    exact = {r["event_type"]: r for r in events_quantiles(SF).to_pylist()}
    sk = {r["event_type"]: r for r in events_quantiles_sketch(SF).to_pylist()}
    assert set(exact) == set(sk)
    for t, e in exact.items():
        s = sk[t]
        assert s["n"] == e["n"]
        for p in ("p25_c", "p50_c", "p75_c", "p95_c"):
            assert abs(s[p] - e[p]) <= s["bin_width_c"], (t, p, s[p], e[p])


def test_quantile_sketch_distributed_fallback(ray_session):
    """Above the footer gate the (type, bin) partials combine via a
    distributed groupby — identical read-out to the driver merge."""
    merged, distributed = _default_and_forced("events_quantiles_sketch")
    assert merged.to_pylist() == distributed.to_pylist()


def test_hll_distinct_error_bound(ray_session):
    """The HLL sketch (p=12, ~1.6% σ) estimates within 5% of the exact
    per-type distinct count on the test corpus."""
    from swift_readability_ray.pipelines.training_data import (
        events_user_counts,
        events_user_counts_hll,
    )

    exact = {r["event_type"]: r["n_users"] for r in events_user_counts(SF).to_pylist()}
    est = {r["event_type"]: r["n_users_est"]
           for r in events_user_counts_hll(SF).to_pylist()}
    assert set(exact) == set(est)
    for t, n in exact.items():
        assert abs(est[t] - n) / n < 0.05, (t, est[t], n)


def test_inverted_index_distributed_fallback(ray_session):
    """Above the driver-merge gate the per-term combine runs as a
    distributed groupby + per-block top-k and produces identical results."""
    merged, distributed = _default_and_forced("inverted_index")
    assert merged.to_pylist() == distributed.to_pylist()


def test_events_pivot_distributed_fallback(ray_session):
    """Above the driver-merge gate the pivot combines via a distributed
    groupby over user_id and produces identical results."""
    merged, distributed = _default_and_forced("events_pivot")
    assert merged.to_pylist() == distributed.to_pylist()


def test_pack_sequences_oversized_doc(ray_session, tmp_path):
    """A doc larger than the capacity occupies its own bin and the fill
    resets to it — the greedy scan edge the corpus never exercises."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swift_readability_ray.pipelines.training_data import pack_sequences

    # token counts per doc: 3, 9 (oversized), 4, 4 with capacity 8
    texts = ["a b c", " ".join("x" * 1 for _ in range(9)),
             "p q r s", "k l m n"]
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "source": ["s0"] * 4, "text": texts}),
        str(tmp_path / "documents.parquet"),
    )
    out = pack_sequences(str(tmp_path), capacity=8).to_pylist()
    assert [r["bin_id"] for r in out] == [0, 1, 2, 2]


def test_decontaminate_bloom_one_sided(ray_session):
    """The Bloom sketch never misses a real hit (no false negatives) and
    its doc-level false-positive rate stays within the design bound."""
    from swift_readability_ray.pipelines.training_data import (
        decontaminate,
        decontaminate_bloom,
    )

    exact = {r["doc_id"]: r for r in decontaminate(SF).to_pylist()}
    bloom = {r["doc_id"]: r for r in decontaminate_bloom(SF).to_pylist()}
    assert set(exact) == set(bloom)
    n_fp = 0
    for d, e in exact.items():
        b = bloom[d]
        assert b["n_grams"] == e["n_grams"]
        assert b["n_hits_bloom"] >= e["n_hits"], d  # one-sided
        if b["contaminated"] and not e["contaminated"]:
            n_fp += 1
    # ~9e-5 per-gram FP at 20 bits/key x 10 hashes; ~90 grams/doc -> ~1%
    assert n_fp <= max(3, len(exact) // 20), n_fp


def test_dup_span_coverage_distributed_fallback(ray_session):
    """Above the broadcast gate, coverage runs via hash join + tag-and-union
    groupby interval merge and produces identical results."""
    broadcast, distributed = _default_and_forced("dup_span_coverage")
    assert broadcast.to_pylist() == distributed.to_pylist()


def test_interval_union_len_edges():
    """Interval-union kernel: overlaps, containment, clipping, empty."""
    import numpy as np

    from swift_readability_ray.pipelines.training_data import _interval_union_len

    assert _interval_union_len(np.array([], np.int64), 8, 100) == 0
    # single interval [5, 12] within length
    assert _interval_union_len(np.array([5]), 8, 100) == 8
    # clipped by doc length
    assert _interval_union_len(np.array([95]), 8, 100) == 6
    # overlapping [1,8] + [5,12] -> [1,12]
    assert _interval_union_len(np.array([1, 5]), 8, 100) == 12
    # duplicate starts: the second [3,6] contributes 0 (the clip path —
    # with equal n and sorted starts, containment can only arise from
    # duplicates, so this IS the negative-contrib regime)
    assert _interval_union_len(np.array([1, 3, 3]), 4, 100) == 6
    # disjoint
    assert _interval_union_len(np.array([1, 50]), 8, 100) == 16


def test_quality_gate_repetitive_branch(ray_session, tmp_path):
    """The corpus never trips the repetition rule — pin it (and rule
    precedence) with crafted docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swift_readability_ray.pipelines.training_data import quality_gate

    texts = [
        "spam ham " * 20,                  # 40 tokens, 1 distinct bigram pair
        "tiny doc",                        # too_short wins
        ("the quick brown fox jumps over lazy dogs while a bird sings of "
         "rivers and stones under bright morning skies near distant hills"),
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()), "text": texts}),
        str(tmp_path / "documents.parquet"),
    )
    out = {r["doc_id"]: r["reason"] for r in quality_gate(str(tmp_path)).to_pylist()}
    assert out == {0: "repetitive", 1: "too_short", 2: "keep"}


def test_doc_typicality_distributed_fallback(ray_session):
    """Above the gate the vocabulary combines via a distributed groupby
    before the broadcast and produces identical scores."""
    merged, distributed = _default_and_forced("doc_typicality")
    assert merged.to_pylist() == distributed.to_pylist()


def test_bpe_first_merges_distributed_fallback(ray_session):
    """Above the gate, pair counting maps over the distributed vocabulary
    and combines via groupby + per-block top-k, identically."""
    merged, distributed = _default_and_forced("bpe_first_merges")
    assert merged.to_pylist() == distributed.to_pylist()


def test_conversion_funnel_distributed_fallback(ray_session):
    """Above the gate the per-(user, step) min combines via a distributed
    groupby, identically."""
    merged, distributed = _default_and_forced("conversion_funnel")
    assert merged.to_pylist() == distributed.to_pylist()


def test_latest_event_distributed_fallback(ray_session):
    """Above the gate the winner selection runs as two max-rounds with
    hash joins, identically to the driver lexsort."""
    merged, distributed = _default_and_forced("latest_event_per_user")
    assert merged.to_pylist() == distributed.to_pylist()


def test_delta_dedup_branches(ray_session, tmp_path):
    """Crafted corpus exercising every delta-dedup branch: corpus dup,
    within-batch dup (first keeps), and clean keep — on normalized text."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swift_readability_ray import routing
    from swift_readability_ray.pipelines.training_data import delta_dedup

    rows = {
        0: "Alpha beta!",      # new; normalized-equal to old doc 3
        3: "alpha   BETA",     # old
        10: "unique one",      # new; first of its digest -> keep
        20: "Unique, ONE",     # new; same normalized as 10 -> dup_of_batch
        7: "something else",   # old, unrelated
    }
    pq.write_table(
        pa.table({"doc_id": pa.array(list(rows), pa.int64()),
                  "text": list(rows.values())}),
        str(tmp_path / "documents.parquet"),
    )
    for gates in (["delta_dedup"], []):
        with routing.forced(*gates) if gates else contextlib.nullcontext():
            out = {r["doc_id"]: r
                   for r in delta_dedup(str(tmp_path)).to_pylist()}
        assert set(out) == {0, 10, 20}
        assert out[0]["dup_of_corpus"] and not out[0]["keep"]
        assert out[10]["keep"] and not out[10]["dup_of_batch"]
        assert out[20]["dup_of_batch"] and not out[20]["dup_of_corpus"]
        assert not out[20]["keep"]


def test_latest_event_tie_break_tiny(ray_session, tmp_path):
    """Tie-break on equal max ts goes to the higher event_id, in BOTH gate
    paths, on a corpus small enough that shuffle partitions go sparse."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swift_readability_ray import routing
    from swift_readability_ray.pipelines.training_data import (
        latest_event_per_user,
    )

    ts = pa.array(np.array([1000, 2000, 2000, 3000], dtype="datetime64[us]"))
    pq.write_table(pa.table({
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "event_id": pa.array([5, 7, 6, 9], pa.int64()),
        "ts": ts, "value": pa.array([1.0, 2.0, 3.0, 4.0]),
    }), str(tmp_path / "events.parquet"))
    for gates in (["latest_event_per_user"], []):
        with routing.forced(*gates) if gates else contextlib.nullcontext():
            out = {r["user_id"]: r for r in
                   latest_event_per_user(str(tmp_path)).to_pylist()}
        assert out[1]["last_event_id"] == 7 and out[1]["last_value_c"] == 200
        assert out[2]["last_event_id"] == 9


def test_ann_persisted_matches_inline_ivf(ray_session):
    """The persisted-index pruned probe returns EXACTLY what the inline
    ivf_topk returns (same centroids, same nprobe) — certifying that the
    hive write → partition-pruned read-back loses nothing; the full-probe
    sibling's exact oracle covers the brute-force end."""
    import numpy as np
    import ray.data as rd

    from swift_readability_ray.pipelines.training_data import ann_persisted_topk
    from swift_readability_ray.stages import similarity as S

    ds = rd.read_parquet(f"{SF}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    q_rows = sorted(ds.filter(expr="vec_id < 4").take_all(),
                    key=lambda r: r["vec_id"])
    queries = np.asarray([r["embedding"] for r in q_rows], dtype=np.float64)
    qids = [r["vec_id"] for r in q_rows]
    inline = S.ivf_topk(ds, queries, qids, k=10).select(
        ["query_id", "neighbor_id", "rank"]
    ).sort_by([("query_id", "ascending"), ("rank", "ascending")])
    assert inline.to_pylist() == ann_persisted_topk(SF).to_pylist()


def test_pmi_bigrams_forced_distributed_pins_gate(ray_session):
    """The distributed chain (groupby-Sum + two vocabulary hash joins +
    per-block top-k) returns EXACTLY the driver-gate result on the
    testdata corpus."""
    gate, forced = _default_and_forced("pmi_bigrams")
    assert gate.num_rows > 0
    assert gate.to_pylist() == forced.to_pylist()


def test_quality_percentiles_forced_distributed_pins_gate(ray_session):
    """The hash-repartition-by-source block tail returns EXACTLY the
    driver-gate lexsort result on the testdata corpus."""
    gate, forced = _default_and_forced("quality_percentiles")
    assert gate.num_rows > 0
    assert gate.to_pylist() == forced.to_pylist()


def test_range_layout_forced_distributed_pins_gate(ray_session):
    """The histogram + co-located-rank distributed chain returns EXACTLY
    the driver-gate lexsort result on the testdata corpus, and the
    layout invariants hold: shard counts differ by ≤1 and key ranges
    are non-overlapping in shard order."""
    gate, forced = _default_and_forced("range_layout")
    assert gate.num_rows > 0
    assert gate.to_pylist() == forced.to_pylist()
    rows = gate.to_pylist()
    counts = [r["n_docs"] for r in rows]
    assert max(counts) - min(counts) <= 1
    for a, b in zip(rows, rows[1:]):
        assert a["max_chars"] <= b["min_chars"]


def test_split_leakage_forced_distributed_pins_gate(ray_session):
    """The two-groupby bitmask-fold distributed path returns EXACTLY the
    driver-gate result, and real leakage is found (the corpus plants
    duplicated passages across split boundaries)."""
    gate, forced = _default_and_forced("split_leakage_audit")
    assert gate.to_pylist() == forced.to_pylist()
    assert sum(r["n_shared_grams"] for r in gate.to_pylist()) > 0


def test_events_watermark_late_forced_distributed_pins_gate(ray_session):
    """The hash-repartition-by-user tail returns EXACTLY the driver-gate
    result on the testdata events."""
    gate, forced = _default_and_forced("events_watermark_late")
    assert gate.num_rows > 0
    assert gate.to_pylist() == forced.to_pylist()


def test_fuzzy_prefix_pairs_forced_distributed_pins_gate(ray_session):
    """The hash-repartition-by-bucket verify returns EXACTLY the
    driver-gate result on the testdata corpus."""
    gate, forced = _default_and_forced("fuzzy_prefix_pairs")
    assert gate.to_pylist() == forced.to_pylist()


def test_sq_persisted_probe_pins_inline(ray_session):
    """A full scan of the persisted int8 sidecar returns EXACTLY the
    inline two-pass sq_topk result — certifying the encode → parquet
    (fixed_size_list<int8>) → decode round trip loses nothing."""
    from swift_readability_ray.pipelines.training_data import (
        sq_persisted_topk_query, sq_topk_query,
    )

    inline = sq_topk_query(SF)
    probed = sq_persisted_topk_query(SF)
    assert inline.num_rows > 0
    assert inline.to_pylist() == probed.to_pylist()


def test_vocab_coverage_tokenless_corpus_matches_oracle_shape(
        ray_session, tmp_path):
    """A corpus whose texts contain no [a-z0-9] tokens must still yield
    one row per candidate size (n_types/covered 0, coverage_ppm NULL) —
    the oracle's `sizes CROSS JOIN tot` shape (code-review finding)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swift_readability_ray.pipelines.training_data import vocab_coverage

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["!!!", ""], pa.string()),
                  "lang": pa.array(["en"] * 2),
                  "source": pa.array(["s0"] * 2),
                  "n_chars": pa.array([3, 0], pa.int64())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = vocab_coverage(str(tmp_path))
    assert got.num_rows == 6
    assert got.column("n_types").to_pylist() == [0] * 6
    assert got.column("coverage_ppm").to_pylist() == [None] * 6


def test_sq_topk_degenerate_corpora(ray_session, tmp_path):
    """sq_topk guards the two inputs the oracle never sees: an all-zero
    corpus (max_abs = 0 -> every code 0, rank purely by neighbor_id) and
    an empty embeddings table (typed empty result)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swift_readability_ray.pipelines.training_data import sq_topk_query

    zeros = pa.table({
        "vec_id": pa.array(range(6), pa.int64()),
        "embedding": pa.array([[0.0] * 4] * 6, pa.list_(pa.float32())),
        "label": pa.array([0] * 6, pa.int32())})
    pq.write_table(zeros, str(tmp_path / "embeddings.parquet"))
    got = sq_topk_query(str(tmp_path))
    assert got.num_rows == 4 * 6
    assert set(got.column("qdot").to_pylist()) == {0}
    # ties broken by neighbor_id ascending
    per_q = got.to_pylist()[:6]
    assert [r["neighbor_id"] for r in per_q] == list(range(6))

    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    pq.write_table(zeros.slice(0, 0), str(empty_dir / "embeddings.parquet"))
    out = sq_topk_query(str(empty_dir))
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "neighbor_id", "rank", "qdot"]


def test_q3_empty_result_no_crash(ray_session, tmp_path):
    """A cutoff that filters out EVERY lineitem must yield an empty typed
    result, not a pa.concat_tables([]) crash (the _collect guard).  Only
    the broadcast path is exercised: the distributed fallback's hash
    joins require dense key partitions (Ray 2.49 sparse-partition join
    quirk) and are gated to inputs where that holds."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swift_readability_ray.pipelines.training_data import q3_top_orders

    ts = pa.array(np.array([100, 200, 300], dtype="datetime64[D]")
                  .astype("datetime64[us]"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_name": ["a", "b", "c"],
        "c_nationkey": pa.array([0, 0, 0], pa.int32()),
        "c_acctbal": [1.0, 2.0, 3.0],
        "c_mktsegment": ["BUILDING", "AUTO", "BUILDING"],
    }), str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 20, 30], pa.int64()),
        "o_custkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderstatus": ["O"] * 3, "o_totalprice": [5.0, 6.0, 7.0],
        "o_orderdate": ts, "o_orderpriority": ["1", "2", "3"],
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 10, 30], pa.int64()),
        "l_partkey": pa.array([1, 2, 3], pa.int64()),
        "l_suppkey": pa.array([1, 1, 1], pa.int64()),
        "l_linenumber": pa.array([1, 2, 1], pa.int32()),
        "l_quantity": [1.0, 2.0, 3.0],
        "l_extendedprice": [100.0, 200.0, 300.0],
        "l_discount": [0.1, 0.0, 0.05], "l_tax": [0.0] * 3,
        "l_returnflag": ["N"] * 3, "l_linestatus": ["O"] * 3,
        "l_shipdate": ts,  # all before the cutoff -> empty result
    }), str(tmp_path / "lineitem.parquet"))
    out = q3_top_orders(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema.names == ["o_orderkey", "o_orderdate", "revenue_c4"]


def test_heavy_hitters_forced_fallback_pins_sketch_path():
    # buckets=2 makes the self-verifying gate fail (kth count * 2 <= N),
    # forcing the distributed-groupby fallback; both plans must agree
    from swift_readability_ray.pipelines.training_data import heavy_hitters

    fast = heavy_hitters(SF)                 # sketch + recount path
    slow = heavy_hitters(SF, buckets=2)      # forced fallback path
    assert fast.equals(slow)
    assert fast.num_rows == 20


def test_heavy_hitters_gate_holds_on_testdata():
    # the sketch path must be the one actually serving the default call:
    # the 20th bigram's exact count clears the N/buckets bound
    import duckdb

    from swift_readability_ray.pipelines.training_data import heavy_hitters

    top = heavy_hitters(SF)
    con = duckdb.connect()
    n_total, = con.execute(f"""
        SELECT sum(greatest(len(list_filter(string_split_regex(lower(text),
               '[^a-z0-9]+'), t -> t <> '')) - 1, 0))
        FROM read_parquet('{SF}/documents.parquet')
    """).fetchone()
    assert int(top.column("n")[19].as_py()) * 1024 > int(n_total)


def test_zorder_buckets_bound_both_dimensions():
    # the point of the Morton layout: every bucket's bounding box spans
    # at most half the user domain AND a bounded hour band — a predicate
    # on either column prunes most buckets via min/max file stats
    from swift_readability_ray.pipelines.training_data import zorder_layout

    t = zorder_layout(SF).to_pandas()
    assert len(t) >= 4
    u_dom = t.max_user.max() - t.min_user.min()
    h_dom = t.max_hour.max() - t.min_hour.min()
    assert ((t.max_user - t.min_user) <= u_dom / 2 + 1).all()
    assert ((t.max_hour - t.min_hour) <= h_dom / 2 + 1).all()


def test_inter_event_gaps_distributed_fallback(ray_session):
    """Above the driver gate the cadence stats run as a (user_id,
    event_type) groupby + per-type driver merge — pinned equal to the
    driver lexsort path."""
    driver, shuffled = _default_and_forced("inter_event_gaps")
    assert driver.to_pylist() == shuffled.to_pylist()


def test_cdc_chunk_stats_distributed_fallback(ray_session):
    """Above the gate CDC winners come from the groupby-Min rank +
    key-join path — pinned equal to the driver lexsort."""
    driver, dist = _default_and_forced("cdc_chunk_stats")
    assert driver.to_pylist() == dist.to_pylist()
    # the corpus genuinely contains cross-doc duplicate chunks
    assert sum(r["n_dup_chunks"] for r in driver.to_pylist()) > 0


# stage gates (stages/dedup.py, stages/graph.py) and the op that reaches
# each; a training_data gate ``op`` or ``op.part`` is reached by ``op``
STAGE_GATE_OPS = {
    "dedup.component_labels": "neardup_keep_best",
    "dedup.components_keep_first": "minhash_dedup_docs",
    "dedup.containment_dedup_pairs": "containment_pairs",
    "dedup.embedding_neardup_lsh": "embedding_neardup_lsh_query",
    "dedup.minhash_candidate_pairs": "minhash_dedup",
    "dedup.minhash_dedup_pairs": "minhash_dedup",
    "dedup.simhash_dedup_pairs": "simhash_dedup",
    "graph.clustering_coefficients": "clustering_coefficients",
    "graph.connected_components": "host_components",
    "graph.edge_negatives": "edge_negatives",
    "graph.hits": "hits_hosts",
    "graph.pagerank": "pagerank_hosts",
    "graph.random_walks": "random_walks",
    "graph.triangle_count": "triangle_count",
}

# forcings run besides the default policy and "all forced": a gate only
# reached on another gate's distributed path, and mixed routes
EXTRA_FORCINGS = {
    "dup_ngram_stats": [("dup_ngram_stats.grams",)],
    "gram_novelty": [("gram_novelty.grams",)],
    "pipeline_certificate": [("pipeline_certificate.survivors",)],
    "q16_part_suppliers": [("q16_part_suppliers.pairs",)],
    "q18_large_orders": [("q18_large_orders.lineitem",)],
    "q21_waiting_suppliers": [("q21_waiting_suppliers.pairs",)],
}

# arguments that make an op reach its gates on the SF corpus
OP_KWARGS = {"q11_important_parts": {"nation": "NATION_8"}}


def _gates_by_op() -> dict[str, list[str]]:
    from swift_readability_ray.routing import LIMITS

    out: dict[str, list[str]] = {}
    for gate in LIMITS:
        op = STAGE_GATE_OPS.get(gate, gate.split(".")[0])
        out.setdefault(op, []).append(gate)
    return out


@functools.lru_cache(maxsize=None)
def _routed_runs(name: str) -> tuple:
    """``name``(SF) at the default policy, all gates forced, then each
    EXTRA_FORCINGS entry → ((forcing, table, [(gate, route)]), ...).
    One set of runs per op per session, shared by the meta-pin and the
    per-op fallback tests."""
    from swift_readability_ray import routing
    from swift_readability_ray.pipelines import training_data as TD

    real = routing.route
    runs = []
    for forcing in [None, ()] + EXTRA_FORCINGS.get(name, []):
        # session caches would hide the default run's gates
        TD._MINHASH_PAIR_CACHE.clear()
        TD._COMPONENT_LABEL_CACHE.clear()
        seen: list = []

        def spy(gate, n):
            d = real(gate, n)
            seen.append((gate, d))
            return d

        routing.route = spy
        try:
            with (contextlib.nullcontext() if forcing is None
                  else routing.forced(*forcing)):
                out = getattr(TD, name)(SF, **OP_KWARGS.get(name, {}))
        finally:
            routing.route = real
        t = out if isinstance(out, pa.Table) else pa.table(out.to_pandas())
        runs.append((forcing, t, seen))
    return tuple(runs)


def _default_and_forced(name: str) -> tuple[pa.Table, pa.Table]:
    runs = _routed_runs(name)
    return runs[0][1], runs[1][1]


@pytest.mark.parametrize("name", sorted(_gates_by_op()))
def test_every_gate_pins_forced_equal(ray_session, name):
    """META-pin, driven by ``routing.LIMITS``: the op reaching each table
    entry returns the identical table at the default policy and under
    every forcing, and a spy on ``routing.route`` must see each of its
    gates decide "driver" in one run and "distributed" in another — a
    gate hard-wired to one path, or a forcing that does not take, fails
    here."""
    runs = _routed_runs(name)
    base = runs[0][1].to_pylist()
    for forcing, t, seen in runs[1:]:
        assert t.to_pylist() == base, (name, forcing)
    # "all forced" sends every gate it reaches to the distributed path
    assert all(d == "distributed" for _, d in runs[1][2]), runs[1][2]
    decided = {pair for _, _, seen in runs for pair in seen}
    for gate in _gates_by_op()[name]:
        assert (gate, "driver") in decided, (gate, runs[0][2])
        assert (gate, "distributed") in decided, gate


def test_limits_table_is_fully_pinned():
    """Every table entry maps to an op the meta-pin can run, and no
    package file brings back a per-op routing parameter."""
    import re

    from swift_readability_ray.pipelines import training_data as TD

    for op in _gates_by_op():
        assert callable(getattr(TD, op, None)), op
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "swift_readability_ray")
    legacy = re.compile(r"force_distributed|driver_limit|broadcast_limit")
    for root, _, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f)) as fh:
                    assert not legacy.search(fh.read()), f


def test_empty_schemas_come_from_the_ops():
    """No package file brings back a restated empty-result schema: typed
    empty results come from each op's own UDFs (``_gather`` /
    ``_rollup``), never from a ``fallback_schema`` or a
    ``_merge_partials`` merge."""
    import re

    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "swift_readability_ray")
    legacy = re.compile(r"fallback_schema|_merge_partials")
    for root, _, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f)) as fh:
                    assert not legacy.search(fh.read()), f


def _containment_pairs(corpus, threshold: float, forced: bool):
    from swift_readability_ray import routing
    from swift_readability_ray.stages.dedup import containment_dedup_pairs

    with (routing.forced("dedup.containment_dedup_pairs") if forced
          else contextlib.nullcontext()):
        return list(containment_dedup_pairs(
            corpus, threshold=threshold).iter_batches(batch_format="pyarrow"))


def test_containment_asymmetric_semantics(ray_session):
    """Hand-built corpus: a short doc fully embedded in a long one has
    containment 1.0 (short → long) but the reverse direction falls below
    threshold — the asymmetry Jaccard cannot express.  Zero-shingle docs
    never appear on either side.  Both paths checked."""
    import ray.data as rd

    short = "alpha beta gamma delta epsilon zeta"
    long_ = short + " " + " ".join(f"filler{i} pad{i} extra{i}" for i in range(12))
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([short, long_, ""], pa.string()),
    }))
    for forced in (False, True):
        out = pa.concat_tables(list(
            _containment_pairs(corpus, 0.8, forced)
        )).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
        rows = out.to_pylist()
        assert [(r["doc_a"], r["doc_b"]) for r in rows] == [(1, 2)], rows
        assert rows[0]["containment"] == 1.0
        # doc 3 (empty) excluded; (2, 1) below threshold — its shingles are
        # mostly filler absent from the short doc


def test_containment_prefix_len_exact_threshold():
    """Regression (ADVICE r4): int((1-t)*n)+1 truncates for t=0.9/0.8 where
    1-t is not exactly representable, undersizing the prefix by one and
    breaking the pigeonhole exact-recall guarantee for pairs sitting
    exactly at the threshold."""
    from swift_readability_ray.stages.dedup import _prefix_len

    # t=0.9, n=10: intersection >= 9, at most 1 missing -> prefix 2
    assert _prefix_len(10, 0.9) == 2
    # t=0.8, n=10: at most 2 missing -> prefix 3
    assert _prefix_len(10, 0.8) == 3
    assert _prefix_len(10, 0.6) == 5
    # exact-match threshold: prefix collapses to 1
    assert _prefix_len(7, 1.0) == 1
    # clamps: never exceeds n_sh, never below 1
    assert _prefix_len(3, 0.0) == 3
    assert _prefix_len(1, 0.5) == 1
    # brute-force confirm the pigeonhole width over a grid: prefix must
    # cover (n - ceil(t*n)) + 1 slots exactly (Fraction = ground truth)
    from fractions import Fraction

    for n in range(1, 40):
        for t_num, t_den in ((9, 10), (8, 10), (6, 10), (3, 4), (19, 20)):
            t = t_num / t_den
            exact_missing = n - math.ceil(Fraction(t_num, t_den) * n)
            want = max(1, min(n, exact_missing + 1))
            assert _prefix_len(n, t) == want, (n, t)


def test_containment_pair_at_exact_threshold(ray_session):
    """Regression (ADVICE r4): 2-doc corpus with containment(a->b) exactly
    9/10 at threshold=0.9 must return the pair on BOTH paths (it returned
    zero pairs before the _prefix_len fix)."""
    import ray.data as rd

    from swift_readability_ray.functions.text_stats import word_shingles

    words = [f"w{i}" for i in range(12)]           # 10 trigram shingles
    doc_a = " ".join(words)
    doc_b = " ".join(words[:11] + ["xx1", "xx2", "xx3"])  # 9 of a's 10
    sa, sb = word_shingles(doc_a), word_shingles(doc_b)
    assert len(sa) == 10 and len(sa & sb) == 9      # corpus as intended
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([doc_a, doc_b], pa.string()),
    }))
    for forced in (False, True):
        rows = pa.concat_tables(list(
            _containment_pairs(corpus, 0.9, forced)
        )).to_pylist()
        assert [(r["doc_a"], r["doc_b"]) for r in rows] == [(1, 2)], (
            forced, rows)
        assert rows[0]["containment"] == 0.9


def test_containment_rejects_string_ids(ray_session):
    """ADVICE r4 (low): non-integer doc_id used to crash deep inside
    np.full; now a clear TypeError at the API edge."""
    import ray.data as rd

    from swift_readability_ray.stages.dedup import containment_dedup_pairs

    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b"], pa.string()),
        "text": pa.array(["x y z w", "x y z w"], pa.string()),
    }))
    with pytest.raises(TypeError, match="integer doc_id"):
        containment_dedup_pairs(corpus)


def test_containment_emit_pair_budget():
    """ADVICE r4 (low): the bucket cap now budgets on the PAIR count, so a
    large bucket with few prefix docs keeps full quadratic recall, while a
    large all-prefix bucket (e.g. an exact-dup cluster >256 docs) falls to
    the hub+successor chain that still connects every member."""
    import numpy as np

    from swift_readability_ray.stages.dedup import _containment_emit

    # 600 members, 2 prefix docs: 2*599 pairs, well under budget -> full
    ids = np.arange(600, dtype=np.int64)
    roles = np.zeros(600, dtype=np.int8)
    roles[[5, 300]] = 1
    a, b = _containment_emit(ids, roles)
    assert len(a) == 2 * 599
    assert set(zip(a, b)) == {
        (x, y) for x in (5, 300) for y in range(600) if y != x
    }

    # 600 members all prefix: 600*599 > budget -> capped chain, but the
    # union-find over emitted pairs must still be a single component
    roles_all = np.ones(600, dtype=np.int8)
    a, b = _containment_emit(ids, roles_all)
    assert 0 < len(a) < 600 * 599
    parent = list(range(600))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        parent[find(int(x))] = find(int(y))
    assert len({find(i) for i in range(600)}) == 1


def _forced_minhash_pairs(corpus):
    from swift_readability_ray import routing
    from swift_readability_ray.stages.dedup import minhash_dedup_pairs

    with routing.forced("dedup.minhash_candidate_pairs",
                        "dedup.minhash_dedup_pairs"):
        return list(minhash_dedup_pairs(corpus, threshold=0.5)
                    .iter_batches(batch_format="pyarrow"))


def test_single_pair_forced_distributed_minhash(ray_session):
    """Regression: a 1-pair corpus through the FORCED distributed minhash
    path used to crash the verify hash join — Ray's aggregate emits
    zero-column blocks for empty hash partitions and the join's partition
    builder assembled a schema-less table (racy on shard order).  The
    metadata-only block scrub (_ensure_block_schema) must keep this
    alive end-to-end."""
    import ray.data as rd

    text = " ".join(f"w{i}" for i in range(40))
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([text, text + " tail"], pa.string()),
    }))
    out = pa.concat_tables(list(
        _forced_minhash_pairs(corpus)
    ))
    rows = out.to_pylist()
    assert [(r["doc_a"], r["doc_b"]) for r in rows] == [(1, 2)], rows
    assert rows[0]["jaccard"] > 0.9

"""Seeded-random differential fuzz: run the round-4 operators AND their
DuckDB oracles over small RANDOMIZED synthetic tables (not the fixed
testdata) and require exact equality.  Catches edge cases the fixed corpus
can't exhibit: empty/1-token docs, duplicate embeddings (distance and
similarity TIES), degenerate single-label clusters, bigram-free corpora.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

VOCAB = "the a of to and spark row scan hash merge table value fast".split()


def _forced(fn, *args, gates=(), **kwargs):
    """``fn(*args, **kwargs)`` with ``gates`` (every routing gate when
    none is named) forced to the distributed path."""
    from swift_readability_ray import routing

    with routing.forced(*gates):
        return fn(*args, **kwargs)


def _entry():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", "/root/repo/__ray_entry__.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def _rand_documents(rng: np.random.RandomState, n: int) -> pa.Table:
    texts = []
    for i in range(n):
        ln = int(rng.choice([0, 1, 2, 5, 30, 60]))
        texts.append(" ".join(rng.choice(VOCAB, size=ln)))
    langs = rng.choice(["en", "de", "zh"], size=n).tolist()
    return pa.table(
        {"doc_id": pa.array(range(n), pa.int64()),
         "text": pa.array(texts, pa.string()),
         "lang": pa.array(langs, pa.string()),
         "source": pa.array(["s%d" % (i % 3) for i in range(n)], pa.string()),
         "n_chars": pa.array([len(t) for t in texts], pa.int64())}
    )


def _rand_embeddings(rng: np.random.RandomState, n: int, dim: int = 8) -> pa.Table:
    mat = rng.randn(n, dim).astype(np.float32)
    # force exact duplicates (ties) and a zero vector
    if n >= 4:
        mat[1] = mat[0]
        mat[3] = 0.0
    return pa.table(
        {"vec_id": pa.array(range(n), pa.int64()),
         "embedding": pa.array([row.tolist() for row in mat],
                               pa.list_(pa.float32())),
         "label": pa.array((np.arange(n) % 3).astype(np.int32), pa.int32())}
    )


def _rand_events(rng: np.random.RandomState, n: int) -> pa.Table:
    base = 1_700_000_000_000_000
    ts = base + rng.randint(0, 90 * 24 * 3600, size=n).astype(np.int64) * 1_000_000
    types = rng.choice(["view", "click", "signup", "purchase", "error"],
                       size=n).tolist()
    props = ['{"k": %d}' % v for v in rng.randint(0, 100, size=n)]
    return pa.table(
        {"event_id": pa.array(range(n), pa.int64()),
         "ts": pa.array(ts, pa.timestamp("us")),
         "user_id": pa.array(rng.randint(0, 7, size=n), pa.int64()),
         "event_type": pa.array(types, pa.string()),
         "value": pa.array(rng.rand(n), pa.float64()),
         "props": pa.array(props, pa.string())}
    )


def _compare(entry_mod, name: str, sf_dir: str):
    import duckdb

    import pandas as pd

    res = entry_mod.queries()[name](sf_dir)
    mine = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    con = duckdb.connect()
    for t in ("documents", "embeddings", "events"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    ref = con.execute(entry_mod.oracle_sql()[name]).fetchdf()
    mine = mine[sorted(mine.columns)].reset_index(drop=True)
    ref = ref[sorted(ref.columns)].reset_index(drop=True)
    assert mine.shape == ref.shape, (name, mine.shape, ref.shape)
    assert mine.equals(ref), (
        f"{name} differs\nmine:\n{mine.head(20)}\nref:\n{ref.head(20)}"
    )


NEW_OPS = ["dsir_weights", "centroid_outliers", "winnow_fingerprints",
           "heavy_hitters", "zorder_layout", "semantic_dedup",
           "hard_negatives", "balanced_shards",
           # round-4 cadence/quality family: document frequency, blocklist
           # audit, char entropy, inter-event gaps, label dispersion —
           # fuzz hits empty/1-token docs, zero vectors, duplicate
           # embeddings (dispersion ties), same-ts events (gap ties)
           "doc_frequency", "blocklist_filter", "char_entropy",
           "inter_event_gaps", "label_dispersion",
           # CDC dedup: fuzz hits empty docs (0 chunks), 1-2 char docs
           # (no full window -> single chunk), duplicated short texts
           "cdc_chunk_stats",
           # scalar-quantized ANN: fuzz hits duplicate vectors (qdot ties
           # -> neighbor_id tie-break) and the zero vector (all-zero codes)
           "sq_topk",
           # PMI collocations: fuzz hits empty/1-token docs (no bigrams)
           # and duplicated texts (ratio ties -> (w1, w2) tie-break)
           "pmi_bigrams",
           # per-source percentiles: fuzz hits singleton sources (pct 0)
           # and token-count ties (doc_id tie-break)
           "quality_percentiles",
           # budgeted epochs: fuzz hits zero-token sources (epochs 0) and
           # tiny sources that hit the 4-epoch cap
           "token_budget_epochs",
           # range layout: fuzz hits duplicate n_chars straddling shard
           # boundaries (doc_id tie-break) and N < n_shards corpora
           "range_layout",
           # vocab curve: fuzz hits sizes > |vocab| and count ties
           "vocab_coverage",
           # buckets: fuzz hits empty docs (bucket 0), 1-token docs and
           # exact-power-of-two token counts (zero padding)
           "length_buckets",
           # hopping windows: fuzz hits same-hour event pileups and types
           # absent from whole windows
           "events_hopping",
           # interleaved budget: fuzz hits empty docs (0 text tokens; the
           # patch term still counts) through the REAL PNG decode
           "multimodal_token_budget",
           # two-stage rerank: fuzz hits duplicate vectors (cosine ties)
           # and the zero vector (cosine pinned to -1 both sides)
           "sq_rerank_topk",
           # persisted sidecar probe: full build+probe per fuzz table,
           # same tie/zero-vector cases as sq_topk through the parquet
           # round trip (session cache keyed by dir — unique per tmp_path)
           "sq_persisted_topk",
           # calibrated filter: fuzz hits singleton sources (pct 0 ->
           # all-cut -> NULL min_kept_tokens)
           "calibrated_length_filter",
           # prefix clusters: fuzz hits empty docs (excluded), short docs
           # (< 8 tokens use the full stream) and duplicated texts
           "prefix_clusters",
           # domain cap: fuzz hits sources smaller than the cap (all kept)
           "source_cap_sample",
           # fuzzy join: fuzz hits duplicated texts (dist 0), singleton
           # buckets (no pairs) and prefix truncation mid-word
           "fuzzy_prefix_pairs",
           # watermark audit: fuzz hits same-ts arrivals (ts == wm is NOT
           # late) and single-event users (no watermark)
           "events_watermark_late",
           # thresholds: fuzz hits singleton sources (one value at every
           # percentile) and token-count ties at the rank cut
           "percentile_thresholds",
           # churn: fuzz hits the most-recent user (days_idle 0, excluded)
           # and sub-day idle gaps (whole-day floor division)
           "churned_users",
           # leakage: fuzz hits gram-free docs and splits with no grams
           # (zero shared counts via coalesce on both sides)
           "split_leakage_audit",
           # grouping-sets cube: fuzz hits hours with single types and the
           # GROUPING bitmask disambiguation of sentinel keys
           "events_cube",
           # OLS trend: fuzz hits single-day types (NULL slope), negative
           # numerators (trunc-toward-zero division) and sparse days
           "event_rate_trends",
           # PPS-systematic sample: fuzz hits zero-length docs (empty
           # interval, never drawn) and stride-1 tiny corpora
           "systematic_sample",
           # row-format roundtrips: fuzz hits empty-string texts (CSV
           # empty-field round trip) through the real sink+source
           "csv_roundtrip", "jsonl_roundtrip",
           # local clustering: fuzz hits degree-1 hosts (NULL cc) and
           # triangle-free neighborhoods (cc 0)
           "clustering_coefficients",
           # k-anonymity: fuzz hits singleton quasi-identifier groups
           "k_anonymity_audit",
           # assortativity: fuzz hits negative correlations (truncating
           # division) and near-regular subgraphs
           "degree_assortativity",
           # scan planning: fuzz hits all-pruned corpora (every doc below
           # the cut) and the boundary bucket's residual filter
           "partition_prune_certificate",
           # view maintenance: fuzz hits types present only in the delta
           # partition (new key folded into the stored view)
           "incremental_agg_maintenance",
           # growth accounting: fuzz hits all-users-arrive-day-one and
           # single-event users
           "new_users_daily",
           # compaction: fuzz hits corpora smaller than the fragment
           # count (empty fragments)
           "compaction_certificate",
           # schema drift: fuzz hits all-even / all-odd doc_id corpora
           # (one generation empty)
           "schema_evolution_certificate",
           # time travel: fuzz hits langs present only in the appended
           # generation (v1 count 0)
           "time_travel_certificate",
           # moments: fuzz hits singleton sources (variance 0) and
           # constant-length sources
           "source_length_moments",
           # streaming split: fuzz hits single-block corpora (one rank
           # gets everything, others drain empty)
           "streaming_split_certificate",
           # confusion matrix: fuzz hits 'und' predictions (empty docs)
           # against every stored label
           "langid_confusion",
           # federation: fuzz hits empty shards (a format with no rows
           # writes nothing) and empty-string texts through CSV
           "federated_union_certificate",
           # cluster sizes: fuzz hits pair-free corpora (all singletons)
           # and empty-doc clusters (jaccard 1.0 between empties)
           "minhash_cluster_sizes",
           # path mining: fuzz hits users with <3 events (no trigram) and
           # count ties at the top-k cut (t1,t2,t3 tie-break)
           "event_trigrams",
           # release diff: fuzz hits sources whose docs are all-added
           # (%7) and the %35 overlap (added wins over changed)
           "corpus_diff",
           # gram: fuzz hits the zero vector (all-zero codes) and
           # duplicate vectors; dimension-adaptive oracle (d=8 here)
           "embedding_gram"]

# established operators fuzzed over the same randomized tables — degenerate
# inputs (empty docs, 1-token docs, tiny groups, duplicate embeddings) the
# fixed testdata cannot exhibit
BROAD_OPS = [
    "token_counts", "fingerprints", "exact_dedup", "word_counts",
    "langid", "quality", "normalize_text", "split_assign", "corpus_shuffle",
    "repetition_stats", "inverted_index", "length_filter", "pack_sequences",
    "quality_gate", "pipeline_certificate", "vocab_overlap", "quality_tiers", "doc_typicality", "bpe_first_merges", "hashed_features",
    "delta_dedup", "pii_scrub", "doc_chunks", "stratified_sample",
    "sample_docs", "top_docs", "top_docs_per_source", "doc_stats",
    "ngram_dedup", "simhash_dedup", "dup_ngram_stats", "dup_span_coverage",
    "cooccurrence_pairs",
    "delta_neardup",
    "link_graph", "pagerank_hosts", "host_components", "host_profiles",
    "random_walks", "triangle_count", "edge_negatives",
    "tfidf_top_terms", "decontaminate",
    "embedding_neardup", "label_centroids", "knn_bruteforce",
    "events_hourly", "events_sessions", "events_value_buckets",
    "events_quantiles", "events_user_counts", "events_pivot",
    "conversion_funnel", "latest_event_per_user", "attribution_last_touch",
    "retention_cohorts", "user_rfm", "data_card", "search_topk",
    "vocab_encode", "host_quality", "dedup_rate_by_source",
    "events_rolling",
    "events_json_stats",
    "event_transitions", "bigram_typicality", "source_diversity",
    "events_outliers", "events_dau_wau", "skipgram_pairs",
    "sentence_dedup", "mixture_weights", "attribution_linear",
    "cross_source_contamination",
    # round-5 corpus-statistics family: fuzz hits empty docs (no tokens),
    # singleton frequencies (N_1 mass), docs with < 8 tokens (absent from
    # gram_novelty), duplicated texts (novelty owned by min doc_id) and
    # single-event users (gini over near-uniform counts)
    "count_of_counts", "gram_novelty", "key_skew_audit",
    # round-5 sampling + projection: fuzz hits n_chars=0 docs (weight 1)
    # and fewer docs than k; single-type users (no pairs) and users
    # touching every type (full-mask histogram bucket)
    "weighted_sample", "event_type_affinity",
    # round-5 growth + grouped top-k: fuzz hits bigram-free (0/1-token)
    # docs, all-types-in-bucket-0 corpora, langs with < k bigrams and
    # count ties at the rank-k cut (bigram ASC tie-break)
    "vocab_growth", "top_bigrams_per_lang",
    # round-5 robust outliers: fuzz hits even/odd counts at the lower-
    # median rank, MAD 0 (constant values -> any deviation is an
    # outlier) and cents HALF-UP rounding ties
    "events_mad_outliers",
    # round-5 drift audit: fuzz hits sources entirely in one half
    # (zero-count ppm 0) and empty docs (0 tokens)
    "source_drift_audit",
    # round-5 seasonality: fuzz hits hours/dows with zero events
    # (absent rows) and ISO Monday=1 numbering at week boundaries
    "events_dow_hour_profile",
    # round-5 burst: fuzz hits same-ts pileups (RANGE peers all count),
    # windows crossing the day halo, and single-event types (burst 1)
    "events_burst_detection",
    # round-5 anomalies + breadth: fuzz hits gap days (zero baseline ->
    # any activity is a spike), types with < 8 days of history (skipped)
    # and single-type users (k=1 bucket)
    "events_daily_anomalies", "user_type_breadth",
    # round-5 sampling QA: fuzz hits langs fully out of the sample
    # (share 0) and tiny strata (ppm rounding at small denominators)
    "sample_bias_audit",
    # round-5 windowed funnel: fuzz hits purchases BEFORE the first
    # signup (excluded by the strict-after test), exactly-at-deadline
    # conversions (inclusive) and signup-free corpora (rate 0)
    "conversion_funnel_windowed",
]


@pytest.mark.parametrize("seed", [7, 23, 99])
@pytest.mark.parametrize("name", NEW_OPS)
def test_differential_random_tables(tmp_path, ray_session, seed, name):
    rng = np.random.RandomState(seed)
    pq.write_table(_rand_documents(rng, 12), str(tmp_path / "documents.parquet"))
    pq.write_table(_rand_embeddings(rng, 10), str(tmp_path / "embeddings.parquet"))
    pq.write_table(_rand_events(rng, 40), str(tmp_path / "events.parquet"))
    _compare(_entry(), name, str(tmp_path))


@pytest.mark.parametrize("seed", [13])
@pytest.mark.parametrize("name", BROAD_OPS)
def test_differential_broad(tmp_path, ray_session, seed, name):
    rng = np.random.RandomState(seed)
    pq.write_table(_rand_documents(rng, 12), str(tmp_path / "documents.parquet"))
    pq.write_table(_rand_embeddings(rng, 10), str(tmp_path / "embeddings.parquet"))
    pq.write_table(_rand_events(rng, 40), str(tmp_path / "events.parquet"))
    _compare(_entry(), name, str(tmp_path))


def test_heavy_hitters_bigram_free_corpus(tmp_path, ray_session):
    # every doc has < 2 tokens: candidate set is EMPTY end to end
    pq.write_table(pa.table(
        {"doc_id": pa.array([0, 1, 2], pa.int64()),
         "text": pa.array(["", "spark", ""], pa.string()),
         "lang": pa.array(["en"] * 3, pa.string()),
         "source": pa.array(["s0"] * 3, pa.string()),
         "n_chars": pa.array([0, 5, 0], pa.int64())}
    ), str(tmp_path / "documents.parquet"))
    from swift_readability_ray.pipelines.training_data import heavy_hitters

    out = heavy_hitters(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema.names == ["bigram", "n"]


def _single_row_tables(tmp_path):
    pq.write_table(pa.table(
        {"doc_id": pa.array([0], pa.int64()),
         "text": pa.array(["one two three four five six seven"]),
         "lang": pa.array(["en"]), "source": pa.array(["s0"]),
         "n_chars": pa.array([30], pa.int64())}),
        str(tmp_path / "documents.parquet"))
    pq.write_table(pa.table(
        {"vec_id": pa.array([0], pa.int64()),
         "embedding": pa.array([list(range(8))],
                               pa.list_(pa.float32())),
         "label": pa.array([0], pa.int32())}),
        str(tmp_path / "embeddings.parquet"))
    pq.write_table(pa.table(
        {"event_id": pa.array([0], pa.int64()),
         "ts": pa.array([1_700_000_000_000_000], pa.timestamp("us")),
         "user_id": pa.array([0], pa.int64()),
         "event_type": pa.array(["signup"]),
         "value": pa.array([0.5], pa.float64()),
         "props": pa.array(['{"k": 1}'])}),
        str(tmp_path / "events.parquet"))


def test_differential_single_row_tables(tmp_path, ray_session):
    # regression for the round-4 adversarial sweep: single-row inputs used
    # to crash sample_docs/dup_ngram_stats/dup_span_coverage (empty concat)
    # and embedding_neardup (schema-less empty block after repartition),
    # and events_pivot's discovered vocabulary diverged from its static
    # oracle (now fixed: canonical vocabulary by default, discovery via
    # types=()).
    _single_row_tables(tmp_path)
    m = _entry()
    for name in NEW_OPS + BROAD_OPS:
        _compare(m, name, str(tmp_path))


def test_events_pivot_discovery_mode(tmp_path, ray_session):
    # types=() discovers the vocabulary; on data containing all canonical
    # types the discovered pivot equals the fixed-vocabulary default
    from swift_readability_ray.pipelines.training_data import events_pivot

    rng = np.random.RandomState(3)
    pq.write_table(_rand_events(rng, 60), str(tmp_path / "events.parquet"))
    fixed = events_pivot(str(tmp_path))
    disc = events_pivot(str(tmp_path), types=())
    assert fixed.equals(disc)


def _rand_tpch(rng: np.random.RandomState, tmp_path, n_cust=8, n_ord=20, n_li=40):
    base_us = 1_500_000_000_000_000
    cust_keys = np.arange(1, n_cust + 1, dtype=np.int64)
    pq.write_table(pa.table(
        {"c_custkey": pa.array(cust_keys, pa.int64()),
         "c_name": pa.array(["Customer#%d" % k for k in cust_keys]),
         "c_nationkey": pa.array(rng.randint(0, 5, n_cust), pa.int32()),
         "c_acctbal": pa.array(np.round(rng.rand(n_cust) * 1000, 2),
                               pa.float64()),
         "c_mktsegment": pa.array(rng.choice(
             ["BUILDING", "AUTOMOBILE", "MACHINERY"], n_cust).tolist())}),
        str(tmp_path / "customer.parquet"))
    ord_keys = np.arange(1, n_ord + 1, dtype=np.int64)
    # skew custkeys so some customers have NO orders (anti-join edge)
    o_cust = rng.randint(1, max(n_cust // 2, 2) + 1, n_ord).astype(np.int64)
    # straddle q3's o_orderdate < 1998-01-01 cutoff so the fuzz CUTS
    # (the old 2017 base made the q3 comparison empty-vs-empty)
    # 0..1400d spans 1996-2000: q3's 1998 cutoff, q4/q5's 1996 window AND
    # q22's since-2000 dormancy predicate all cut
    o_base = int(np.datetime64("1996-06-01", "us").astype(np.int64))
    odate = o_base + rng.randint(0, 1400, n_ord).astype(np.int64) * 86_400_000_000
    pq.write_table(pa.table(
        {"o_orderkey": pa.array(ord_keys, pa.int64()),
         "o_custkey": pa.array(o_cust, pa.int64()),
         "o_orderstatus": pa.array(rng.choice(["O", "F"], n_ord).tolist()),
         "o_totalprice": pa.array(np.round(rng.rand(n_ord) * 9999, 2),
                                  pa.float64()),
         "o_orderdate": pa.array(odate, pa.timestamp("us")),
         "o_orderpriority": pa.array(rng.choice(
             ["1-URGENT", "2-HIGH", "3-MEDIUM"], n_ord).tolist())}),
        str(tmp_path / "orders.parquet"))
    pk = np.arange(1, 51, dtype=np.int64)
    pq.write_table(pa.table(
        {"p_partkey": pa.array(pk, pa.int64()),
         "p_name": pa.array(["part%d" % k for k in pk], pa.string()),
         "p_brand": pa.array(["Brand#%d" % (k % 5) for k in pk],
                             pa.string()),
         "p_type": pa.array(rng.choice(
             ["PROMO", "STANDARD", "ECONOMY"], 50).tolist(), pa.string()),
         "p_size": pa.array(rng.randint(1, 50, 50), pa.int32()),
         "p_retailprice": pa.array(np.round(rng.rand(50) * 2000, 2),
                                   pa.float64())}),
        str(tmp_path / "part.parquet"))
    l_ord = rng.randint(1, n_ord + 1, n_li).astype(np.int64)
    q14_base = int(np.datetime64("1995-06-01", "us").astype(np.int64))
    # 0..1400d spans 1995-1999: q14's 1996 band AND q3's shipdate >
    # 1998-01-01 predicate both cut
    sdate = q14_base + rng.randint(0, 1400, n_li).astype(np.int64) * 86_400_000_000
    pq.write_table(pa.table(
        {"l_orderkey": pa.array(l_ord, pa.int64()),
         # 1..60 so some partkeys MISS the 1..50 part table (q14's
         # inner-join exclusion branch gets real coverage)
         "l_partkey": pa.array(rng.randint(1, 61, n_li), pa.int64()),
         "l_suppkey": pa.array(rng.randint(1, 10, n_li), pa.int64()),
         "l_linenumber": pa.array(rng.randint(1, 7, n_li), pa.int32()),
         "l_quantity": pa.array(rng.randint(1, 50, n_li).astype(float),
                                pa.float64()),
         "l_extendedprice": pa.array(np.round(rng.rand(n_li) * 5000, 2),
                                     pa.float64()),
         "l_discount": pa.array(np.round(rng.rand(n_li) * 0.1, 2),
                                pa.float64()),
         "l_tax": pa.array(np.round(rng.rand(n_li) * 0.08, 2), pa.float64()),
         "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_li).tolist()),
         "l_linestatus": pa.array(rng.choice(["O", "F"], n_li).tolist()),
         "l_shipdate": pa.array(sdate, pa.timestamp("us"))}),
        str(tmp_path / "lineitem.parquet"))


def _rand_tpch_full(rng: np.random.RandomState, tmp_path, **kw):
    """_rand_tpch plus the region/nation/supplier catalog dims, with the
    NATION_x / Brand#x naming the q7/q17/q19 defaults target.  A couple
    of supplier and customer nationkeys are pinned to nations 1 and 2 so
    q7's cross-nation pair ALWAYS cuts regardless of seed."""
    _rand_tpch(rng, tmp_path, **kw)
    pq.write_table(pa.table(
        {"r_regionkey": pa.array(range(5), pa.int64()),
         "r_name": pa.array(["AFRICA", "AMERICA", "ASIA", "EUROPE",
                             "MIDDLE EAST"])}),
        str(tmp_path / "region.parquet"))
    nk = np.arange(25, dtype=np.int64)
    pq.write_table(pa.table(
        {"n_nationkey": pa.array(nk, pa.int64()),
         "n_name": pa.array(["NATION_%d" % k for k in nk]),
         "n_regionkey": pa.array(nk % 5, pa.int64())}),
        str(tmp_path / "nation.parquet"))
    n_sup = 9  # lineitem draws l_suppkey from 1..9
    sk = np.arange(1, n_sup + 1, dtype=np.int64)
    s_nat = rng.randint(0, 25, n_sup).astype(np.int64)
    s_nat[0], s_nat[1] = 1, 2
    # one supplier with a nationkey MISSING from the nation catalog — the
    # supplier→nation inner joins (q7/q8/q9/q11) must drop its lines
    s_nat[-1] = 77
    pq.write_table(pa.table(
        {"s_suppkey": pa.array(sk, pa.int64()),
         "s_name": pa.array(["Supplier#%d" % k for k in sk]),
         "s_nationkey": pa.array(s_nat, pa.int64()),
         "s_acctbal": pa.array(np.round(rng.rand(n_sup) * 5000, 2),
                               pa.float64())}),
        str(tmp_path / "supplier.parquet"))
    # color-word part names so q9's '%red%' name filter cuts
    pt = pq.read_table(str(tmp_path / "part.parquet"))
    pkeys = pt.column("p_partkey").to_pylist()
    colors = ["red", "blue", "green", "plain", "shiny"]
    pt = pt.set_column(
        pt.schema.get_field_index("p_name"), "p_name",
        pa.array(["%s part%d" % (colors[k % 5], k) for k in pkeys],
                 pa.string()))
    pq.write_table(pt, str(tmp_path / "part.parquet"))
    # re-pin two customers into nations 1/2 so the q7 customer side cuts
    ct = pq.read_table(str(tmp_path / "customer.parquet"))
    cn = ct.column("c_nationkey").to_numpy().copy()
    if len(cn) >= 2:
        cn[0], cn[1] = 1, 2
    ct = ct.set_column(ct.schema.get_field_index("c_nationkey"),
                       "c_nationkey", pa.array(cn, ct.schema.field(
                           "c_nationkey").type))
    pq.write_table(ct, str(tmp_path / "customer.parquet"))


def _compare_tpch(entry_mod, name: str, sf_dir: str):
    import duckdb

    import pandas as pd

    res = entry_mod.queries()[name](sf_dir)
    mine = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    con = duckdb.connect()
    import os

    for t in ("customer", "orders", "lineitem", "part", "supplier",
              "nation", "region"):
        if os.path.exists(f"{sf_dir}/{t}.parquet"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')"
            )
    ref = con.execute(entry_mod.oracle_sql()[name]).fetchdf()
    mine = mine[sorted(mine.columns)].reset_index(drop=True)
    ref = ref[sorted(ref.columns)].reset_index(drop=True)
    assert mine.shape == ref.shape, (name, mine.shape, ref.shape)
    assert mine.equals(ref), (
        f"{name} differs\nmine:\n{mine.head(20)}\nref:\n{ref.head(20)}"
    )


JOIN_OPS = ["lineitem_agg", "orders_by_segment", "q3_top_orders",
            "customers_without_orders", "q14_promo_revenue",
            "q6_forecast_revenue", "q4_priority_anomalies",
            "q18_large_orders", "q13_order_distribution",
            "q10_returned_revenue", "orders_monthly",
            "q16_part_suppliers",
            # round-5 latency histogram: fuzz hits lineitems without
            # orders (inner join drops), shipped-before-order negative
            # weeks (floor vs trunc division) and exact week boundaries
            "ship_latency_histogram",
            # round-5 backlog: fuzz hits orders with no lineitems (never
            # open), completion clamped to the order month, and multiple
            # orders opening/closing in the same month (net-zero deltas)
            "order_backlog_monthly",
            # round-5 catalog + estimator: fuzz hits duplicate orderkeys
            # on the fact side (estimate underestimates skew), cents
            # rounding ties, and single-value columns (ndv 1)
            "lineitem_column_stats", "join_cardinality_audit"]


@pytest.mark.parametrize("seed", [19, 43])
@pytest.mark.parametrize("name", JOIN_OPS)
def test_differential_tpch_joins(tmp_path, ray_session, seed, name):
    # randomized dimension/fact tables: customers without orders, orders
    # without lineitems, duplicate keys, date-cutoff edges
    _rand_tpch(np.random.RandomState(seed), tmp_path)
    _compare_tpch(_entry(), name, str(tmp_path))


# shapes needing the full region/nation/supplier catalog (q7/q15) or the
# Brand#x naming (q17/q19); q22 rides along for the 1400-day order span
FULL_OPS = ["q7_nation_volume", "q15_top_supplier",
            "q17_small_qty_revenue", "q19_disjunctive_revenue",
            "q22_sales_opportunity", "q8_market_share",
            "q9_product_profit", "q11_important_parts",
            "q12_late_shipment_priority", "q21_waiting_suppliers",
            "q2_min_acctbal_supplier", "q20_dominant_suppliers",
            # the planted missing-nationkey supplier makes
            # supplier.nationkey->nation report a REAL orphan here
            "fk_integrity_audit"]


@pytest.mark.parametrize("seed", [19, 43])
@pytest.mark.parametrize("name", FULL_OPS)
def test_differential_tpch_full_dims(tmp_path, ray_session, seed, name):
    _rand_tpch_full(np.random.RandomState(seed), tmp_path)
    _compare_tpch(_entry(), name, str(tmp_path))


@pytest.mark.parametrize("seed", [19])
def test_q7_q15_q22_forced_distributed(tmp_path, ray_session, seed):
    # distributed hash-join / groupby siblings pinned equal to the
    # broadcast paths on randomized full-dim tables
    rng = np.random.RandomState(seed)
    _rand_tpch_full(rng, tmp_path, n_cust=8, n_ord=40, n_li=120)
    from swift_readability_ray.pipelines import training_data as TD

    a7 = TD.q7_nation_volume(str(tmp_path))
    d7 = _forced(TD.q7_nation_volume, str(tmp_path))
    assert a7.num_rows > 0
    assert a7.equals(d7)
    a15 = TD.q15_top_supplier(str(tmp_path))
    d15 = _forced(TD.q15_top_supplier, str(tmp_path))
    assert a15.num_rows > 0
    assert a15.equals(d15)
    a22 = TD.q22_sales_opportunity(str(tmp_path))
    d22 = _forced(TD.q22_sales_opportunity, str(tmp_path))
    assert a22.equals(d22)


@pytest.mark.parametrize("seed", [19])
def test_q8_q9_q12_forced_distributed(tmp_path, ray_session, seed):
    # the round-4 join siblings pinned equal to the broadcast paths
    rng = np.random.RandomState(seed)
    _rand_tpch_full(rng, tmp_path, n_cust=8, n_ord=40, n_li=160)
    from swift_readability_ray.pipelines import training_data as TD

    a8 = TD.q8_market_share(str(tmp_path))
    d8 = _forced(TD.q8_market_share, str(tmp_path))
    assert a8.num_rows > 0
    assert a8.equals(d8)
    a9 = TD.q9_product_profit(str(tmp_path))
    d9 = _forced(TD.q9_product_profit, str(tmp_path))
    assert a9.num_rows > 0
    assert a9.equals(d9)
    a12 = TD.q12_late_shipment_priority(str(tmp_path))
    d12 = _forced(TD.q12_late_shipment_priority, str(tmp_path))
    assert a12.num_rows > 0
    assert a12.equals(d12)


@pytest.mark.parametrize("seed", [19])
def test_q11_q21_forced_distributed(tmp_path, ray_session, seed):
    # q11's native groupby-Sum sibling and q21's full distributed chain
    # (composite groupby pairs → per-order map → sole-laggard groupby)
    # pinned equal to the driver paths
    rng = np.random.RandomState(seed)
    _rand_tpch_full(rng, tmp_path, n_cust=8, n_ord=40, n_li=160)
    from swift_readability_ray.pipelines import training_data as TD

    a11 = TD.q11_important_parts(str(tmp_path))
    d11 = _forced(TD.q11_important_parts, str(tmp_path))
    assert a11.num_rows > 0
    assert a11.equals(d11)
    a21 = TD.q21_waiting_suppliers(str(tmp_path))
    # forcing the pair gate alone runs the groupby + broadcast
    # (omax, nsupp) chain behind the broadcast F-key filter
    d21 = _forced(TD.q21_waiting_suppliers, str(tmp_path),
                  gates=("q21_waiting_suppliers.pairs",))
    assert a21.num_rows > 0
    assert a21.equals(d21)
    # forcing every gate adds the P×M hash-join branch and the
    # distributed F-key semi-join
    j21 = _forced(TD.q21_waiting_suppliers, str(tmp_path))
    assert a21.equals(j21)


@pytest.mark.parametrize("seed", [19])
def test_q2_q20_forced_distributed(tmp_path, ray_session, seed):
    # the two-key-groupby siblings (pair collapse above the lineitem
    # gate) pinned equal to the driver lexsort/reduceat tails
    rng = np.random.RandomState(seed)
    _rand_tpch_full(rng, tmp_path, n_cust=8, n_ord=40, n_li=160)
    from swift_readability_ray.pipelines import training_data as TD

    a2 = TD.q2_min_acctbal_supplier(str(tmp_path))
    d2 = _forced(TD.q2_min_acctbal_supplier, str(tmp_path))
    assert a2.num_rows > 0
    assert a2.equals(d2)
    a20 = TD.q20_dominant_suppliers(str(tmp_path))
    d20 = _forced(TD.q20_dominant_suppliers, str(tmp_path))
    assert a20.num_rows > 0
    assert a20.equals(d20)


@pytest.mark.parametrize("seed", [7])
def test_attribution_linear_forced_distributed(tmp_path, ray_session, seed):
    # user-keyed map_groups sibling pinned equal to the driver lexsort
    rng = np.random.RandomState(seed)
    pq.write_table(_rand_events(rng, 60), str(tmp_path / "events.parquet"))
    from swift_readability_ray.pipelines import training_data as TD

    a = TD.attribution_linear(str(tmp_path))
    d = _forced(TD.attribution_linear, str(tmp_path))
    assert a.num_rows > 0
    assert a.equals(d)


@pytest.mark.parametrize("seed", [7, 23])
def test_sentence_dedup_forced_distributed(tmp_path, ray_session, seed):
    # the 2-shuffle distributed rebuild (groupby-Min winners + key join +
    # per-doc map_groups) pinned equal to the broadcast-winner path on
    # randomized docs incl. empty texts and cross-doc duplicate chunks
    rng = np.random.RandomState(seed)
    pq.write_table(_rand_documents(rng, 14),
                   str(tmp_path / "documents.parquet"))
    from swift_readability_ray.pipelines import training_data as TD

    a = TD.sentence_dedup(str(tmp_path))
    d = _forced(TD.sentence_dedup, str(tmp_path))
    assert a.num_rows == 14
    # the filter must CUT on this corpus, not pass everything through
    assert (sum(a.column("n_kept").to_pylist())
            < sum(a.column("n_sents").to_pylist()))
    assert a.equals(d)


@pytest.mark.parametrize("seed", [19])
def test_q4_q18_forced_distributed(tmp_path, ray_session, seed):
    # the distributed join paths (above the broadcast gates) pinned equal
    # to the broadcast paths on randomized tables — lower q18's threshold
    # so survivors actually exist at this table size
    rng = np.random.RandomState(seed)
    _rand_tpch(rng, tmp_path, n_cust=8, n_ord=20, n_li=120)
    from swift_readability_ray.pipelines import training_data as TD

    a4 = TD.q4_priority_anomalies(str(tmp_path))
    d4 = _forced(TD.q4_priority_anomalies, str(tmp_path))
    assert a4.equals(d4)
    a18 = TD.q18_large_orders(str(tmp_path), qty_threshold=60.0)
    d18 = _forced(TD.q18_large_orders, str(tmp_path), qty_threshold=60.0)
    assert a18.num_rows > 0
    assert a18.equals(d18)


@pytest.mark.parametrize("seed", [19])
def test_q13_q10_forced_distributed(tmp_path, ray_session, seed):
    # the hash-join siblings (above the broadcast gates) pinned equal to
    # the broadcast-membership paths on randomized tables
    rng = np.random.RandomState(seed)
    _rand_tpch(rng, tmp_path, n_cust=8, n_ord=20, n_li=120)
    from swift_readability_ray.pipelines import training_data as TD

    a13 = TD.q13_order_distribution(str(tmp_path))
    d13 = _forced(TD.q13_order_distribution, str(tmp_path))
    assert a13.num_rows > 0
    assert a13.equals(d13)
    a10 = TD.q10_returned_revenue(str(tmp_path))
    d10 = _forced(TD.q10_returned_revenue, str(tmp_path))
    assert a10.num_rows > 0
    assert a10.equals(d10)
    a16 = TD.q16_part_suppliers(str(tmp_path))
    d16 = _forced(TD.q16_part_suppliers, str(tmp_path))
    assert a16.num_rows > 0
    assert a16.equals(d16)


def test_event_transitions_bigram_distributed_siblings(tmp_path, ray_session):
    # driver-gate paths == distributed paths (groupby map_groups for the
    # transition counts; distributed vocab groupby for the bigram scorer)
    rng = np.random.RandomState(11)
    pq.write_table(_rand_documents(rng, 12), str(tmp_path / "documents.parquet"))
    pq.write_table(_rand_events(rng, 60), str(tmp_path / "events.parquet"))
    from swift_readability_ray.pipelines import training_data as TD

    drv = TD.event_transitions(str(tmp_path))
    dist = _forced(TD.event_transitions, str(tmp_path))
    assert drv.num_rows > 0
    assert drv.equals(dist)
    bd = TD.bigram_typicality(str(tmp_path))
    bb = _forced(TD.bigram_typicality, str(tmp_path))
    assert bd.equals(bb)
    sd = TD.source_diversity(str(tmp_path))
    sdd = _forced(TD.source_diversity, str(tmp_path))
    assert sd.equals(sdd)
    wd = TD.events_dau_wau(str(tmp_path))
    wdd = _forced(TD.events_dau_wau, str(tmp_path))
    assert wd.num_rows > 0
    assert wd.equals(wdd)


# extraction / multimodal / ANN / sink families — heavier per call, so one
# seed; payloads are synthesized from the random doc text inside each op
HEAVY_OPS = [
    "span_stats", "extract_metadata", "readerable_flags", "readerable_filter",
    "extract_certificate", "media_features", "audio_features", "media_resize",
    "video_frames", "pdf_extract", "events_asof_rates", "events_range_join",
    "sink_roundtrip", "minhash_dedup", "minhash_dedup_docs",
    "neardup_keep_best", "media_dedup",
    "embedding_neardup_lsh", "ivf_topk_full", "ann_persisted_topk_full",
    "ann_append_topk_full", "knn_label_vote",
    # round-4 additions: line-level boilerplate mining (fuzz hits empty
    # docs / single-line docs / duplicated lines) and PPJoin containment
    # (fuzz hits zero-shingle docs and exact-threshold ratios)
    "boilerplate_lines", "containment_pairs",
    # round-5 ORDER certificate: fuzz hits empty docs (single-para body
    # fallback, ttmt) and exact-40-word paragraph boundaries through
    # the REAL span pipeline
    "span_order_certificate",
    # round-5 cluster provenance: fuzz hits pure single-source clusters
    # (ppm 1e6), even splits (majority tie — max(n) is well-defined) and
    # pair-free corpora (empty report)
    "dedup_cluster_purity",
    # round-5 threshold curve: fuzz hits pair-free corpora (all-zero
    # rows survive via the fixed five-threshold spine), empty-empty doc
    # pairs (jaccard 1.0) and exact-threshold ppm boundaries
    "neardup_threshold_curve",
]


@pytest.mark.parametrize("name", HEAVY_OPS)
def test_differential_heavy(tmp_path, ray_session, name):
    rng = np.random.RandomState(77)
    pq.write_table(_rand_documents(rng, 12), str(tmp_path / "documents.parquet"))
    pq.write_table(_rand_embeddings(rng, 10), str(tmp_path / "embeddings.parquet"))
    pq.write_table(_rand_events(rng, 40), str(tmp_path / "events.parquet"))
    _compare(_entry(), name, str(tmp_path))


def test_neardup_keep_best_forced_distributed(tmp_path, ray_session):
    # label propagation path == driver union-find path for keep-best
    rng = np.random.RandomState(5)
    docs = _rand_documents(rng, 12)
    # force near-dup clusters: make docs 4/5 copies of doc 2 with a twist
    texts = docs.column("text").to_pylist()
    texts[4] = texts[2]
    texts[5] = texts[2] + " extra tail token"
    docs = docs.set_column(1, "text", pa.array(texts, pa.string()))
    docs = docs.set_column(
        4, "n_chars", pa.array([len(t) for t in texts], pa.int64()))
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    from swift_readability_ray.pipelines import training_data as TD

    drv = TD.neardup_keep_best(str(tmp_path))
    dist = _forced(TD.neardup_keep_best, str(tmp_path))
    assert drv.equals(dist)
    # each kept doc is the longest of its cluster; cluster sizes sum to n
    assert sum(drv.column("cluster_size").to_pylist()) == docs.num_rows


GRAPH_OPS = ["link_graph", "pagerank_hosts", "hits_hosts", "host_components",
             "host_profiles", "random_walks", "attribution_last_touch",
             "media_dedup", "triangle_count", "edge_negatives", "retention_cohorts",
             "cooccurrence_pairs",
             # round-5 symmetry audit: fuzz hits hosts with zero
             # reciprocal edges and fully-mutual pairs (ppm 1e6)
             "host_link_reciprocity",
             # round-5 BFS: fuzz hits unreachable hosts (absent), depth
             # ties via multiple shortest paths, and the 5-round cap
             "host_bfs_depths"]


@pytest.mark.parametrize("seed", [3, 31, 77])
def test_differential_graph_family(tmp_path, ray_session, seed):
    # denser corpus (40 docs over 48 hosts) than the broad sweep: multi-
    # node components, hosts with several ranked neighbors, heavier walk
    # branching; plus a bigger event stream for attribution tie cases
    rng = np.random.RandomState(seed)
    pq.write_table(_rand_documents(rng, 40), str(tmp_path / "documents.parquet"))
    pq.write_table(_rand_events(rng, 120), str(tmp_path / "events.parquet"))
    pq.write_table(_rand_embeddings(rng, 10), str(tmp_path / "embeddings.parquet"))
    m = _entry()
    for name in GRAPH_OPS:
        _compare(m, name, str(tmp_path))


def test_money_cents_half_up_ties(tmp_path, ray_session):
    # value*100 landing EXACTLY on .5 (0.125 is representable): engine
    # must round half-up like DuckDB round(), not numpy/pyarrow half-even
    # (code-review round-4 second-continuation finding)
    base = 1_700_000_000_000_000
    pq.write_table(pa.table(
        {"event_id": pa.array(range(4), pa.int64()),
         "ts": pa.array([base + i for i in range(4)], pa.timestamp("us")),
         "user_id": pa.array([0, 0, 1, 1], pa.int64()),
         "event_type": pa.array(["view", "view", "click", "view"]),
         "value": pa.array([0.125, 0.375, 0.625, 0.875], pa.float64()),
         "props": pa.array(["{}"] * 4, pa.string())}),
        str(tmp_path / "events.parquet"))
    rng = np.random.RandomState(0)
    pq.write_table(_rand_documents(rng, 4), str(tmp_path / "documents.parquet"))
    pq.write_table(_rand_embeddings(rng, 4), str(tmp_path / "embeddings.parquet"))
    m = _entry()
    for name in ("events_hourly", "events_value_buckets",
                 "events_quantiles", "events_rolling"):
        _compare(m, name, str(tmp_path))


def _rand_tpch_dims(rng, tmp_path, n_sup=12):
    # region/nation/supplier dims for the 6-table q5 join
    pq.write_table(pa.table(
        {"r_regionkey": pa.array(range(5), pa.int64()),
         "r_name": pa.array(["AFRICA", "AMERICA", "ASIA", "EUROPE",
                             "MIDDLE EAST"], pa.string())}),
        str(tmp_path / "region.parquet"))
    nk = np.arange(25, dtype=np.int64)
    pq.write_table(pa.table(
        {"n_nationkey": pa.array(nk, pa.int64()),
         "n_name": pa.array(["NATION%02d" % k for k in nk], pa.string()),
         "n_regionkey": pa.array(rng.randint(0, 5, 25), pa.int64())}),
        str(tmp_path / "nation.parquet"))
    sk = np.arange(1, n_sup + 1, dtype=np.int64)
    pq.write_table(pa.table(
        {"s_suppkey": pa.array(sk, pa.int64()),
         "s_name": pa.array(["Supplier#%d" % k for k in sk], pa.string()),
         "s_nationkey": pa.array(rng.randint(0, 25, n_sup), pa.int64()),
         "s_acctbal": pa.array(np.round(rng.rand(n_sup) * 999, 2),
                               pa.float64())}),
        str(tmp_path / "supplier.parquet"))


@pytest.mark.parametrize("seed", [29, 67])
def test_differential_q5(tmp_path, ray_session, seed):
    # q5's default date band is 1996: generate orders straddling it so the
    # band filter actually cuts, plus customers whose nationkey spans all
    # 25 nations (the c_nation == s_nation join predicate gets real hits
    # and misses)
    import duckdb
    import pandas as pd

    rng = np.random.RandomState(seed)
    _rand_tpch(rng, tmp_path)
    _rand_tpch_dims(rng, tmp_path)
    # overwrite orders with dates straddling the 1996 band, and customers
    # with the full nation range
    n_ord, n_cust = 200, 8
    base_us = int(np.datetime64("1995-06-01", "us").astype(np.int64))
    odate = base_us + rng.randint(0, 900, n_ord).astype(np.int64) * 86_400_000_000
    pq.write_table(pa.table(
        {"o_orderkey": pa.array(np.arange(1, n_ord + 1), pa.int64()),
         "o_custkey": pa.array(rng.randint(1, n_cust + 1, n_ord), pa.int64()),
         "o_orderstatus": pa.array(rng.choice(["O", "F"], n_ord).tolist()),
         "o_totalprice": pa.array(np.round(rng.rand(n_ord) * 9999, 2),
                                  pa.float64()),
         "o_orderdate": pa.array(odate, pa.timestamp("us")),
         "o_orderpriority": pa.array(rng.choice(
             ["1-URGENT", "2-HIGH"], n_ord).tolist())}),
        str(tmp_path / "orders.parquet"))
    ck = np.arange(1, n_cust + 1, dtype=np.int64)
    pq.write_table(pa.table(
        {"c_custkey": pa.array(ck, pa.int64()),
         "c_name": pa.array(["Customer#%d" % k for k in ck]),
         "c_nationkey": pa.array(rng.randint(0, 25, n_cust), pa.int32()),
         "c_acctbal": pa.array(np.round(rng.rand(n_cust) * 1000, 2),
                               pa.float64()),
         "c_mktsegment": pa.array(["BUILDING"] * n_cust, pa.string())}),
        str(tmp_path / "customer.parquet"))

    # lineitem re-keyed to the wider order range so the filtered-orders
    # join side has enough rows for a real hash shuffle
    n_li = 400
    sdate = base_us + rng.randint(0, 900, n_li).astype(np.int64) * 86_400_000_000
    pq.write_table(pa.table(
        {"l_orderkey": pa.array(rng.randint(1, n_ord + 1, n_li), pa.int64()),
         "l_partkey": pa.array(rng.randint(1, 50, n_li), pa.int64()),
         "l_suppkey": pa.array(rng.randint(1, 13, n_li), pa.int64()),
         "l_linenumber": pa.array(rng.randint(1, 7, n_li), pa.int32()),
         "l_quantity": pa.array(rng.randint(1, 50, n_li).astype(float),
                                pa.float64()),
         "l_extendedprice": pa.array(np.round(rng.rand(n_li) * 5000, 2),
                                     pa.float64()),
         "l_discount": pa.array(np.round(rng.rand(n_li) * 0.1, 2),
                                pa.float64()),
         "l_tax": pa.array(np.round(rng.rand(n_li) * 0.08, 2), pa.float64()),
         "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_li).tolist()),
         "l_linestatus": pa.array(rng.choice(["O", "F"], n_li).tolist()),
         "l_shipdate": pa.array(sdate, pa.timestamp("us"))}),
        str(tmp_path / "lineitem.parquet"))

    m = _entry()
    res = m.queries()["q5_local_supplier_volume"](str(tmp_path))
    mine = res.to_pandas()
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation",
              "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    ref = con.execute(m.oracle_sql()["q5_local_supplier_volume"]).fetchdf()
    mine = mine[sorted(mine.columns)].reset_index(drop=True)
    ref = ref[sorted(ref.columns)].reset_index(drop=True)
    assert mine.equals(ref), (mine, ref)
    # forced-distributed path pinned equal
    from swift_readability_ray.pipelines.training_data import (
        q5_local_supplier_volume,
    )

    dist = _forced(q5_local_supplier_volume, str(tmp_path))
    assert dist.to_pandas()[sorted(mine.columns)].reset_index(
        drop=True).equals(mine)


def test_every_oracled_query_is_fuzzed():
    # meta-guard: a new oracled query must land in SOME differential fuzz
    # surface (BROAD/NEW/HEAVY/GRAPH/JOIN lists or a dedicated test), so
    # oracle parity is never certified by the fixed corpus alone
    DEDICATED = {
        # covered by their own differential tests in this file
        "q5_local_supplier_volume",  # test_differential_q5
        "retention_cohorts",         # GRAPH_OPS + dual-path test
    }
    fuzzed = (set(BROAD_OPS) | set(NEW_OPS) | set(HEAVY_OPS)
              | set(GRAPH_OPS) | set(JOIN_OPS) | set(FULL_OPS) | DEDICATED)
    m = _entry()
    missing = set(m.oracle_sql()) - fuzzed
    assert not missing, f"oracled queries with no fuzz surface: {missing}"


def test_catalog_ops_forced_distributed(tmp_path, ray_session):
    # round-5 catalog ops: forcing their gates runs the distributed
    # groupby/join siblings; both paths must match exactly
    rng = np.random.RandomState(11)
    _rand_tpch(rng, tmp_path)
    from swift_readability_ray.pipelines import training_data as TD

    for fn in (TD.lineitem_column_stats, TD.join_cardinality_audit):
        gate = fn(str(tmp_path))
        forced = _forced(fn, str(tmp_path))
        assert gate.to_pylist() == forced.to_pylist(), fn.__name__


def test_lineitem_column_stats_zero_row_file(tmp_path, ray_session):
    # a 0-row lineitem.parquet: no min/max of an empty block, a typed
    # empty table on both routes, equal to the oracle's empty GROUP BY
    _rand_tpch(np.random.RandomState(19), tmp_path)
    li = pq.read_table(str(tmp_path / "lineitem.parquet"))
    pq.write_table(li.slice(0, 0), str(tmp_path / "lineitem.parquet"))
    from swift_readability_ray.pipelines import training_data as TD

    _compare_tpch(_entry(), "lineitem_column_stats", str(tmp_path))
    gate = TD.lineitem_column_stats(str(tmp_path))
    forced = _forced(TD.lineitem_column_stats, str(tmp_path))
    assert gate.num_rows == 0
    assert gate.equals(forced)


def test_source_drift_audit_without_footer_statistics(tmp_path, ray_session):
    # a documents file written without column statistics splits at the
    # true doc_id midpoint, not at 0 (which put every doc in "late")
    rng = np.random.RandomState(5)
    docs = _rand_documents(rng, 20)
    docs = docs.set_column(0, "doc_id", pa.array(range(100, 120), pa.int64()))
    pq.write_table(docs, str(tmp_path / "documents.parquet"),
                   write_statistics=False)
    pq.write_table(_rand_embeddings(rng, 8),
                   str(tmp_path / "embeddings.parquet"))
    pq.write_table(_rand_events(rng, 8), str(tmp_path / "events.parquet"))
    md = pq.read_metadata(str(tmp_path / "documents.parquet"))
    assert md.row_group(0).column(0).statistics is None
    _compare(_entry(), "source_drift_audit", str(tmp_path))

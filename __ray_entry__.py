"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ``ray.init``/``ray.shutdown``.

``queries()`` maps operator names (SURVEY.md §2 + the training-data ops) to
callables over ``sf_dir``; SQL-expressible ones have a matching DuckDB
oracle in ``oracle_sql()`` with identical column names.  Rows-only (no
oracle): extract_articles / extract_spans (full DOM/HTML columns — but
``extract_certificate`` SQL-certifies their text content byte-exactly via
md5 plus span counts, media refs and metadata through a parquet sink
roundtrip, and ``span_stats`` certifies span emission; extract_articles is
a projection of that same span pass, so its ``length`` is certified by
``extract_certificate`` too) and ivf_topk /
ann_persisted_topk (pruned-approximate — but their ``*_full`` siblings
SQL-certify the same machinery at full probe, and a pytest asserts pruned
results are contained in brute-force top-k').
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def entry() -> Any:
    """Flagship pipeline at sf0.001: interleaved text+media span documents
    (BASELINE.json input_hint schema) through the full Readability
    extraction stage, returning the OUT schema (article spans + metadata)
    as a streaming Dataset."""
    from swift_readability_ray.pipelines.training_data import extract_spans

    return extract_spans("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from swift_readability_ray.pipelines import training_data as TD

    return {
        # extraction core (DOM content rows-only; span_stats is the
        # SQL-oracled projection certifying span emission end-to-end)
        "extract_articles": TD.extract_articles,
        "extract_spans": TD.extract_spans_materialized,
        "span_stats": TD.span_stats,
        "extract_certificate": TD.extract_certificate,
        # text analysis
        "token_counts": TD.token_counts,
        "fingerprints": TD.fingerprints,
        "langid": TD.langid_table,
        # classifier evaluation: langid prediction vs stored label
        "langid_confusion": TD.langid_confusion,
        "quality": TD.quality_table,
        # aggregates / filters / sorts / windows
        "doc_stats": TD.doc_stats,
        "readerable_filter": TD.readerable_filter,
        "top_docs": TD.top_docs,
        "lineitem_agg": TD.lineitem_agg,
        "sample_docs": TD.sample_docs,
        "word_counts": TD.word_counts,
        "events_sessions": TD.events_sessions,
        "events_hourly": TD.events_hourly,
        # hopping (sliding) 6h windows stepping hourly
        "events_hopping": TD.events_hopping,
        # GROUPING SETS cube: (type, hour-of-day) + all rollup levels in
        # one scan
        "events_cube": TD.events_cube,
        # algebraic OLS regression: per-type daily-count trend in exact
        # integer ppm from sufficient statistics
        "event_rate_trends": TD.event_rate_trends,
        # PPS-systematic sampling via a distributed prefix sum (no RNG,
        # no global sort): every stride-th char of the corpus
        "systematic_sample": TD.systematic_sample,
        # row-oriented sink+source certificates: write CSV / JSON-lines
        # via the io sink, read back typed, md5-digest the text
        "csv_roundtrip": TD.csv_roundtrip,
        "jsonl_roundtrip": TD.jsonl_roundtrip,
        # privacy: quasi-identifier groups below k (re-identification risk)
        "k_anonymity_audit": TD.k_anonymity_audit,
        # scan planning: answer a range predicate reading only matching
        # hive partitions + residual filter, certified vs a full scan
        "partition_prune_certificate": TD.partition_prune_certificate,
        # incremental view maintenance: checkpointed base view + delta
        # partials must equal the full recompute
        "incremental_agg_maintenance": TD.incremental_agg_maintenance,
        # growth accounting: first-seen arrivals per day + running total
        "new_users_daily": TD.new_users_daily,
        # lakehouse maintenance: many-small-files → compacted rewrite,
        # value-certified against the original
        "compaction_certificate": TD.compaction_certificate,
        # schema drift: two generations (added column) read as one
        # dataset with NULL back-fill, certified per lang
        "schema_evolution_certificate": TD.schema_evolution_certificate,
        # snapshot isolation: manifest-pinned v1 read beside appended v2
        "time_travel_certificate": TD.time_travel_certificate,
        # exact per-source mean/variance from integer sufficient stats
        "source_length_moments": TD.source_length_moments,
        # training ingest: concurrent streaming_split ranks must cover
        # the corpus exactly once
        "streaming_split_certificate": TD.streaming_split_certificate,
        # heterogeneous federation: parquet + CSV + JSONL shards unioned
        # into one Dataset, md5-certified
        "federated_union_certificate": TD.federated_union_certificate,
        # path mining: top length-3 behavioral paths per user stream
        "event_trigrams": TD.event_trigrams,
        # release changelog: keyed full-outer digest diff of two versions
        "corpus_diff": TD.corpus_diff,
        # exact quantized Gram matrix (the PCA/covariance statistic)
        "embedding_gram": TD.embedding_gram,
        # out-of-orderness audit (watermark sizing): per-user late counts
        "events_watermark_late": TD.events_watermark_late,
        "events_value_buckets": TD.events_value_buckets,
        "events_asof_rates": TD.events_asof_rates,
        "readerable_flags": TD.readerable_flags,
        "ngram_dedup": TD.ngram_dedup,
        # asymmetric containment near-dup (quote inclusion / boilerplate
        # wrap): PPJoin-style prefix-filter join, ordered pairs
        "containment_pairs": TD.containment_pairs,
        "top_docs_per_source": TD.top_docs_per_source,
        # extraction metadata (SQL-oracled end-to-end check)
        "extract_metadata": TD.extract_metadata,
        # dedup family
        "exact_dedup": TD.exact_dedup,
        "minhash_dedup": TD.minhash_dedup,
        "minhash_dedup_docs": TD.minhash_dedup_docs,
        # dedup health report: component-size histogram incl. singletons
        "minhash_cluster_sizes": TD.minhash_cluster_sizes,
        "simhash_dedup": TD.simhash_dedup,
        "embedding_neardup": TD.embedding_neardup,
        "embedding_neardup_lsh": TD.embedding_neardup_lsh_query,
        # similarity search
        "knn_bruteforce": TD.knn_bruteforce_query,
        "ivf_topk": TD.ivf_topk_query,
        "ivf_topk_full": TD.ivf_topk_full_query,
        # int8-range scalar quantization, integer-exact MIPS ranking
        "sq_topk": TD.sq_topk_query,
        # two-stage retrieval: quantized prefilter -> exact cosine rerank
        "sq_rerank_topk": TD.sq_rerank_topk,
        # persisted int8 sidecar probe (full scan == inline sq_topk)
        "sq_persisted_topk": TD.sq_persisted_topk_query,
        # joins / json scalar functions
        "orders_by_segment": TD.orders_by_segment,
        "events_json_stats": TD.events_json_stats,
        # multimodal: REAL pure-Python PNG decode (functions/png.py),
        # SQL-oracled geometry + pixel statistics
        "media_features": TD.media_features,
        # interleaved text+image sequence budget (real decode for geometry)
        "multimodal_token_budget": TD.multimodal_token_budget,
        # training-data privacy + packing ops
        "pii_scrub": TD.pii_scrub,
        "doc_chunks": TD.doc_chunks,
        # PDF/layout parse (north rule) — real pure-Python content-stream
        # scanner over synthesized-from-text PDFs, SQL-oracled end-to-end
        "pdf_extract": TD.pdf_extract,
        # corpus duplication + salience signals (Lee et al. 2022 / TF-IDF)
        "dup_ngram_stats": TD.dup_ngram_stats,
        "tfidf_top_terms": TD.tfidf_top_terms,
        # 3-way join: customer ⋈ orders ⋈ lineitem, exact integer revenue
        "q3_top_orders": TD.q3_top_orders,
        # rolling windows (ROWS + RANGE frames) per user, exact cents
        "events_rolling": TD.events_rolling,
        # exact rank-semantics quantiles per event type (order statistics)
        "events_quantiles": TD.events_quantiles,
        # anti-join: customers with no orders, counted per segment
        "customers_without_orders": TD.customers_without_orders,
        # exact distinct users per event type (pair-distinct combiner)
        "events_user_counts": TD.events_user_counts,
        # mergeable HyperLogLog distinct sketch (approximate — rows-only;
        # pytest bounds the relative error against the exact query)
        "events_user_counts_hll": TD.events_user_counts_hll,
        # REAL audio decode (pure-Python RIFF/WAVE PCM codec)
        "audio_features": TD.audio_features,
        # REAL resize: decode -> integer box pooling -> re-encode -> re-decode
        "media_resize": TD.media_resize,
        # REAL video frame sampling: seek FPK1 prefixes, decode sampled PNGs
        "video_frames": TD.video_frames,
        # benchmark decontamination: eval-slice n-gram overlap flags
        "decontaminate": TD.decontaminate,
        # interval join: events vs overlapping campaign windows (footer-
        # stat bounds, broadcast windows, vectorized containment)
        "events_range_join": TD.events_range_join,
        # dataset mixing: equal-share stratified downsample by lang
        "stratified_sample": TD.stratified_sample,
        # mergeable histogram quantile sketch (approximate — rows-only;
        # pytest pins every estimate within bin_width_c of the exact
        # events_quantiles answer)
        "events_quantiles_sketch": TD.events_quantiles_sketch,
        # text hygiene: lowercase/collapse-punct/trim canonical form
        "normalize_text": TD.normalize_text,
        # deterministic 80/10/10 hash split, counted per (split, lang)
        "split_assign": TD.split_assign,
        # seeded deterministic global shuffle order (first 50 by hash key)
        "corpus_shuffle": TD.corpus_shuffle,
        # Gopher-style within-doc bigram repetition profile
        "repetition_stats": TD.repetition_stats,
        # inverted-index posting stats: top-20 terms by document frequency
        "inverted_index": TD.inverted_index,
        # pivot: per-user event counts, one column per event type
        "events_pivot": TD.events_pivot,
        # percentile outlier filter: docs inside [p05, p95] length band
        "length_filter": TD.length_filter,
        # greedy sequence packing into 256-token context bins per source
        "pack_sequences": TD.pack_sequences,
        # Bloom-sketch decontamination (approximate — rows-only; pytest
        # pins zero false negatives + doc-level FP rate vs the exact sibling)
        "decontaminate_bloom": TD.decontaminate_bloom,
        # exact-substring dedup removal mask: tokens covered by corpus-
        # duplicated 8-grams (interval union per doc)
        "dup_span_coverage": TD.dup_span_coverage,
        # partitioned-sink roundtrip certificate: write hive-partitioned
        # parquet, read back pruned, count per partition
        "sink_roundtrip": TD.sink_roundtrip,
        # exact vector aggregate: integer-quantized centroid numerators
        "label_centroids": TD.label_centroids,
        # composite quality gate: first-failing-reason keep/drop decision
        "quality_gate": TD.quality_gate,
        # unigram-LM typicality: summed corpus token frequency per doc
        "doc_typicality": TD.doc_typicality,
        # first BPE training step: top adjacent char pairs by frequency
        "bpe_first_merges": TD.bpe_first_merges,
        # two-step event funnel: signup -> later purchase, order-free mins
        "conversion_funnel": TD.conversion_funnel,
        # feature hashing: fixed-width signed integer vectors per doc
        "hashed_features": TD.hashed_features,
        # log compaction / CDC upsert: keep each user's latest event
        "latest_event_per_user": TD.latest_event_per_user,
        # incremental dedup: new crawl batch vs existing-corpus fingerprints
        "delta_dedup": TD.delta_dedup,
        # persisted IVF index, partition-pruned probe (approximate —
        # rows-only; containment pytest-pinned; full-probe sibling exact)
        "ann_persisted_topk": TD.ann_persisted_topk,
        # persisted-index full probe == exact brute force served from the
        # hive layout (build→write→read-back certificate)
        "ann_persisted_topk_full": TD.ann_persisted_topk_full,
        # DSIR importance weights: hashed-bigram target/corpus count models
        "dsir_weights": TD.dsir_weights,
        # per-label centroid-distance pruning: top-k farthest vectors
        "centroid_outliers": TD.centroid_outliers,
        # MOSS winnowing: per-doc selected (pos, gram-hash) fingerprints
        "winnow_fingerprints": TD.winnow_fingerprints,
        # Misra-Gries heavy hitters: exact top bigrams via bounded-memory
        # sketch + exact recount + self-verifying gate
        "heavy_hitters": TD.heavy_hitters,
        # Z-order layout: per-zbucket pruning certificate (both dims
        # bounded per file)
        "zorder_layout": TD.zorder_layout,
        # SemDeDup: within-cluster keep-first semantic dedup
        "semantic_dedup": TD.semantic_dedup,
        # hard-negative mining: top-k nearest vectors of a DIFFERENT label
        "hard_negatives": TD.hard_negatives,
        # balanced sharding via distributed global rank (sort + block
        # prefix scan)
        "balanced_shards": TD.balanced_shards,
        # incremental near-dup gate: new batch vs corpus + earlier-new by
        # trigram Jaccard, derived from the shared verified pair table
        "delta_neardup": TD.delta_neardup,
        # web-graph family: weighted host link graph, fixed-iteration
        # integer PageRank, connected components (stages/graph.py)
        "link_graph": TD.link_graph,
        "pagerank_hosts": TD.pagerank_hosts,
        "host_components": TD.host_components,
        # near-dup collapse keeping the BEST (longest) member per cluster
        "neardup_keep_best": TD.neardup_keep_best,
        # content-addressed dedup of binary media payloads (byte-hash
        # groupby through a real PNG encode)
        "media_dedup": TD.media_dedup,
        # per-host degree/doc-count feature profile
        "host_profiles": TD.host_profiles,
        # last-touch attribution: latest click at-or-before each purchase
        "attribution_last_touch": TD.attribution_last_touch,
        # deterministic 3-hop walks from every host (DeepWalk sampler)
        "random_walks": TD.random_walks,
        # weekly cohort retention counts over events
        "retention_cohorts": TD.retention_cohorts,
        # top document-level word co-occurrence pairs
        "cooccurrence_pairs": TD.cooccurrence_pairs,
        # collocation mining: integer-exact PMI ratio over adjacent bigrams
        "pmi_bigrams": TD.pmi_bigrams,
        # per-source percentile calibration (FineWeb-style domain-relative
        # quality thresholds), integer ppm
        "quality_percentiles": TD.quality_percentiles,
        # exact range-partitioned sort layout (1-D total-order export)
        "range_layout": TD.range_layout,
        # tokenizer-sizing coverage curve (top-N type coverage, ppm)
        "vocab_coverage": TD.vocab_coverage,
        # end-to-end calibrated filter over quality_percentiles (p10 cut)
        "calibrated_length_filter": TD.calibrated_length_filter,
        # per-domain cap: at most 5 docs per source, uniform by md5
        "source_cap_sample": TD.source_cap_sample,
        # referential-integrity orphan audit across the star schema
        "fk_integrity_audit": TD.fk_integrity_audit,
        # per-source p10/p50/p90 token thresholds (exact rank semantics)
        "percentile_thresholds": TD.percentile_thresholds,
        # cross-split 8-gram leakage (train/valid/test contamination)
        "split_leakage_audit": TD.split_leakage_audit,
        # churn audit: users idle >= 30 days vs the corpus max ts
        "churned_users": TD.churned_users,
        # fuzzy string-similarity self-join (block on 2-token prefix,
        # exact byte-Levenshtein verify)
        "fuzzy_prefix_pairs": TD.fuzzy_prefix_pairs,
        # intra-corpus template clusters by 8-token prefix key
        "prefix_clusters": TD.prefix_clusters,
        # length-bucketed batching audit: next-pow2 buckets + padding waste
        "length_buckets": TD.length_buckets,
        # undirected triangle count of the host graph
        "triangle_count": TD.triangle_count,
        # per-node refinement: local clustering coefficient in exact ppm
        "clustering_coefficients": TD.clustering_coefficients,
        # global degree-degree Pearson correlation (exact: sqrt collapses
        # under both-orientation symmetry)
        "degree_assortativity": TD.degree_assortativity,
        # composed end-to-end certificate: gate -> dedup -> split counts
        "pipeline_certificate": TD.pipeline_certificate,
        # CCNet-style per-language head/middle/tail quality bucketing
        "quality_tiers": TD.quality_tiers,
        # incremental ANN index maintenance: build base, append delta,
        # full-probe == exact top-k over the union
        "ann_append_topk_full": TD.ann_append_topk_full,
        # link-prediction negative sampling over the host graph
        "edge_negatives": TD.edge_negatives,
        # TPC-H Q5 shape: 6-table join, revenue per nation (region/nation/
        # supplier dims broadcast, orders gated, lineitem never shuffles)
        "q5_local_supplier_volume": TD.q5_local_supplier_volume,
        # TPC-H Q14 shape: promo-part revenue share (integer numerator +
        # denominator; part dim broadcast, lineitem never shuffles)
        "q14_promo_revenue": TD.q14_promo_revenue,
        # source-pair vocabulary overlap (mixing diagnostic)
        "vocab_overlap": TD.vocab_overlap,
        # TPC-H Q6 shape: shuffle-free forecast-revenue scan-aggregate
        "q6_forecast_revenue": TD.q6_forecast_revenue,
        # TPC-H Q4 shape: per-priority EXISTS semi-join (shipped-before-
        # order anomaly audit; broadcast-gated with join fallback)
        "q4_priority_anomalies": TD.q4_priority_anomalies,
        # TPC-H Q18 shape: large-volume orders (HAVING prune -> gated
        # join -> top-k -> <=k-key customer fetch)
        "q18_large_orders": TD.q18_large_orders,
        # per-user recency/frequency/monetary features (one pass,
        # native groupby over per-block partials)
        "user_rfm": TD.user_rfm,
        # per-(source, lang) release data card with EXACT discrete
        # median via histogram merge (no distributed sort)
        "data_card": TD.data_card,
        # integer TF-IDF keyword retrieval (tokenize once, slim tf
        # table reused for df and scoring)
        "search_topk": TD.search_topk,
        # integer HITS hub/authority scores over the host graph
        # (max-normalized fixed point; PageRank's companion)
        "hits_hosts": TD.hits_hosts,
        # kNN majority-label classifier readout over the embeddings
        "knn_label_vote": TD.knn_label_vote,
        # tokenizer application: corpus-top-16 vocabulary ids, OOV=-1
        "vocab_encode": TD.vocab_encode,
        # host-level quality rollup (integer micro-unit sums)
        "host_quality": TD.host_quality,
        # per-source duplication diagnostic (digest groupby)
        "dedup_rate_by_source": TD.dedup_rate_by_source,
        # Markov transition counts over per-user event sequences
        "event_transitions": TD.event_transitions,
        # bigram-LM corpus-fit stats (sum of corpus bigram freqs +
        # singleton count per doc — the integer KenLM-perplexity proxy)
        "bigram_typicality": TD.bigram_typicality,
        # per-source trigram diversity: total vs distinct occurrences
        "source_diversity": TD.source_diversity,
        # integer-exact per-type outlier counts (value > 2x type mean,
        # tested multiplicatively so no division/float ever happens)
        "events_outliers": TD.events_outliers,
        # monthly order volume + month-over-month delta (tiny driver lag)
        "orders_monthly": TD.orders_monthly,
        # TPC-H Q13 shape: customer order-count distribution incl. the
        # zero bucket (partial counts -> groupby -> bounded histogram)
        "q13_order_distribution": TD.q13_order_distribution,
        # TPC-H Q10 shape: top-k customers by returned-item revenue
        # (fact re-keys in-batch under the gate; q18's <=k-key fetch)
        "q10_returned_revenue": TD.q10_returned_revenue,
        # DAU/WAU engagement: distinct-pair collapse + trailing-window
        # expansion (exact distinct, no sketch)
        "events_dau_wau": TD.events_dau_wau,
        # word2vec positive-pair sampler: top skip-gram pairs (window 2)
        "skipgram_pairs": TD.skipgram_pairs,
        # provenance diagnostic: 8-token prefix fingerprints shared
        # between source pairs (bitmask fold, vocab_overlap's machinery)
        "cross_source_contamination": TD.cross_source_contamination,
        # TPC-H Q16 shape: distinct suppliers per part (brand, type)
        # class, derived from lineitem pairs (no partsupp in this schema)
        "q16_part_suppliers": TD.q16_part_suppliers,
        # TPC-H Q7 shape: cross-nation shipping volume per (supp, cust,
        # year) — q5's 6-table sibling with the != nation predicate
        "q7_nation_volume": TD.q7_nation_volume,
        # TPC-H Q15 shape: per-supplier revenue, every max-tied winner
        "q15_top_supplier": TD.q15_top_supplier,
        # TPC-H Q17 shape: below-20%-of-part-average quantity revenue,
        # correlated AVG made integer-exact (qty_c·5·cnt < sum_qty_c)
        "q17_small_qty_revenue": TD.q17_small_qty_revenue,
        # TPC-H Q19 shape: disjunctive brand/size/qty clause revenue,
        # the OR folded into the broadcast part dim as quantity bands
        "q19_disjunctive_revenue": TD.q19_disjunctive_revenue,
        # TPC-H Q22 shape: above-average-balance customers with no
        # orders, per nation (anti-join + integer-exact scalar AVG)
        "q22_sales_opportunity": TD.q22_sales_opportunity,
        # TPC-H Q8 shape: national market share per order year, kept as
        # integer (nation_rev_c4, total_rev_c4) — no float quotient
        "q8_market_share": TD.q8_market_share,
        # TPC-H Q9 shape: product profit by nation/year; p_retailprice
        # plays ps_supplycost (no partsupp in this schema)
        "q9_product_profit": TD.q9_product_profit,
        # TPC-H Q11 shape: important parts by shipped-value share,
        # integer-exact fraction predicate (value·den > total·num)
        "q11_important_parts": TD.q11_important_parts,
        # TPC-H Q12 shape: late lines per linestatus split by order
        # priority (no shipmode column; lateness vs o_orderdate+60d)
        "q12_late_shipment_priority": TD.q12_late_shipment_priority,
        # TPC-H Q21 shape: suppliers who kept multi-supplier orders
        # waiting (sole latest shipper; no commit/receipt dates)
        "q21_waiting_suppliers": TD.q21_waiting_suppliers,
        # TPC-H Q2 shape: per-part minimum-balance supplier in a region
        # (s_acctbal plays ps_supplycost; shipped-evidence plays partsupp)
        "q2_min_acctbal_supplier": TD.q2_min_acctbal_supplier,
        # TPC-H Q20 shape: suppliers shipping >50% of a matching part's
        # windowed volume (dominance replaces the availqty predicate)
        "q20_dominant_suppliers": TD.q20_dominant_suppliers,
        # linear multi-touch attribution: integer-ppm equal credit
        # split across a purchase's prior clicks, remainder to the last
        "attribution_linear": TD.attribution_linear,
        # DoReMi-style source-mixture table: per-source quality mass
        # and integer ppm sampling weights (floor division, no floats)
        "mixture_weights": TD.mixture_weights,
        # fixed-token-budget epoch allocation per source, integer ppm
        "token_budget_epochs": TD.token_budget_epochs,
        # MassiveText/CCNet-style global sentence-level exact dedup:
        # every distinct sentence survives only at its first corpus
        # occurrence; documents rebuilt from kept sentences
        "sentence_dedup": TD.sentence_dedup,
        # per-source template-chunk audit (CCNet boilerplate signal):
        # chunk doc-frequency within source vs a frac-of-source threshold
        "boilerplate_lines": TD.boilerplate_lines,
        # Good-Turing frequency-of-frequencies: distributed vocab groupby
        # then an O(√N)-row histogram merge
        "count_of_counts": TD.count_of_counts,
        # per-doc first-occurrence novelty over 8-gram md5 keys (min
        # doc_id owns the gram) — gated driver merge / distributed Min
        "gram_novelty": TD.gram_novelty,
        # shuffle-key skew diagnostics: exact integer Gini (ppm) of key
        # frequencies from a two-level histogram aggregation
        "key_skew_audit": TD.key_skew_audit,
        # deterministic weighted priority sample: k smallest md5-hash /
        # (n_chars+1) — per-block top-k partials, no global sort
        "weighted_sample": TD.weighted_sample,
        # bipartite (user, event_type) co-engagement projection via the
        # bitmask fold — exact-integer Jaccard ppm, no pair self-join
        "event_type_affinity": TD.event_type_affinity,
        # Heaps'-law vocabulary saturation curve: groupby(token) Min
        # bucket, bounded histogram merge + cumulative
        "vocab_growth": TD.vocab_growth,
        # grouped top-k over the unbounded bigram space: pre-combined
        # two-key shuffle, per-block per-lang top-k partials
        "top_bigrams_per_lang": TD.top_bigrams_per_lang,
        # order->ship latency weeks per priority: q12-style gated
        # broadcast / hash-join dual path, bounded rollup
        "ship_latency_histogram": TD.ship_latency_histogram,
        # robust MAD outlier accounting in exact integer cents from one
        # bounded-domain histogram pass (no sort, no second data pass)
        "events_mad_outliers": TD.events_mad_outliers,
        # link-graph symmetry audit: edge table joined against itself
        # reversed; exact-integer reciprocity ppm per host
        "host_link_reciprocity": TD.host_link_reciprocity,
        # interval-count backlog: +1 at order month, -1 after last-ship
        # month, cumulative over the bounded calendar rollup
        "order_backlog_monthly": TD.order_backlog_monthly,
        # the north-rule ORDER invariant: per-doc kind sequence + media
        # ordinal from the real span pipeline, synthesis-mirrored in SQL
        "span_order_certificate": TD.span_order_certificate,
        # source composition of each near-dup cluster (session pair
        # cache + shared labeling; exact-integer majority share ppm)
        "dedup_cluster_purity": TD.dedup_cluster_purity,
        # crawl-half drift per source: exact-ppm mean token counts for
        # early vs late doc_id halves (footer-stat midpoint, zero scan)
        "source_drift_audit": TD.source_drift_audit,
        # BFS shortest-path depths from a seed host (per-round join +
        # groupby-Min frontier; capped rounds, pinned dual path)
        "host_bfs_depths": TD.host_bfs_depths,
        # bounded 7x24xtypes seasonality heatmap (ISO dow, hour)
        "events_dow_hour_profile": TD.events_dow_hour_profile,
        # peak trailing-5min burst per type: (type, day)+halo groups,
        # vectorized two-pointer, bounded per-type max fold
        "events_burst_detection": TD.events_burst_detection,
        # daily spikes vs the prior-7-day baseline, exact multiplicative
        # predicate (14*n > 3*trail) over a bounded (type, day) rollup
        "events_daily_anomalies": TD.events_daily_anomalies,
        # users by distinct-type breadth: two thin groupbys + bounded
        # k-histogram merge
        "user_type_breadth": TD.user_type_breadth,
        # dedup-threshold calibration: pair counts at five Jaccard cuts
        # from ONE cached LSH+verify pass, exact-integer ppm compare
        "neardup_threshold_curve": TD.neardup_threshold_curve,
        # ANALYZE-style catalog stats: exact min/max/ndv/rows per
        # numeric lineitem column (domain-sized NDV exchange)
        "lineitem_column_stats": TD.lineitem_column_stats,
        # planner-statistics audit: uniform-assumption join estimate vs
        # the true orders x lineitem cardinality (count-table join)
        "join_cardinality_audit": TD.join_cardinality_audit,
        # sampling QA: per-lang corpus vs 10%-hash-sample share, ppm
        "sample_bias_audit": TD.sample_bias_audit,
        # deadline-bounded funnel: purchase within 7d after first
        # signup; thin groupby + user-keyed join, one-row output
        "conversion_funnel_windowed": TD.conversion_funnel_windowed,
        # IDF / stopword-discovery table: top terms by DOCUMENT frequency
        # (distinct-per-doc combiner, vocabulary-row shuffle only)
        "doc_frequency": TD.doc_frequency,
        # C4-style blocklist filter-rate audit per source (broadcast
        # term set, bounded-source driver merge)
        "blocklist_filter": TD.blocklist_filter,
        # character-entropy quality signal (shuffle-free per-block map,
        # float64 formula pinned to the oracle's)
        "char_entropy": TD.char_entropy,
        # per-event-type cadence stats: integer-µs gap count/sum/max
        # between consecutive same-user events (tie-order invariant)
        "inter_event_gaps": TD.inter_event_gaps,
        # per-label mean pairwise cosine via the vector-sum identity —
        # no pairwise pass, |labels|×blocks partial rows only
        "label_dispersion": TD.label_dispersion,
        # FastCDC-style content-defined-chunking dedup audit: per doc,
        # chunks/codepoints already seen earlier in the corpus (chunk
        # boundaries move with content, catching shared passages at any
        # offset without shingling)
        "cdc_chunk_stats": TD.cdc_chunk_stats,
    }


def oracle_sql() -> dict[str, str]:
    sql = {
        "token_counts": """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(string_split_regex(trim(text), '\\s+')) END AS ws_tokens,
                   len(regexp_extract_all(text, '[A-Za-z0-9_]+|[^A-Za-z0-9_\\s]')) AS bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "fingerprints": """
            SELECT CAST(doc_id AS BIGINT) AS doc_id, md5(text) AS md5
            FROM documents ORDER BY doc_id
        """,
        "doc_stats": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   avg(n_chars) AS avg_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "readerable_filter": """
            SELECT source, count(*) AS n_docs
            FROM documents WHERE n_chars >= 500
            GROUP BY source ORDER BY source
        """,
        "top_docs": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id LIMIT 10
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id FROM documents
            GROUP BY text ORDER BY doc_id
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(a.embedding, b.embedding) >= 0.25
            ORDER BY id_a, id_b
        """,
        # LSH path over the augmented (planted near-copy) embedding set;
        # exact all-pairs mirror — sound because planted pairs are far above
        # the recall knee and candidates are exact-verified
        "embedding_neardup_lsh": """
            WITH aug AS (
              SELECT vec_id, embedding FROM embeddings
              UNION ALL
              SELECT vec_id + 100000,
                     [embedding[1] + 0.1] || embedding[2:]
              FROM embeddings WHERE vec_id < 100)
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM aug a, aug b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(a.embedding, b.embedding) >= 0.9
            ORDER BY id_a, id_b
        """,
        "knn_bruteforce": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 scored AS (
                    SELECT q.query_id, e.vec_id AS neighbor_id,
                           list_cosine_similarity(q.qv, e.embedding) AS sim
                    FROM q CROSS JOIN embeddings e),
                 ranked AS (
                    SELECT query_id, neighbor_id,
                           CAST(row_number() OVER (
                               PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id) AS INTEGER) AS rank
                    FROM scored)
            SELECT query_id, neighbor_id, rank FROM ranked
            WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # full-probe IVF == brute force: certifies the IVF machinery with
        # the same exact ranking mirror as knn_bruteforce
        "ivf_topk_full": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 scored AS (
                    SELECT q.query_id, e.vec_id AS neighbor_id,
                           list_cosine_similarity(q.qv, e.embedding) AS sim
                    FROM q CROSS JOIN embeddings e),
                 ranked AS (
                    SELECT query_id, neighbor_id,
                           CAST(row_number() OVER (
                               PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id) AS INTEGER) AS rank
                    FROM scored)
            SELECT query_id, neighbor_id, rank FROM ranked
            WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # scalar-quantized ANN: the oracle runs the IDENTICAL quantization
        # formula (global scale 127/max_abs, floor(v*sc + 0.5)) and ranks on
        # the exact integer dot product — no float similarity ever hashed
        "sq_topk": """
            WITH s AS (SELECT 127.0 / max(abs(x)) AS sc
                       FROM embeddings, unnest(embedding) AS t(x)),
                 qz AS (SELECT vec_id,
                               list_transform(embedding,
                                   v -> CAST(floor(v * sc + 0.5) AS BIGINT)) AS code
                        FROM embeddings, s),
                 q AS (SELECT vec_id AS query_id, code AS qc
                       FROM qz WHERE vec_id < 4),
                 scored AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                                   CAST(list_dot_product(q.qc, e.code) AS BIGINT) AS qdot
                            FROM q CROSS JOIN qz e),
                 ranked AS (SELECT query_id, neighbor_id, qdot,
                                   CAST(row_number() OVER (PARTITION BY query_id
                                        ORDER BY qdot DESC, neighbor_id) AS INTEGER) AS rank
                            FROM scored)
            SELECT query_id, neighbor_id, rank, qdot FROM ranked
            WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # two-stage retrieval: the sq_topk prefilter (rank <= 40 on the
        # integer quantized dot) re-ranked by exact cosine
        "sq_rerank_topk": """
            WITH s AS (SELECT 127.0 / max(abs(x)) AS sc
                       FROM embeddings, unnest(embedding) AS t(x)),
                 qz AS (SELECT vec_id, embedding,
                               list_transform(embedding,
                                   v -> CAST(floor(v * sc + 0.5) AS BIGINT)) AS code
                        FROM embeddings, s),
                 q AS (SELECT vec_id AS query_id, code AS qc
                       FROM qz WHERE vec_id < 4),
                 scored AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                                   CAST(list_dot_product(q.qc, e.code) AS BIGINT) AS qdot
                            FROM q CROSS JOIN qz e),
                 pre AS (SELECT query_id, neighbor_id FROM (
                            SELECT query_id, neighbor_id,
                                   row_number() OVER (PARTITION BY query_id
                                       ORDER BY qdot DESC, neighbor_id) AS rk
                            FROM scored) WHERE rk <= 40),
                 qv AS (SELECT vec_id AS query_id, embedding AS qe
                        FROM embeddings WHERE vec_id < 4),
                 rer AS (SELECT p.query_id, p.neighbor_id,
                                list_cosine_similarity(qv.qe, e.embedding) AS sim
                         FROM pre p JOIN qv USING (query_id)
                                    JOIN embeddings e ON e.vec_id = p.neighbor_id),
                 ranked AS (SELECT query_id, neighbor_id,
                                   CAST(row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, neighbor_id) AS INTEGER) AS rank
                            FROM rer)
            SELECT query_id, neighbor_id, rank FROM ranked
            WHERE rank <= 10 ORDER BY query_id, rank
        """,
        "word_counts": """
            WITH toks AS (
                SELECT unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS token
                FROM documents)
            SELECT token, count(*) AS n FROM toks
            WHERE token <> ''
            GROUP BY token ORDER BY n DESC, token LIMIT 20
        """,
        "sample_docs": """
            SELECT doc_id FROM documents
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
                  % 100 < 10
            ORDER BY doc_id
        """,
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty_c,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_c,
                   CAST(sum(CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT) AS sum_disc_c,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c,
                   count(*) AS n_events
            FROM events GROUP BY event_type, hour
            ORDER BY event_type, hour
        """,
        # GROUPING SETS cube: sentinels 'ALL'/-1 are safe (neither key is
        # ever NULL in the data) and grp_id = GROUPING(...) disambiguates
        "events_cube": """
            WITH f AS (
              SELECT event_type,
                     CAST(extract(hour FROM ts) AS BIGINT) AS hod,
                     CAST(round(value * 100) AS BIGINT) AS vc
              FROM events)
            SELECT coalesce(event_type, 'ALL') AS event_type,
                   coalesce(hod, -1) AS hod,
                   CAST(GROUPING(event_type, hod) AS BIGINT) AS grp_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(vc) AS BIGINT) AS sum_value_c
            FROM f
            GROUP BY GROUPING SETS ((event_type, hod), (event_type),
                                    (hod), ())
            ORDER BY grp_id, event_type, hod
        """,
        # pruned partitioned scan must equal the oracle's full scan
        "partition_prune_certificate": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents WHERE n_chars >= 256
            GROUP BY lang ORDER BY lang
        """,
        # first-seen day histogram + cumulative
        "new_users_daily": """
            WITH f AS (
              SELECT user_id, min(epoch_us(ts) // 86400000000) AS day
              FROM events GROUP BY user_id),
            h AS (SELECT day, CAST(count(*) AS BIGINT) AS n_new_users
                  FROM f GROUP BY day)
            SELECT CAST(day AS BIGINT) AS day, n_new_users,
                   CAST(sum(n_new_users) OVER (
                     ORDER BY day ROWS UNBOUNDED PRECEDING) AS BIGINT)
                       AS cum_users
            FROM h ORDER BY day
        """,
        # compacted rewrite must preserve every row
        "compaction_certificate": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        # gram matrix over the same sq quantization bridge; dimension-
        # adaptive via len(code)
        "embedding_gram": """
            WITH s AS (SELECT 127.0 / max(abs(x)) AS sc
                       FROM embeddings, unnest(embedding) AS t(x)),
            qz AS (SELECT list_transform(embedding,
                       v -> CAST(floor(v * sc + 0.5) AS BIGINT)) AS code
                   FROM embeddings, s),
            p AS (SELECT i.i AS i, j.j AS j, code[i.i] * code[j.j] AS v
                  FROM qz,
                       unnest(generate_series(1, len(code))) AS i(i),
                       unnest(generate_series(1, len(code))) AS j(j)
                  WHERE j.j >= i.i)
            SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
                   CAST(sum(v) AS BIGINT) AS g
            FROM p GROUP BY i, j ORDER BY i, j
        """,
        # length-3 paths with the impl's (-n, t1, t2, t3) tie-break
        "event_trigrams": """
            WITH o AS (
              SELECT event_type AS t1,
                     lead(event_type, 1) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS t2,
                     lead(event_type, 2) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS t3
              FROM events),
            c AS (SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
                  FROM o WHERE t3 IS NOT NULL GROUP BY t1, t2, t3)
            SELECT t1, t2, t3, n FROM c
            ORDER BY n DESC, t1, t2, t3 LIMIT 25
        """,
        # the diff replays the synthesis rules: %7 absent from the old
        # version (added), %5 mutated (changed), rest unchanged
        "corpus_diff": """
            SELECT source,
                   CAST(sum(CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_added,
                   CAST(0 AS BIGINT) AS n_removed,
                   CAST(sum(CASE WHEN doc_id % 7 <> 0 AND doc_id % 5 = 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_changed,
                   CAST(sum(CASE WHEN doc_id % 7 <> 0 AND doc_id % 5 <> 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_unchanged
            FROM documents GROUP BY source ORDER BY source
        """,
        # the three-format federation must cover the corpus byte-exactly
        "federated_union_certificate": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars,
                   CAST(sum(CAST(('0x' || substr(md5(text), 1, 12))
                                 AS BIGINT)) AS BIGINT) AS text_digest_sum
            FROM documents GROUP BY source ORDER BY source
        """,
        # concurrent rank drains must union to the full scan
        "streaming_split_certificate": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        # manifest-pinned v1 sees only evens; the live v2 read sees all
        "time_travel_certificate": """
            SELECT lang,
                   CAST(sum(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_docs_v1,
                   CAST(count(*) AS BIGINT) AS n_docs_v2,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars_v2
            FROM documents GROUP BY lang ORDER BY lang
        """,
        # exact integer moments: mean and population variance in ppm
        "source_length_moments": """
            WITH st AS (
              SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                     sum(CAST(n_chars AS BIGINT)) AS sx,
                     sum(CAST(n_chars AS BIGINT) * CAST(n_chars AS BIGINT))
                         AS sxx
              FROM documents GROUP BY source)
            SELECT source, n_docs,
                   CAST((1000000 * sx) // n_docs AS BIGINT) AS mean_ppm,
                   CAST((1000000 * (n_docs * sxx - sx * sx))
                        // (n_docs * n_docs) AS BIGINT) AS var_ppm
            FROM st ORDER BY source
        """,
        # the unified two-generation read must match the parity rule
        "schema_evolution_certificate": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN doc_id % 2 = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_versioned,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        # maintained view must equal the full recompute
        "incremental_agg_maintenance": """
            SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_value_c
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # k-anonymity: quasi-identifier combos with fewer than k members
        "k_anonymity_audit": """
            SELECT lang, source,
                   CAST(n_chars AS BIGINT) // 256 AS len_bucket,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM documents
            GROUP BY lang, source, len_bucket
            HAVING count(*) < 5
            ORDER BY lang, source, len_bucket
        """,
        # row-format roundtrips: the oracle reads the ORIGINAL parquet —
        # the Ray side must round-trip text byte-exactly through the
        # CSV / JSONL sink+source for the md5 digest sums to match
        "csv_roundtrip": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars,
                   CAST(sum(CAST(('0x' || substr(md5(text), 1, 12))
                                 AS BIGINT)) AS BIGINT) AS text_digest_sum
            FROM documents GROUP BY source ORDER BY source
        """,
        "jsonl_roundtrip": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars,
                   CAST(sum(CAST(('0x' || substr(md5(text), 1, 12))
                                 AS BIGINT)) AS BIGINT) AS text_digest_sum
            FROM documents GROUP BY source ORDER BY source
        """,
        # PPS-systematic sample: all quantities non-negative so // is
        # floor on both sides; stride replays the impl's max(1, total//k)
        "systematic_sample": """
            WITH w AS (
              SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
                     CAST(sum(CAST(n_chars AS BIGINT)) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS BIGINT) AS cum_chars
              FROM documents),
            tot AS (SELECT CASE WHEN max(cum_chars) // 64 < 1 THEN 1
                           ELSE max(cum_chars) // 64 END AS stride
                    FROM w)
            SELECT doc_id, n_chars, cum_chars
            FROM w, tot
            WHERE cum_chars // stride > (cum_chars - n_chars) // stride
            ORDER BY doc_id
        """,
        # OLS trend from integer sufficient statistics; DuckDB `//`
        # TRUNCATES toward zero (verified: -7//2 = -3) and the impl's
        # trunc_div matches; sums go HUGEINT in SQL, Python int in the impl
        "event_rate_trends": """
            WITH daily AS (
              SELECT event_type,
                     epoch_us(ts) // 86400000000 AS day,
                     CAST(count(*) AS BIGINT) AS y
              FROM events GROUP BY 1, 2),
            mn AS (SELECT min(day) AS m FROM daily),
            st AS (
              SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n_days,
                     sum(day - m) AS sx, sum(y) AS sy,
                     sum((day - m) * (day - m)) AS sxx,
                     sum((day - m) * y) AS sxy
              FROM daily, mn GROUP BY event_type)
            SELECT event_type, n_days,
                   CAST(CASE WHEN n_days * sxx - sx * sx = 0 THEN NULL
                        ELSE (1000000 * (n_days * sxy - sx * sy))
                             // (n_days * sxx - sx * sx) END AS BIGINT)
                       AS slope_ppm,
                   CAST(CASE WHEN n_days * sxx - sx * sx = 0 THEN NULL
                        ELSE (1000000 * (sy * sxx - sx * sxy))
                             // (n_days * sxx - sx * sx) END AS BIGINT)
                       AS intercept_ppm
            FROM st ORDER BY event_type
        """,
        # hopping windows: every event lands in exactly 6 hourly-stepped
        # 6h windows (keyed by window start)
        "events_hopping": """
            WITH e AS (
              SELECT event_type,
                     date_trunc('hour', ts) - i.i * INTERVAL 1 HOUR
                         AS window_start,
                     CAST(round(value * 100) AS BIGINT) AS value_c
              FROM events, unnest(generate_series(0, 5)) AS i(i))
            SELECT event_type, window_start,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(value_c) AS BIGINT) AS sum_value_c
            FROM e GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # watermark audit: late = ts < running max ts of earlier arrivals
        # (event_id order) per user; lateness in exact microseconds
        "events_watermark_late": """
            WITH w AS (
              SELECT user_id, ts,
                     max(ts) OVER (PARTITION BY user_id ORDER BY event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                         AS wm
              FROM events)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CASE WHEN ts < wm THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_late,
                   CAST(coalesce(max(CASE WHEN ts < wm
                            THEN epoch_us(wm) - epoch_us(ts) END), 0)
                        AS BIGINT) AS max_lateness_us
            FROM w GROUP BY user_id ORDER BY user_id
        """,
        "events_value_buckets": """
            WITH b AS (
                SELECT event_type,
                       CASE WHEN value >= 0 AND value < 1000
                            THEN CAST(floor(value / 100) AS BIGINT)
                            ELSE -1 END AS bucket
                FROM events)
            SELECT event_type, bucket, count(*) AS n_events
            FROM b GROUP BY event_type, bucket
            ORDER BY event_type, bucket
        """,
        "events_asof_rates": """
            WITH dim AS (
                SELECT date_trunc('hour', ts) AS hour,
                       min(event_id) AS marker_id
                FROM events GROUP BY hour)
            SELECT d.marker_id, count(*) AS n_events
            FROM events e ASOF JOIN dim d ON e.ts >= d.hour
            GROUP BY d.marker_id ORDER BY d.marker_id
        """,
        "events_sessions": """
            WITH e AS (
                SELECT user_id, ts,
                       lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev
                FROM events),
            s AS (
                SELECT user_id,
                       CASE WHEN prev IS NULL OR epoch(ts - prev) > 1800
                            THEN 1 ELSE 0 END AS new_s
                FROM e)
            SELECT user_id, count(*) AS n_events,
                   CAST(sum(new_s) AS BIGINT) AS n_sessions
            FROM s GROUP BY user_id ORDER BY user_id
        """,
        "top_docs_per_source": """
            WITH ranked AS (
                SELECT source, doc_id, n_chars,
                       row_number() OVER (
                           PARTITION BY source
                           ORDER BY n_chars DESC, doc_id) AS rn
                FROM documents)
            SELECT source, doc_id, n_chars FROM ranked
            WHERE rn <= 3 ORDER BY source, doc_id
        """,
        "extract_metadata": """
            SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                   'Document ' || doc_id || ' | ' || source AS title,
                   'Generator ' || source AS byline,
                   'Synthetic page for ' || doc_id || '.' AS excerpt
            FROM documents ORDER BY doc_id
        """,
        "orders_by_segment": """
            SELECT c_mktsegment, count(*) AS n_orders,
                   count(DISTINCT o_custkey) AS n_customers
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "events_json_stats": """
            SELECT event_type, count(*) AS n_events,
                   CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # language-ID heuristic mirrored exactly: token-empty check, charset
        # shortcut on the first 400 chars, stopword-hit argmax with
        # first-in-order tie-break (en, es, fr, de)
        "langid": r"""
            WITH t AS (
              SELECT doc_id,
                     list_transform(list_filter(string_split_regex(trim(text), '\s+'),
                                                x -> x <> ''),
                                    x -> lower(x)) AS toks,
                     substr(text, 1, 400) AS sample
              FROM documents),
            h AS (
              SELECT doc_id, toks, sample,
                len(list_filter(toks, x -> list_contains(['the','a','and','of','to','in','is','it','that','for'], x))) AS h_en,
                len(list_filter(toks, x -> list_contains(['el','la','de','que','y','en','un','es','no','por'], x))) AS h_es,
                len(list_filter(toks, x -> list_contains(['le','la','de','et','un','est','que','pour','dans','ce'], x))) AS h_fr,
                len(list_filter(toks, x -> list_contains(['der','die','das','und','ist','von','zu','mit','den','ein'], x))) AS h_de
              FROM t)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
              CASE WHEN len(toks) = 0 THEN 'und'
                   WHEN regexp_matches(sample, '[\x{4e00}-\x{9fff}]') THEN 'zh'
                   WHEN regexp_matches(sample, '[\x{0400}-\x{04ff}]') THEN 'ru'
                   WHEN regexp_matches(sample, '[\x{0600}-\x{06ff}]') THEN 'ar'
                   WHEN h_en = 0 AND h_es = 0 AND h_fr = 0 AND h_de = 0 THEN 'und'
                   WHEN h_en >= h_es AND h_en >= h_fr AND h_en >= h_de THEN 'en'
                   WHEN h_es >= h_fr AND h_es >= h_de THEN 'es'
                   WHEN h_fr >= h_de THEN 'fr'
                   ELSE 'de' END AS lang_pred
            FROM h ORDER BY doc_id
        """,
        # confusion matrix over the SAME langid CTE, joined to the stored
        # label — the classifier-evaluation view of the heuristic
        "langid_confusion": r"""
            WITH t AS (
              SELECT doc_id, lang,
                     list_transform(list_filter(string_split_regex(trim(text), '\s+'),
                                                x -> x <> ''),
                                    x -> lower(x)) AS toks,
                     substr(text, 1, 400) AS sample
              FROM documents),
            h AS (
              SELECT doc_id, lang, toks, sample,
                len(list_filter(toks, x -> list_contains(['the','a','and','of','to','in','is','it','that','for'], x))) AS h_en,
                len(list_filter(toks, x -> list_contains(['el','la','de','que','y','en','un','es','no','por'], x))) AS h_es,
                len(list_filter(toks, x -> list_contains(['le','la','de','et','un','est','que','pour','dans','ce'], x))) AS h_fr,
                len(list_filter(toks, x -> list_contains(['der','die','das','und','ist','von','zu','mit','den','ein'], x))) AS h_de
              FROM t),
            p AS (
              SELECT lang AS lang_true,
                CASE WHEN len(toks) = 0 THEN 'und'
                     WHEN regexp_matches(sample, '[\x{4e00}-\x{9fff}]') THEN 'zh'
                     WHEN regexp_matches(sample, '[\x{0400}-\x{04ff}]') THEN 'ru'
                     WHEN regexp_matches(sample, '[\x{0600}-\x{06ff}]') THEN 'ar'
                     WHEN h_en = 0 AND h_es = 0 AND h_fr = 0 AND h_de = 0 THEN 'und'
                     WHEN h_en >= h_es AND h_en >= h_fr AND h_en >= h_de THEN 'en'
                     WHEN h_es >= h_fr AND h_es >= h_de THEN 'es'
                     WHEN h_fr >= h_de THEN 'fr'
                     ELSE 'de' END AS lang_pred
              FROM h)
            SELECT lang_true, lang_pred,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM p GROUP BY lang_true, lang_pred
            ORDER BY lang_true, lang_pred
        """,
        # quality formula mirrored term-by-term; floor(x*1e6+0.5)/1e6 is the
        # shared half-up rounding (see functions/text_stats.py)
        # pdf_extract synthesizes one 40-word-paragraph text object per
        # block, so block/char counts are exactly reconstructable from text
        "pdf_extract": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS ts
              FROM documents),
            w AS (
              SELECT doc_id, unnest(ts) AS tok, generate_subscripts(ts, 1) AS idx FROM toks),
            paras AS (
              SELECT doc_id, (idx - 1) // 40 AS para,
                     sum(length(tok)) + count(*) - 1 AS chars  -- (n-1) joiner spaces
              FROM w GROUP BY doc_id, para),
            agg AS (
              SELECT doc_id, count(*) AS n_blocks, sum(chars) AS n_chars
              FROM paras GROUP BY doc_id)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(a.n_blocks, 1) AS INTEGER) AS n_blocks,
                   CAST(coalesce(a.n_chars, 0) AS BIGINT) AS n_chars
            FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
            ORDER BY CAST(d.doc_id AS BIGINT)
        """,
        # media_features synthesizes an 8-bit grayscale PNG per doc (w = 8 +
        # id%8, h = 8 + id%5, pixels = md5 chain over "id:block") and decodes
        # it with the pure-Python PNG codec — geometry and pixel sums are
        # exactly reconstructable from the same md5 arithmetic in SQL, so a
        # hash match certifies the real encode→decode path end to end
        "media_features": r"""
            WITH d AS (
              SELECT doc_id, 8 + doc_id % 8 AS w, 8 + doc_id % 5 AS h
              FROM documents WHERE doc_id < 64),
            e AS (SELECT doc_id, w, h, w * h AS n FROM d),
            blocks AS (
              SELECT doc_id, w, h, n, unnest(range(0, (n + 15) // 16)) AS b
              FROM e),
            hx AS (
              SELECT doc_id, w, h, n, b, md5(doc_id || ':' || b) AS hh
              FROM blocks),
            bytes AS (
              SELECT doc_id, w, h, n, b, hh, unnest(range(0, 16)) AS j
              FROM hx),
            v AS (
              SELECT doc_id, w, h, n,
                     CAST(('0x' || substr(hh, j * 2 + 1, 2)) AS BIGINT) AS byte
              FROM bytes WHERE b * 16 + j < n)
            SELECT 'mem://doc/' || doc_id AS media_ref,
                   'image' AS media_type,
                   CAST(w AS INTEGER) AS width,
                   CAST(h AS INTEGER) AS height,
                   CAST(n AS BIGINT) AS n_pixels,
                   CAST(sum(byte) AS BIGINT) AS pixel_sum,
                   true AS decode_ok
            FROM v GROUP BY doc_id, w, h, n ORDER BY media_ref
        """,
        # interleaved budget: text tokens + ceil(w/4)*ceil(h/4) patches,
        # geometry mirrored from the PNG synthesis arithmetic
        "multimodal_token_budget": """
            WITH t AS (
              SELECT doc_id,
                     CAST(len(list_filter(
                         string_split_regex(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS BIGINT) AS text_tokens,
                     8 + doc_id % 8 AS w, 8 + doc_id % 5 AS h
              FROM documents WHERE doc_id < 64)
            SELECT doc_id, text_tokens,
                   CAST(((w + 3) // 4) * ((h + 3) // 4) AS BIGINT)
                       AS image_patches,
                   CAST(text_tokens + ((w + 3) // 4) * ((h + 3) // 4)
                        AS BIGINT) AS total_tokens
            FROM t ORDER BY doc_id
        """,
        # audio_features synthesizes a 16-bit PCM WAV per doc (rate/channels/
        # length vary by id; sample bytes are the md5 chain over "id:a{block}")
        # and decodes it with the pure-Python RIFF/WAVE codec — little-endian
        # int16 reconstruction from the md5 hex mirrors exactly in SQL, so a
        # hash match certifies the real encode→decode→stats path
        "audio_features": r"""
            WITH d AS (
              SELECT doc_id,
                     1 + doc_id % 2 AS channels,
                     8000 * (1 + doc_id % 3) AS rate,
                     (50 + doc_id % 40) * (1 + doc_id % 2) AS n_samples
              FROM documents WHERE doc_id < 64),
            blocks AS (
              SELECT doc_id, channels, rate, n_samples,
                     unnest(range(0, (2 * n_samples + 15) // 16)) AS b
              FROM d),
            hx AS (
              SELECT doc_id, channels, rate, n_samples, b,
                     md5(doc_id || ':a' || b) AS hh
              FROM blocks),
            pairs AS (
              SELECT doc_id, channels, rate, n_samples, b, hh,
                     unnest(range(0, 8)) AS j
              FROM hx),
            s AS (
              SELECT doc_id, channels, rate, n_samples,
                     CAST(('0x' || substr(hh, j * 4 + 1, 2)) AS BIGINT)
                     + 256 * CAST(('0x' || substr(hh, j * 4 + 3, 2)) AS BIGINT)
                       AS u
              FROM pairs WHERE b * 8 + j < n_samples),
            v AS (
              SELECT doc_id, channels, rate, n_samples,
                     CASE WHEN u >= 32768 THEN u - 65536 ELSE u END AS val
              FROM s)
            SELECT 'mem://audio/' || doc_id AS media_ref,
                   'audio' AS media_type,
                   CAST(rate AS INTEGER) AS sample_rate,
                   CAST(channels AS INTEGER) AS channels,
                   CAST(n_samples AS BIGINT) AS n_samples,
                   CAST((n_samples // channels) * 1000 // rate AS BIGINT)
                     AS duration_ms,
                   CAST(sum(val) AS BIGINT) AS sample_sum,
                   CAST(max(abs(val)) AS INTEGER) AS peak_abs,
                   true AS decode_ok
            FROM v GROUP BY doc_id, channels, rate, n_samples
            ORDER BY media_ref
        """,
        # media_resize re-decodes the PNGs the resize stage re-encoded; the
        # integer-mean box pooling (floor cell map src(y,x) → dst(y*4//h,
        # x*4//w), per-cell sum//count) mirrors exactly in SQL
        "media_resize": r"""
            WITH d AS (
              SELECT doc_id, 8 + doc_id % 8 AS w, 8 + doc_id % 5 AS h
              FROM documents WHERE doc_id < 64),
            e AS (SELECT doc_id, w, h, w * h AS n FROM d),
            blocks AS (
              SELECT doc_id, w, h, n, unnest(range(0, (n + 15) // 16)) AS b
              FROM e),
            hx AS (
              SELECT doc_id, w, h, n, b, md5(doc_id || ':' || b) AS hh
              FROM blocks),
            bytes AS (
              SELECT doc_id, w, h, n, b, hh, unnest(range(0, 16)) AS j
              FROM hx),
            v AS (
              SELECT doc_id, w, h, b * 16 + j AS idx,
                     CAST(('0x' || substr(hh, j * 2 + 1, 2)) AS BIGINT) AS byte
              FROM bytes WHERE b * 16 + j < n),
            cells AS (
              SELECT doc_id,
                     ((idx // w) * 4) // h AS cy,
                     ((idx % w) * 4) // w AS cx,
                     byte
              FROM v),
            cellvals AS (
              SELECT doc_id, cy, cx, sum(byte) // count(*) AS cv
              FROM cells GROUP BY doc_id, cy, cx)
            SELECT 'mem://doc/' || doc_id AS media_ref,
                   'image' AS media_type,
                   CAST(4 AS INTEGER) AS width,
                   CAST(4 AS INTEGER) AS height,
                   CAST(16 AS BIGINT) AS n_pixels,
                   CAST(sum(cv) AS BIGINT) AS pixel_sum,
                   true AS decode_ok
            FROM cellvals GROUP BY doc_id ORDER BY media_ref
        """,
        # video_frames samples frames 0,2,4 (every_n=2, max_frames=3) out of
        # each doc's 2–6-frame FPK1 pack; per-frame pixels are the md5 chain
        # over "id:f{frame}:{block}"
        "video_frames": r"""
            WITH d AS (
              SELECT doc_id, 4 + doc_id % 3 AS w, 4 AS h, 2 + doc_id % 5 AS nf
              FROM documents WHERE doc_id < 48),
            fr AS (
              SELECT doc_id, w, h, w * h AS npix, unnest(range(0, nf)) AS k
              FROM d),
            sampled AS (
              SELECT * FROM fr WHERE k % 2 = 0 AND k // 2 < 3),
            blocks AS (
              SELECT doc_id, w, h, npix, k,
                     unnest(range(0, (npix + 15) // 16)) AS b
              FROM sampled),
            hx AS (
              SELECT doc_id, w, h, npix, k, b,
                     md5(doc_id || ':f' || k || ':' || b) AS hh
              FROM blocks),
            bytes AS (
              SELECT doc_id, w, h, npix, k, b, hh, unnest(range(0, 16)) AS j
              FROM hx),
            v AS (
              SELECT doc_id, w, h, k,
                     CAST(('0x' || substr(hh, j * 2 + 1, 2)) AS BIGINT) AS byte
              FROM bytes WHERE b * 16 + j < npix)
            SELECT 'mem://video/' || doc_id AS media_ref,
                   'video' AS media_type,
                   CAST(k AS INTEGER) AS frame_index,
                   CAST(w AS INTEGER) AS width,
                   CAST(h AS INTEGER) AS height,
                   CAST(sum(byte) AS BIGINT) AS pixel_sum,
                   true AS decode_ok
            FROM v GROUP BY doc_id, w, h, k
            ORDER BY media_ref, frame_index
        """,
        # stratified_sample: per-lang integer keep threshold (smallest
        # stratum * 1e6 // stratum size) against md5(doc_id) % 1e6 — the
        # same md5 bucket arithmetic as sample_docs
        "stratified_sample": """
            WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
            m AS (SELECT min(n) AS mn FROM c),
            thr AS (SELECT lang, (mn * 1000000) // n AS t FROM c, m)
            SELECT d.doc_id, d.lang
            FROM documents d JOIN thr USING (lang)
            WHERE CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8))
                       AS BIGINT) % 1000000 < thr.t
            ORDER BY d.doc_id
        """,
        # events_range_join: 20 windows over [min ts, max ts), stride =
        # span // 24, width = 3 * stride (overlapping) — integer-µs
        # arithmetic both sides; one event can land in up to 3 windows
        "events_range_join": """
            WITH b AS (
              SELECT epoch_us(min(ts)) AS e0, epoch_us(max(ts)) AS e1
              FROM events),
            p AS (
              SELECT e0, greatest((e1 - e0) // 24, 1) AS stride FROM b),
            w AS (
              SELECT k.k AS campaign_id,
                     e0 + k.k * stride AS lo_us,
                     e0 + k.k * stride + 3 * stride AS hi_us
              FROM p, unnest(generate_series(0, 19)) AS k(k)),
            j AS (
              SELECT w.campaign_id, w.lo_us, w.hi_us,
                     count(e.ts) AS n_events,
                     coalesce(sum(CAST(round(e.value * 100) AS BIGINT)), 0)
                       AS sum_value_c
              FROM w LEFT JOIN events e
                ON epoch_us(e.ts) >= w.lo_us AND epoch_us(e.ts) < w.hi_us
              GROUP BY 1, 2, 3)
            SELECT CAST(campaign_id AS INTEGER) AS campaign_id,
                   CAST(lo_us AS BIGINT) AS lo_us,
                   CAST(hi_us AS BIGINT) AS hi_us,
                   CAST(n_events AS BIGINT) AS n_events,
                   CAST(sum_value_c AS BIGINT) AS sum_value_c
            FROM j ORDER BY campaign_id
        """,
        # decontaminate: eval slice is doc_id % 17 == 3; a non-eval doc is
        # contaminated iff any of its distinct word 8-grams occurs in the
        # eval slice (same tokenization as dup_ngram_stats)
        "decontaminate": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            grams AS (
              SELECT doc_id, array_to_string(ts[i.g : i.g+7], ' ') AS gram
              FROM toks, unnest(generate_series(1, len(ts)-7)) AS i(g)),
            dg AS (SELECT DISTINCT doc_id, gram FROM grams),
            ev AS (SELECT DISTINCT gram FROM dg WHERE doc_id % 17 = 3),
            tot AS (SELECT doc_id, count(*) AS n_grams FROM dg GROUP BY doc_id),
            hits AS (
              SELECT d.doc_id, count(*) AS n_hits
              FROM dg d JOIN ev USING (gram)
              WHERE d.doc_id % 17 <> 3 GROUP BY d.doc_id)
            SELECT CAST(doc.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(t.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
                   coalesce(h.n_hits, 0) > 0 AS contaminated
            FROM documents doc
            LEFT JOIN tot t ON doc.doc_id = t.doc_id
            LEFT JOIN hits h ON doc.doc_id = h.doc_id
            WHERE doc.doc_id % 17 <> 3
            ORDER BY doc_id
        """,
        "pii_scrub": r"""
            WITH s AS (
              SELECT doc_id,
                     regexp_replace(text,
                       '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g') AS after_email,
                     len(regexp_extract_all(text,
                       '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}')) AS n_emails
              FROM documents)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, n_emails,
                   len(regexp_extract_all(after_email,
                     '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ips,
                   length(regexp_replace(after_email,
                     '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g')) AS clean_len
            FROM s ORDER BY doc_id
        """,
        "doc_chunks": r"""
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+')) END AS n
              FROM documents),
            c AS (
              SELECT doc_id, n, unnest(range(0, (n + 127) // 128)) AS chunk_id
              FROM t WHERE n > 0)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(chunk_id AS BIGINT) AS chunk_id,
                   CAST(CASE WHEN (chunk_id + 1) * 128 <= n THEN 128
                             ELSE n - chunk_id * 128 END AS BIGINT) AS n_tokens
            FROM c ORDER BY doc_id, chunk_id
        """,
        # the span flagship, projected to SQL-reconstructable stats: one
        # text span per 40-word paragraph plus the inline media span;
        # single-paragraph pages take grabArticle's body fallback and add
        # the nav/footer runs (n_paras = 1 branch) — a hash match certifies
        # parse → grabArticle → span emission per document
        "span_stats": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS ts
              FROM documents),
            w AS (
              SELECT doc_id, unnest(ts) AS tok, generate_subscripts(ts, 1) AS idx FROM toks),
            paras AS (
              SELECT doc_id, (idx - 1) // 40 AS para,
                     sum(length(tok)) + count(*) AS chars  -- (n-1) spaces + '.'
              FROM w GROUP BY doc_id, para),
            agg AS (
              SELECT doc_id, count(*) AS n_paras, sum(chars) AS chars
              FROM paras GROUP BY doc_id),
            f AS (
              SELECT d.doc_id, coalesce(a.n_paras, 1) AS n_paras,
                     coalesce(a.chars, 1) AS chars
              FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(CASE WHEN n_paras = 1 THEN 4 ELSE n_paras + 1 END AS BIGINT) AS n_spans,
                   CAST(1 AS BIGINT) AS n_media_spans,
                   CAST(CASE WHEN n_paras = 1 THEN chars + 10 ELSE chars END AS BIGINT) AS text_chars
            FROM f ORDER BY doc_id
        """,
        # ORDER certificate: full kind sequence + media ordinal per doc;
        # multi-para pages emit media LAST, single-para body-fallback
        # pages emit nav/para/media/footer (ttmt, media at 2)
        "span_order_certificate": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS ts
              FROM documents),
            w AS (
              SELECT doc_id, unnest(ts) AS tok,
                     generate_subscripts(ts, 1) AS idx FROM toks),
            paras AS (
              SELECT doc_id, (idx - 1) // 40 AS para FROM w GROUP BY 1, 2),
            agg AS (
              SELECT doc_id, count(*) AS n_paras FROM paras GROUP BY doc_id),
            f AS (
              SELECT d.doc_id, coalesce(a.n_paras, 1) AS n_paras
              FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(CASE WHEN n_paras = 1 THEN 4 ELSE n_paras + 1 END
                        AS BIGINT) AS n_spans,
                   CASE WHEN n_paras = 1 THEN 'ttmt'
                        ELSE repeat('t', CAST(n_paras AS INTEGER)) || 'm'
                   END AS kind_seq,
                   CAST(CASE WHEN n_paras = 1 THEN 2 ELSE n_paras END
                        AS BIGINT) AS media_index
            FROM f ORDER BY doc_id
        """,
        # DOM-content certificate: md5 of the FULL extracted text_content
        # plus span/media counts, the media ref and all metadata fields,
        # computed from the real pipeline output written to a parquet sink
        # and read back — the oracle reconstructs the extracted text from
        # the deterministic synthesis (multi-para pages extract to the
        # concatenation of "para."; single-para pages take the body
        # fallback: "home" + "para." + "footer")
        "extract_certificate": r"""
            WITH toks AS (
              SELECT doc_id, source,
                     list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS ts
              FROM documents),
            w AS (
              SELECT doc_id, unnest(ts) AS tok, generate_subscripts(ts, 1) AS idx FROM toks),
            paras AS (
              SELECT doc_id, (idx - 1) // 40 AS para,
                     string_agg(tok, ' ' ORDER BY idx) AS ptext
              FROM w GROUP BY doc_id, para),
            agg AS (
              SELECT doc_id, count(*) AS n_paras,
                     string_agg(ptext || '.', '' ORDER BY para) AS body,
                     sum(CASE WHEN length(ptext) + 1 >= 140
                              THEN sqrt(length(ptext) + 1 - 140) ELSE 0 END) AS score
              FROM paras GROUP BY doc_id),
            f AS (
              SELECT t.doc_id, t.source,
                     coalesce(a.n_paras, 1) AS n_paras,
                     coalesce(a.body, '.') AS body,
                     coalesce(a.score, 0) AS score
              FROM toks t LEFT JOIN agg a ON t.doc_id = a.doc_id),
            c AS (
              SELECT doc_id, source, n_paras, score,
                     CASE WHEN n_paras = 1 THEN 'home' || body || 'footer'
                          ELSE body END AS tc
              FROM f)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   md5(tc) AS content_md5,
                   CAST(length(tc) AS BIGINT) AS length,
                   CAST(CASE WHEN n_paras = 1 THEN 4 ELSE n_paras + 1 END
                        AS BIGINT) AS n_spans,
                   CAST(1 AS BIGINT) AS n_media_spans,
                   'mem://img/' || CAST(doc_id AS VARCHAR) AS media_ref,
                   'Document ' || CAST(doc_id AS VARCHAR) || ' | ' || source AS title,
                   'Generator ' || source AS byline,
                   'Synthetic page for ' || CAST(doc_id AS VARCHAR) || '.' AS excerpt,
                   score > 20 AS readerable
            FROM c ORDER BY doc_id
        """,
        # the synthesized page is deterministic (40-word <p> chunks), so the
        # isProbablyReaderable sqrt scoring is reconstructable in SQL — an
        # end-to-end check of parse → visibility → node scoring, like
        # extract_metadata
        "readerable_flags": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS ts
              FROM documents),
            w AS (
              SELECT doc_id, unnest(ts) AS tok, generate_subscripts(ts, 1) AS idx FROM toks),
            paras AS (
              SELECT doc_id, (idx - 1) // 40 AS para,
                     sum(length(tok)) + count(*) AS chars  -- (n-1) spaces + '.'
              FROM w GROUP BY doc_id, para),
            scores AS (
              SELECT doc_id,
                     sum(CASE WHEN chars >= 140 THEN sqrt(chars - 140) ELSE 0 END) AS score
              FROM paras GROUP BY doc_id)
            SELECT CAST(d.doc_id AS VARCHAR) AS doc_id,
                   coalesce(s.score, 0) > 20 AS readerable
            FROM documents d LEFT JOIN scores s ON d.doc_id = s.doc_id
            ORDER BY CAST(d.doc_id AS VARCHAR)
        """,
        # exact all-pairs word-trigram Jaccard — also certifies the LSH
        # candidate generation has full recall on this corpus (a pair the
        # LSH missed would appear in the oracle and hash-mismatch)
        "ngram_dedup": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            pairs AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0
                          WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0
                          ELSE len(list_intersect(a.sh, b.sh))::DOUBLE
                               / len(list_distinct(a.sh || b.sh))::DOUBLE
                     END AS jaccard
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
            SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
                   floor(jaccard * 1000000 + 0.5) / 1000000 AS jaccard
            FROM pairs WHERE jaccard >= 0.5 ORDER BY doc_a, doc_b
        """,
        # asymmetric containment: |S(a) ∩ S(b)| / |S(a)| over the SAME
        # word-trigram shingles as ngram_dedup — ordered pairs, a-empty
        # excluded; the quadratic oracle checks the prefix-filter join's
        # exact recall
        "containment_pairs": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            pairs AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     len(list_intersect(a.sh, b.sh))::DOUBLE / len(a.sh)::DOUBLE AS containment
              FROM sh a JOIN sh b ON a.doc_id <> b.doc_id
              WHERE len(a.sh) > 0)
            SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
                   floor(containment * 1000000 + 0.5) / 1000000 AS containment
            FROM pairs WHERE containment >= 0.6 ORDER BY doc_a, doc_b
        """,
        # SimHash all-pairs mirror: token hash is md5-first-8-bytes on BOTH
        # sides (bit-identical signatures verified), and 4-band pigeonhole
        # search is EXACT for hamming <= 3 — so the banded pipeline must
        # reproduce the quadratic oracle's pair set precisely
        "simhash_dedup": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_transform(list_filter(string_split_regex(trim(text), '\s+'), x -> x <> ''),
                                    x -> lower(x)) AS ts
              FROM documents),
            tc AS (
              SELECT doc_id, tok, count(*) AS cnt
              FROM (SELECT doc_id, unnest(ts) AS tok FROM toks)
              GROUP BY doc_id, tok),
            h AS (
              SELECT doc_id, cnt,
                     CAST(('0x' || substr(md5(tok), 1, 16)) AS UBIGINT) AS hv
              FROM tc),
            bits AS (
              SELECT doc_id, b.bit,
                     sum(CASE WHEN (hv >> b.bit) & 1 = 1 THEN cnt ELSE -cnt END) AS v
              FROM h CROSS JOIN (SELECT unnest(range(0, 64)) AS bit) b
              GROUP BY doc_id, b.bit),
            sig AS (
              SELECT doc_id,
                     sum(CASE WHEN v > 0 THEN (CAST(1 AS UBIGINT) << bit)
                              ELSE CAST(0 AS UBIGINT) END) AS sim
              FROM bits GROUP BY doc_id),
            allsig AS (
              SELECT d.doc_id, coalesce(s.sim, CAST(0 AS UBIGINT)) AS sim
              FROM documents d LEFT JOIN sig s ON d.doc_id = s.doc_id)
            SELECT CAST(a.doc_id AS BIGINT) AS doc_a, CAST(b.doc_id AS BIGINT) AS doc_b,
                   CAST(bit_count(xor(a.sim, b.sim)) AS INTEGER) AS hamming
            FROM allsig a JOIN allsig b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.sim, b.sim)) <= 3
            ORDER BY doc_a, doc_b
        """,
        # corpus-level near-dedup: connected components via recursive CTE
        # (transitive closure over the verified pair graph), keep the min
        "minhash_dedup_docs": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            p AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id
              WHERE CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0
                         WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0
                         ELSE len(list_intersect(a.sh, b.sh))::DOUBLE
                              / len(list_distinct(a.sh || b.sh))::DOUBLE END >= 0.5),
            edges AS (SELECT doc_a AS u, doc_b AS v FROM p UNION SELECT doc_b, doc_a FROM p),
            reach(u, v) AS (
              SELECT u, v FROM edges
              UNION
              SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
            minlab AS (SELECT u, least(u, min(v)) AS label FROM reach GROUP BY u)
            SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents
            WHERE doc_id NOT IN (SELECT u FROM minlab WHERE label < u)
            ORDER BY doc_id
        """,
        # cluster-size histogram over the same component labeling;
        # singletons = docs never touched by an edge
        "minhash_cluster_sizes": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            p AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id
              WHERE CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0
                         WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0
                         ELSE len(list_intersect(a.sh, b.sh))::DOUBLE
                              / len(list_distinct(a.sh || b.sh))::DOUBLE END >= 0.5),
            edges AS (SELECT doc_a AS u, doc_b AS v FROM p UNION SELECT doc_b, doc_a FROM p),
            reach(u, v) AS (
              SELECT u, v FROM edges
              UNION
              SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
            lab AS (SELECT u, least(u, min(v)) AS label FROM reach GROUP BY u),
            cs AS (SELECT label, CAST(count(*) AS BIGINT) AS cluster_size
                   FROM lab GROUP BY label),
            h AS (SELECT cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
                  FROM cs GROUP BY cluster_size),
            s AS (SELECT CAST(1 AS BIGINT) AS cluster_size,
                         CAST((SELECT count(*) FROM documents)
                              - (SELECT count(*) FROM lab) AS BIGINT)
                             AS n_clusters)
            SELECT * FROM h
            UNION ALL
            SELECT * FROM s WHERE n_clusters > 0
            ORDER BY cluster_size
        """,
        # threshold curve over the SAME quadratic pair semantics; the
        # ppm integerization matches the engine's floor-half-up rounding
        "neardup_threshold_curve": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            p AS (
              SELECT CAST(floor(
                       CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0
                            WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0
                            ELSE len(list_intersect(a.sh, b.sh))::DOUBLE
                                 / len(list_distinct(a.sh || b.sh))::DOUBLE END
                       * 1000000 + 0.5) AS BIGINT) AS j6
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id),
            t(t_ppm) AS (VALUES (500000), (600000), (700000), (800000),
                                (900000))
            SELECT CAST(t_ppm AS BIGINT) AS t_ppm,
                   CAST(coalesce(sum(CASE WHEN p.j6 >= t.t_ppm
                                          THEN 1 ELSE 0 END), 0) AS BIGINT)
                       AS n_pairs
            FROM t LEFT JOIN p ON true
            GROUP BY t_ppm ORDER BY t_ppm
        """,
        # per-cluster source composition over the same component
        # labeling; majority share in exact floor-half-up ppm
        "dedup_cluster_purity": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            p AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id
              WHERE CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0
                         WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0
                         ELSE len(list_intersect(a.sh, b.sh))::DOUBLE
                              / len(list_distinct(a.sh || b.sh))::DOUBLE END >= 0.5),
            edges AS (SELECT doc_a AS u, doc_b AS v FROM p UNION SELECT doc_b, doc_a FROM p),
            reach(u, v) AS (
              SELECT u, v FROM edges
              UNION
              SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
            lab AS (SELECT u, least(u, min(v)) AS label FROM reach GROUP BY u),
            ls AS (SELECT l.label, d.source
                   FROM lab l JOIN documents d ON d.doc_id = l.u),
            pcnt AS (SELECT label, source, count(*) AS n
                     FROM ls GROUP BY 1, 2),
            agg AS (SELECT label, sum(n) AS size, count(*) AS n_sources,
                           max(n) AS majority_n
                    FROM pcnt GROUP BY label)
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(size AS BIGINT) AS cluster_size,
                   CAST(n_sources AS BIGINT) AS n_sources,
                   CAST(majority_n AS BIGINT) AS majority_n,
                   CAST((majority_n * 2000000 + size) // (2 * size)
                        AS BIGINT) AS purity_ppm
            FROM agg ORDER BY label
        """,
        # crawl-half drift: midpoint of the doc_id RANGE (footer stats
        # are exact for ints); exact-ppm means, signed integer delta
        "source_drift_audit": """
            WITH mid AS (SELECT (min(doc_id) + max(doc_id)) // 2 AS m
                         FROM documents),
            t AS (SELECT source,
                         doc_id <= (SELECT m FROM mid) AS early,
                         len(regexp_extract_all(lower(text), '[a-z0-9]+'))
                             AS tok
                  FROM documents),
            a AS (SELECT source,
                         sum(CASE WHEN early THEN 1 ELSE 0 END) AS ne,
                         sum(CASE WHEN early THEN 0 ELSE 1 END) AS nl,
                         sum(CASE WHEN early THEN tok ELSE 0 END) AS te,
                         sum(CASE WHEN early THEN 0 ELSE tok END) AS tl
                  FROM t GROUP BY source)
            SELECT source, CAST(ne AS BIGINT) AS n_early,
                   CAST(nl AS BIGINT) AS n_late,
                   CAST(CASE WHEN ne = 0 THEN 0
                             ELSE (te * 2000000 + ne) // (2 * ne) END
                        AS BIGINT) AS mean_tokens_early_ppm,
                   CAST(CASE WHEN nl = 0 THEN 0
                             ELSE (tl * 2000000 + nl) // (2 * nl) END
                        AS BIGINT) AS mean_tokens_late_ppm,
                   CAST(CASE WHEN nl = 0 THEN 0
                             ELSE (tl * 2000000 + nl) // (2 * nl) END
                        - CASE WHEN ne = 0 THEN 0
                               ELSE (te * 2000000 + ne) // (2 * ne) END
                        AS BIGINT) AS drift_ppm
            FROM a ORDER BY source
        """,
        "minhash_dedup": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            pairs AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0
                          WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0
                          ELSE len(list_intersect(a.sh, b.sh))::DOUBLE
                               / len(list_distinct(a.sh || b.sh))::DOUBLE
                     END AS jaccard
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
            SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b
            FROM pairs WHERE jaccard >= 0.5 ORDER BY doc_a, doc_b
        """,
        # cross-doc duplicated word-8-gram counts per document (docs with
        # <8 tokens emit no grams and are absent on both sides)
        "dup_ngram_stats": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            grams AS (
              SELECT doc_id, array_to_string(ts[i.g : i.g+7], ' ') AS gram
              FROM toks, unnest(generate_series(1, len(ts)-7)) AS i(g)),
            dg AS (SELECT DISTINCT doc_id, gram FROM grams),
            cnt AS (SELECT gram, count(*) AS nd FROM dg GROUP BY gram)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   count(*) AS n_grams,
                   CAST(sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                       AS dup_grams,
                   floor(CAST(sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS DOUBLE)
                         / count(*) * 1000000 + 0.5) / 1000000 AS dup_ratio
            FROM dg d JOIN cnt c USING (gram)
            GROUP BY d.doc_id ORDER BY doc_id
        """,
        # idf = ln(N/df); rank on the 1e-6-half-up-rounded score (term
        # tie-break) so the cross-engine float ranking is stable
        "tfidf_top_terms": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                        t -> t <> '')) AS term
              FROM documents),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term),
            df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
            n AS (SELECT count(*) AS n FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.term,
                     floor(tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) * 1000000 + 0.5)
                         / 1000000 AS tfidf
              FROM tf JOIN df USING (term) CROSS JOIN n),
            ranked AS (
              SELECT doc_id, term, tfidf,
                     CAST(row_number() OVER (
                         PARTITION BY doc_id ORDER BY tfidf DESC, term) AS INTEGER)
                         AS rank
              FROM scored)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, rank, term, tfidf
            FROM ranked WHERE rank <= 3 ORDER BY doc_id, rank
        """,
        # TPC-H Q3-style top-10 orders by revenue for one segment; revenue
        # in exact integer 1e-4-dollar units (cents x discount-percent) so
        # the cross-engine sum is order-independent; orderkey tie-break
        "q3_top_orders": """
            SELECT CAST(l.l_orderkey AS BIGINT) AS o_orderkey,
                   o.o_orderdate,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS revenue_c4
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1998-01-01'
              AND l.l_shipdate > TIMESTAMP '1998-01-01'
            GROUP BY l.l_orderkey, o.o_orderdate
            ORDER BY revenue_c4 DESC, o_orderkey
            LIMIT 10
        """,
        # TPC-H Q5: same-nation customer+supplier revenue, one region, one
        # order-date year; integer cent x cent revenue like q3
        "q5_local_supplier_volume": """
            SELECT n.n_name,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                     AS revenue_c4
            FROM customer c
            JOIN orders o ON c.c_custkey = o.o_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
                           AND c.c_nationkey = s.s_nationkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            WHERE r.r_name = 'ASIA'
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY n.n_name
            ORDER BY revenue_c4 DESC, n_name
        """,
        "q14_promo_revenue": """
            SELECT CAST(coalesce(sum(CASE WHEN p.p_type = 'PROMO'
                         THEN CAST(round(l.l_extendedprice * 100) AS BIGINT)
                              * (100 - CAST(round(l.l_discount * 100)
                                            AS BIGINT)) END), 0) AS BIGINT)
                     AS promo_rev_c4,
                   CAST(coalesce(sum(
                         CAST(round(l.l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l.l_discount * 100)
                                       AS BIGINT))), 0) AS BIGINT)
                     AS total_rev_c4
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
              AND l.l_shipdate < TIMESTAMP '1997-01-01'
        """,
        # tokenizer application: rank-by-(count DESC, token) ids over the
        # corpus's own top-16 vocabulary, OOV -1, 0-based positions
        "vocab_encode": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text),
                                                    '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            exploded AS (
              SELECT doc_id, unnest(ts) AS tok,
                     generate_subscripts(ts, 1) AS pos
              FROM toks),
            counts AS (SELECT tok, count(*) AS n FROM exploded GROUP BY 1),
            vocab AS (
              SELECT tok, CAST(row_number() OVER (ORDER BY n DESC, tok) - 1
                               AS BIGINT) AS tid
              FROM counts QUALIFY tid < 16)
            SELECT CAST(e.doc_id AS BIGINT) AS doc_id,
                   CAST(e.pos - 1 AS BIGINT) AS pos,
                   CAST(coalesce(v.tid, -1) AS BIGINT) AS token_id
            FROM exploded e LEFT JOIN vocab v ON v.tok = e.tok
            ORDER BY doc_id, pos
        """,
        # per-source duplication rate ingredients
        "dedup_rate_by_source": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT md5(text)) AS BIGINT) AS n_distinct
            FROM documents GROUP BY 1 ORDER BY 1
        """,
        # kNN label vote: same exact-ranking mirror as knn_bruteforce,
        # majority with (votes DESC, label) tie-break
        "knn_label_vote": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 scored AS (
                    SELECT q.query_id, e.vec_id AS neighbor_id,
                           list_cosine_similarity(q.qv, e.embedding) AS sim
                    FROM q CROSS JOIN embeddings e),
                 ranked AS (
                    SELECT query_id, neighbor_id,
                           row_number() OVER (
                               PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id) AS rank
                    FROM scored),
                 votes AS (
                    SELECT t.query_id, e.label, count(*) AS votes
                    FROM ranked t JOIN embeddings e
                      ON e.vec_id = t.neighbor_id
                    WHERE t.rank <= 10 GROUP BY 1, 2)
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   CAST(label AS INTEGER) AS predicted_label,
                   CAST(votes AS BIGINT) AS votes
            FROM votes
            QUALIFY row_number() OVER (
                PARTITION BY query_id ORDER BY votes DESC, label) = 1
            ORDER BY query_id
        """,
        # integer TF-IDF retrieval: w_t = (1000*N) // df_t (BIGINT floor
        # division), score = sum of tf*w — hash-exact, no floats
        "search_topk": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text),
                                                           '[^a-z0-9]+'),
                                        t -> t <> '')) AS term
              FROM documents),
            tf AS (
              SELECT doc_id, term, count(*) AS tf FROM toks
              WHERE term IN ('table', 'scan', 'merge') GROUP BY 1, 2),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            n AS (SELECT count(*) AS n FROM documents),
            w AS (SELECT term, (1000 * n.n) // df.df AS w FROM df, n),
            sc AS (SELECT tf.doc_id, sum(tf.tf * w.w) AS score
                   FROM tf JOIN w USING (term) GROUP BY 1)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(score AS BIGINT) AS score
            FROM sc ORDER BY score DESC, doc_id LIMIT 10
        """,
        # RFM features: purchase-only cents, whole-day recency vs the
        # corpus max timestamp (BIGINT floor division == numpy //)
        "user_rfm": """
            WITH g AS (SELECT max(ts) AS m FROM events)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(count(*) AS BIGINT) AS frequency,
                   CAST(coalesce(sum(CASE WHEN event_type = 'purchase'
                        THEN CAST(round(value * 100) AS BIGINT) END), 0)
                      AS BIGINT) AS monetary_c,
                   CAST((epoch_us((SELECT m FROM g)) - epoch_us(max(ts)))
                        // 86400000000 AS BIGINT) AS recency_days
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        # data card: exact discrete median (quantile_disc = the value at
        # 0-based rank (n-1)//2), token counts on the shared tokenizer
        "data_card": """
            WITH t AS (
              SELECT source, lang, n_chars,
                     len(list_filter(string_split_regex(lower(text),
                                                        '[^a-z0-9]+'),
                                     x -> x <> '')) AS n_tok
              FROM documents)
            SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tok) AS BIGINT) AS total_tokens,
                   CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50_chars
            FROM t GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # TPC-H Q6: integer cent×cent revenue with the discount band
        # compared in rounded cents (matches the engine's _cents half-up)
        "q6_forecast_revenue": """
            SELECT CAST(coalesce(sum(
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * CAST(round(l_discount * 100) AS BIGINT)), 0)
                   AS BIGINT) AS revenue_c4,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND l_quantity < 24
        """,
        # TPC-H Q4 shape: the EXISTS stays a true correlated semi-join in
        # the oracle; the engine evaluates it as min(shipdate) < orderdate
        "q4_priority_anomalies": """
            WITH w AS (
              SELECT o_orderkey, o_orderdate, o_orderpriority FROM orders
              WHERE o_orderdate >= TIMESTAMP '1996-01-01'
                AND o_orderdate < TIMESTAMP '1997-01-01')
            SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
            FROM w
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = w.o_orderkey
                            AND l.l_shipdate < w.o_orderdate)
            GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q18 shape: HAVING on the per-order quantity sum, then the
        # customer join only for the k-row head
        "q18_large_orders": """
            WITH t AS (
              SELECT l_orderkey,
                     CAST(sum(l_quantity) AS BIGINT) AS total_qty
              FROM lineitem GROUP BY 1 HAVING sum(l_quantity) > 150)
            SELECT c.c_name, CAST(c.c_custkey AS BIGINT) AS c_custkey,
                   CAST(o.o_orderkey AS BIGINT) AS o_orderkey, t.total_qty,
                   CAST(round(o.o_totalprice * 100) AS BIGINT) AS price_c
            FROM t JOIN orders o ON o.o_orderkey = t.l_orderkey
                   JOIN customer c ON c.c_custkey = o.o_custkey
            ORDER BY price_c DESC, o_orderkey LIMIT 10
        """,
        # rolling windows per user: ROWS frame (3 preceding + current,
        # ts/event_id order) and RANGE frame (60 min preceding + current,
        # ts order, peers included); sums in exact integer cents (values
        # are non-negative so round() == the engine's half-up floor)
        "events_rolling": """
            SELECT CAST(event_id AS BIGINT) AS event_id,
                   CAST(user_id AS BIGINT) AS user_id,
                   CAST(row_number() OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                   ) AS BIGINT) AS rn,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS roll_sum_c,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
                        PARTITION BY user_id ORDER BY ts
                        RANGE BETWEEN INTERVAL 60 MINUTES PRECEDING
                              AND CURRENT ROW
                   ) AS BIGINT) AS range_sum_c
            FROM events
            ORDER BY event_id
        """,
        # exact rank-semantics quantiles: p_q = the ceil(q*n)-th smallest
        # cents value per type (no interpolation, so integer-exact)
        "events_quantiles": """
            WITH ranked AS (
                SELECT event_type,
                       CAST(round(value * 100) AS BIGINT) AS v_c,
                       row_number() OVER (
                           PARTITION BY event_type ORDER BY value, event_id
                       ) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events
            )
            SELECT event_type,
                   CAST(max(CASE WHEN rn = CAST(ceil(0.25 * n) AS BIGINT)
                            THEN v_c END) AS BIGINT) AS p25_c,
                   CAST(max(CASE WHEN rn = CAST(ceil(0.50 * n) AS BIGINT)
                            THEN v_c END) AS BIGINT) AS p50_c,
                   CAST(max(CASE WHEN rn = CAST(ceil(0.75 * n) AS BIGINT)
                            THEN v_c END) AS BIGINT) AS p75_c,
                   CAST(max(CASE WHEN rn = CAST(ceil(0.95 * n) AS BIGINT)
                            THEN v_c END) AS BIGINT) AS p95_c,
                   CAST(max(n) AS BIGINT) AS n
            FROM ranked GROUP BY event_type ORDER BY event_type
        """,
        # anti-join: customers with no orders since the cutoff (churn), per
        # segment
        "customers_without_orders": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_no_orders
            FROM customer c
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderdate >= TIMESTAMP '2000-01-01'
            )
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        # exact distinct users per event type
        "events_user_counts": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # text hygiene canonical form: lower, collapse non-alnum runs to one
        # space, trim — RE2 on both sides, md5 of the result
        "normalize_text": r"""
            WITH n AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))
                       AS nt
              FROM documents)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(len(nt) AS BIGINT) AS norm_len,
                   md5(nt) AS norm_md5
            FROM n ORDER BY doc_id
        """,
        # deterministic 80/10/10 split by md5(doc_id) % 100, per language
        "split_assign": """
            WITH b AS (
              SELECT lang,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                          AS BIGINT) % 100 AS bk
              FROM documents)
            SELECT CASE WHEN bk < 80 THEN 'train'
                        WHEN bk < 90 THEN 'valid'
                        ELSE 'test' END AS split,
                   lang, CAST(count(*) AS BIGINT) AS n_docs
            FROM b GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # seeded deterministic shuffle: first 50 docs by md5('shuffle42:'||id)
        "corpus_shuffle": """
            WITH k AS (
              SELECT doc_id,
                     md5('shuffle42:' || CAST(doc_id AS VARCHAR)) AS shuffle_key
              FROM documents)
            SELECT CAST(row_number() OVER (ORDER BY shuffle_key, doc_id)
                        AS BIGINT) AS shuffle_rank,
                   doc_id, shuffle_key
            FROM k ORDER BY shuffle_key, doc_id LIMIT 50
        """,
        # within-doc word-bigram repetition profile (docs with >=2 tokens);
        # fraction is half-up at 1e-6 with the same op order as the engine
        "repetition_stats": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT doc_id, ts[i.g] || ' ' || ts[i.g+1] AS bg
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(g)),
            bc AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY 1, 2),
            agg AS (
              SELECT doc_id, sum(c) AS n_bigrams, count(*) AS distinct_bigrams,
                     max(c) AS top_bigram_n
              FROM bc GROUP BY 1)
            SELECT CAST(a.doc_id AS BIGINT) AS doc_id,
                   CAST(len(t.ts) AS BIGINT) AS n_tokens,
                   CAST(n_bigrams AS BIGINT) AS n_bigrams,
                   CAST(distinct_bigrams AS BIGINT) AS distinct_bigrams,
                   CAST(top_bigram_n AS BIGINT) AS top_bigram_n,
                   floor((n_bigrams - distinct_bigrams) * 1000000.0 / n_bigrams
                         + 0.5) / 1000000.0 AS dup_bigram_frac
            FROM agg a JOIN toks t ON a.doc_id = t.doc_id
            ORDER BY doc_id
        """,
        # inverted-index posting stats: top 20 terms by (df desc, term asc)
        "inverted_index": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            terms AS (SELECT doc_id, u.t AS term FROM toks, unnest(ts) AS u(t)),
            tc AS (SELECT term, doc_id, count(*) AS tf FROM terms GROUP BY 1, 2)
            SELECT term,
                   CAST(count(*) AS BIGINT) AS df,
                   CAST(sum(tf) AS BIGINT) AS tf_total,
                   CAST(min(doc_id) AS BIGINT) AS first_doc,
                   CAST(max(doc_id) AS BIGINT) AS last_doc
            FROM tc GROUP BY term
            ORDER BY df DESC, term LIMIT 20
        """,
        # pivot: per-user conditional counts, one column per event type
        "events_pivot": """
            SELECT user_id,
                   CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_view,
                   CAST(count(*) AS BIGINT) AS n_total
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        # percentile length filter: keep docs inside the exact-rank
        # [p05, p95] band (value at 1-indexed rank ceil(pct*N)), per lang
        "length_filter": """
            WITH o AS (
              SELECT n_chars, row_number() OVER (ORDER BY n_chars) AS rn,
                     count(*) OVER () AS n
              FROM documents),
            lo AS (SELECT n_chars AS v FROM o
                   WHERE rn = CAST(ceil(0.05 * n) AS BIGINT)),
            hi AS (SELECT n_chars AS v FROM o
                   WHERE rn = CAST(ceil(0.95 * n) AS BIGINT))
            SELECT lang, CAST(count(*) AS BIGINT) AS n_kept
            FROM documents, lo, hi
            WHERE n_chars >= lo.v AND n_chars <= hi.v
            GROUP BY lang ORDER BY lang
        """,
        # greedy 256-token sequence packing per source in doc_id order:
        # the recursive CTE replays the same sequential fill/reset scan
        "pack_sequences": """
            WITH RECURSIVE toks AS (
              SELECT doc_id, source,
                     len(list_filter(
                       string_split_regex(lower(text), '[^a-z0-9]+'),
                       t -> t <> '')) AS nt
              FROM documents),
            ord AS (
              SELECT doc_id, source, nt,
                     row_number() OVER (PARTITION BY source ORDER BY doc_id)
                       AS rn
              FROM toks),
            pack AS (
              SELECT doc_id, source, nt, rn,
                     CAST(0 AS BIGINT) AS bin_id, nt AS fill
              FROM ord WHERE rn = 1
              UNION ALL
              SELECT o.doc_id, o.source, o.nt, o.rn,
                     CASE WHEN p.fill + o.nt <= 256 THEN p.bin_id
                          ELSE p.bin_id + 1 END,
                     CASE WHEN p.fill + o.nt <= 256 THEN p.fill + o.nt
                          ELSE o.nt END
              FROM pack p JOIN ord o
                ON o.source = p.source AND o.rn = p.rn + 1)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, source,
                   CAST(bin_id AS BIGINT) AS bin_id
            FROM pack ORDER BY doc_id
        """,
        # substring-dedup removal mask: a token position is covered iff a
        # word 8-gram starting at d in [p-7, p] occurs >=2 times anywhere
        # in the corpus (occurrences, not distinct docs — a within-doc
        # repeat is a duplicate too)
        "dup_span_coverage": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            grams AS (
              SELECT doc_id, i.g AS pos,
                     array_to_string(ts[i.g : i.g+7], ' ') AS gram
              FROM toks, unnest(generate_series(1, len(ts)-7)) AS i(g)),
            gc AS (SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2),
            dup_starts AS (
              SELECT g.doc_id, g.pos FROM grams g JOIN gc USING (gram)),
            positions AS (
              SELECT t.doc_id, p.p AS pos
              FROM toks t, unnest(generate_series(1, len(ts))) AS p(p)),
            covered AS (
              SELECT DISTINCT pr.doc_id, pr.pos
              FROM positions pr JOIN dup_starts d
                ON d.doc_id = pr.doc_id
               AND pr.pos BETWEEN d.pos AND d.pos + 7),
            cov AS (SELECT doc_id, count(*) AS n_covered
                    FROM covered GROUP BY doc_id)
            SELECT CAST(t.doc_id AS BIGINT) AS doc_id,
                   CAST(len(t.ts) AS BIGINT) AS n_tokens,
                   CAST(coalesce(c.n_covered, 0) AS BIGINT) AS n_covered,
                   CAST(len(t.ts) - coalesce(c.n_covered, 0) AS BIGINT)
                     AS n_kept
            FROM toks t LEFT JOIN cov c ON t.doc_id = c.doc_id
            ORDER BY doc_id
        """,
        # sink roundtrip: per-partition counts survive the write→read cycle
        "sink_roundtrip": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        # per-label centroid numerators in integer space: each component
        # quantized per row (half-up at 1e6, computed in DOUBLE) then
        # summed as BIGINT — order-independent, engine-exact
        "label_centroids": """
            SELECT label, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(floor(CAST(embedding[1] AS DOUBLE) * 1000000
                        + 0.5) AS BIGINT)) AS BIGINT) AS sum_q0,
                   CAST(sum(CAST(floor(CAST(embedding[2] AS DOUBLE) * 1000000
                        + 0.5) AS BIGINT)) AS BIGINT) AS sum_q1,
                   CAST(sum(CAST(floor(CAST(embedding[3] AS DOUBLE) * 1000000
                        + 0.5) AS BIGINT)) AS BIGINT) AS sum_q2,
                   CAST(sum(CAST(floor(CAST(embedding[4] AS DOUBLE) * 1000000
                        + 0.5) AS BIGINT)) AS BIGINT) AS sum_q3
            FROM embeddings GROUP BY label ORDER BY label
        """,
        # composite quality gate: first failing rule in fixed order, all
        # comparisons in integer space ((nb-db)*5 > nb ≡ frac > 0.2)
        "quality_gate": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT doc_id, ts[i.g] || ' ' || ts[i.g+1] AS bg
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(g)),
            bc AS (
              SELECT doc_id, count(*) AS nb, count(DISTINCT bg) AS db
              FROM big GROUP BY doc_id),
            feat AS (
              SELECT t.doc_id, len(t.ts) AS n_tok,
                     coalesce(b.nb, 0) AS nb, coalesce(b.db, 0) AS db,
                     len(list_filter(t.ts,
                         x -> x IN ('the', 'a', 'of'))) AS n_stop
              FROM toks t LEFT JOIN bc b ON t.doc_id = b.doc_id),
            r AS (
              SELECT doc_id,
                     CASE WHEN n_tok < 20 THEN 'too_short'
                          WHEN (nb - db) * 5 > nb THEN 'repetitive'
                          WHEN n_stop * 100 < n_tok THEN 'no_stopwords'
                          ELSE 'keep' END AS reason
              FROM feat)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, reason,
                   reason = 'keep' AS keep
            FROM r ORDER BY doc_id
        """,
        # unigram typicality: per doc, sum over its tokens of the GLOBAL
        # corpus frequency of that token (occurrences, not distinct)
        "doc_typicality": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            terms AS (SELECT doc_id, u.t AS term FROM toks, unnest(ts) AS u(t)),
            vocab AS (SELECT term, count(*) AS freq FROM terms GROUP BY term),
            s AS (
              SELECT t.doc_id, count(*) AS n_tokens, sum(v.freq) AS sum_freq
              FROM terms t JOIN vocab v USING (term)
              GROUP BY t.doc_id)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(s.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(coalesce(s.sum_freq, 0) AS BIGINT) AS sum_freq
            FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
            ORDER BY doc_id
        """,
        # first BPE merge candidates: adjacent char pairs weighted by word
        # corpus frequency, top 10 by (count desc, pair asc)
        "bpe_first_merges": """
            WITH toks AS (
              SELECT list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            terms AS (SELECT u.t AS term FROM toks, unnest(ts) AS u(t)),
            vocab AS (SELECT term, count(*) AS freq FROM terms GROUP BY term),
            pairs AS (
              SELECT substr(term, i.i, 2) AS pair, sum(freq) AS n
              FROM vocab, unnest(generate_series(1, len(term)-1)) AS i(i)
              GROUP BY 1)
            SELECT pair, CAST(n AS BIGINT) AS n
            FROM pairs ORDER BY n DESC, pair LIMIT 10
        """,
        # two-step funnel: users whose first purchase follows their first
        # signup strictly; gap summed in integer microseconds
        "conversion_funnel": """
            WITH m AS (
              SELECT user_id,
                     min(CASE WHEN event_type = 'signup'
                              THEN epoch_us(ts) END) AS first_signup,
                     min(CASE WHEN event_type = 'purchase'
                              THEN epoch_us(ts) END) AS first_purchase
              FROM events
              WHERE event_type IN ('signup', 'purchase')
              GROUP BY user_id)
            SELECT CAST(count(first_signup) AS BIGINT) AS n_started,
                   CAST(coalesce(sum(CASE WHEN first_purchase > first_signup
                                 THEN 1 ELSE 0 END), 0) AS BIGINT)
                     AS n_converted,
                   CAST(coalesce(sum(CASE WHEN first_purchase > first_signup
                                 THEN first_purchase - first_signup END), 0)
                        AS BIGINT) AS sum_gap_us
            FROM m
        """,
        # feature hashing: token adds ±1 to bucket md5%8, sign from the
        # independent bit (h>>16)&1 (h%2 would be a function of the bucket
        # for power-of-two bucket counts); integer sums exact on any engine
        "hashed_features": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            terms AS (SELECT doc_id, u.t AS term FROM toks, unnest(ts) AS u(t)),
            h AS (
              SELECT doc_id,
                     CAST(('0x' || substr(md5(term), 1, 8)) AS BIGINT) AS hv
              FROM terms),
            s AS (
              SELECT doc_id, hv % 8 AS bucket,
                     CASE WHEN (hv // 65536) % 2 = 0 THEN 1 ELSE -1 END
                       AS sign
              FROM h)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(sum(CASE WHEN bucket = 0 THEN sign END), 0) AS BIGINT) AS f0,
                   CAST(coalesce(sum(CASE WHEN bucket = 1 THEN sign END), 0) AS BIGINT) AS f1,
                   CAST(coalesce(sum(CASE WHEN bucket = 2 THEN sign END), 0) AS BIGINT) AS f2,
                   CAST(coalesce(sum(CASE WHEN bucket = 3 THEN sign END), 0) AS BIGINT) AS f3,
                   CAST(coalesce(sum(CASE WHEN bucket = 4 THEN sign END), 0) AS BIGINT) AS f4,
                   CAST(coalesce(sum(CASE WHEN bucket = 5 THEN sign END), 0) AS BIGINT) AS f5,
                   CAST(coalesce(sum(CASE WHEN bucket = 6 THEN sign END), 0) AS BIGINT) AS f6,
                   CAST(coalesce(sum(CASE WHEN bucket = 7 THEN sign END), 0) AS BIGINT) AS f7
            FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
            GROUP BY d.doc_id ORDER BY d.doc_id
        """,
        # log compaction: latest event per user by (ts, event_id)
        "latest_event_per_user": """
            WITH r AS (
              SELECT user_id, ts, event_id,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c,
                     row_number() OVER (
                       PARTITION BY user_id
                       ORDER BY ts DESC, event_id DESC) AS rn
              FROM events)
            SELECT user_id, ts AS last_ts,
                   CAST(event_id AS BIGINT) AS last_event_id,
                   value_c AS last_value_c
            FROM r WHERE rn = 1 ORDER BY user_id
        """,
        # incremental dedup: new batch = doc_id % 10 == 0; a new doc is a
        # dup if its NORMALIZED text exists in the old corpus or in an
        # earlier new doc (md5-8-byte digests mirror text equality)
        "delta_dedup": """
            WITH norm AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))
                       AS nt
              FROM documents),
            new AS (SELECT * FROM norm WHERE doc_id % 10 = 0),
            old AS (SELECT DISTINCT nt FROM norm WHERE doc_id % 10 <> 0),
            firstn AS (SELECT nt, min(doc_id) AS first_doc
                       FROM new GROUP BY nt)
            SELECT CAST(n.doc_id AS BIGINT) AS doc_id,
                   (o.nt IS NOT NULL) AS dup_of_corpus,
                   (f.first_doc < n.doc_id) AS dup_of_batch,
                   NOT ((o.nt IS NOT NULL) OR (f.first_doc < n.doc_id))
                     AS keep
            FROM new n
            LEFT JOIN old o ON n.nt = o.nt
            JOIN firstn f ON n.nt = f.nt
            ORDER BY doc_id
        """,
        # persisted-index full probe: exact brute-force ranking, same
        # mirror as knn_bruteforce — certifies the index write→read cycle
        "ann_persisted_topk_full": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 scored AS (
                    SELECT q.query_id, e.vec_id AS neighbor_id,
                           list_cosine_similarity(q.qv, e.embedding) AS sim
                    FROM q CROSS JOIN embeddings e),
                 ranked AS (
                    SELECT query_id, neighbor_id,
                           CAST(row_number() OVER (
                               PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id) AS INTEGER) AS rank
                    FROM scored)
            SELECT query_id, neighbor_id, rank FROM ranked
            WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # incremental append certificate: same exact union top-k (base
        # vec_id%10!=0 was built, delta %10==0 appended — the union is the
        # whole table)
        "ann_append_topk_full": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 scored AS (
                    SELECT q.query_id, e.vec_id AS neighbor_id,
                           list_cosine_similarity(q.qv, e.embedding) AS sim
                    FROM q CROSS JOIN embeddings e),
                 ranked AS (
                    SELECT query_id, neighbor_id,
                           CAST(row_number() OVER (
                               PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id) AS INTEGER) AS rank
                    FROM scored)
            SELECT query_id, neighbor_id, rank FROM ranked
            WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # DSIR importance weights: per doc, summed target-model (lang='en')
        # and corpus-model hashed-bigram bucket counts — the integer-exact
        # core of the DSIR log-ratio; bucket = md5-first-8-hex % 64
        "dsir_weights": """
            WITH toks AS (
              SELECT doc_id, lang,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT doc_id, lang, ts[i.g] || ' ' || ts[i.g+1] AS bg
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(g)),
            hb AS (
              SELECT doc_id, lang,
                     CAST(('0x' || substr(md5(bg), 1, 8)) AS BIGINT) % 64
                       AS bucket
              FROM big),
            cnt AS (
              SELECT bucket,
                     sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_target,
                     count(*) AS n_corpus
              FROM hb GROUP BY bucket),
            s AS (
              SELECT h.doc_id, count(*) AS n_bigrams,
                     sum(c.n_target) AS sum_target,
                     sum(c.n_corpus) AS sum_corpus
              FROM hb h JOIN cnt c USING (bucket) GROUP BY h.doc_id)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(coalesce(s.sum_target, 0) AS BIGINT) AS sum_target,
                   CAST(coalesce(s.sum_corpus, 0) AS BIGINT) AS sum_corpus
            FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
            ORDER BY doc_id
        """,
        # centroid-distance pruning: top-5 farthest vectors per label,
        # division-free integer ranking sum((n*q_i - S_i)^2), q = round(x*1e4)
        "centroid_outliers": """
            WITH q AS (
              SELECT vec_id, label,
                     CAST(floor(CAST(embedding[1] AS DOUBLE) * 10000 + 0.5)
                          AS BIGINT) AS q0,
                     CAST(floor(CAST(embedding[2] AS DOUBLE) * 10000 + 0.5)
                          AS BIGINT) AS q1,
                     CAST(floor(CAST(embedding[3] AS DOUBLE) * 10000 + 0.5)
                          AS BIGINT) AS q2,
                     CAST(floor(CAST(embedding[4] AS DOUBLE) * 10000 + 0.5)
                          AS BIGINT) AS q3
              FROM embeddings),
            c AS (
              SELECT label, count(*) AS n,
                     sum(q0) AS s0, sum(q1) AS s1,
                     sum(q2) AS s2, sum(q3) AS s3
              FROM q GROUP BY label),
            d AS (
              SELECT q.vec_id, q.label, c.n,
                     (c.n*q.q0 - c.s0)*(c.n*q.q0 - c.s0)
                   + (c.n*q.q1 - c.s1)*(c.n*q.q1 - c.s1)
                   + (c.n*q.q2 - c.s2)*(c.n*q.q2 - c.s2)
                   + (c.n*q.q3 - c.s3)*(c.n*q.q3 - c.s3) AS d2q
              FROM q JOIN c USING (label)),
            r AS (
              SELECT label, vec_id, n, d2q,
                     row_number() OVER (PARTITION BY label
                                        ORDER BY d2q DESC, vec_id) AS rank
              FROM d)
            SELECT label, CAST(rank AS BIGINT) AS rank,
                   CAST(vec_id AS BIGINT) AS vec_id,
                   CAST(d2q AS BIGINT) AS d2q, CAST(n AS BIGINT) AS n
            FROM r WHERE rank <= 5 ORDER BY label, rank
        """,
        # robust winnowing: every window of 4 consecutive word-3-gram
        # hashes selects its minimum (rightmost position on ties);
        # fingerprints = distinct selected (pos, hash) per doc
        "winnow_fingerprints": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            h AS (
              SELECT doc_id, i.g AS pos,
                     CAST(('0x' || substr(md5(
                         ts[i.g] || ' ' || ts[i.g+1] || ' ' || ts[i.g+2]
                       ), 1, 8)) AS BIGINT) AS gram_h
              FROM toks, unnest(generate_series(1, len(ts)-2)) AS i(g)),
            n AS (SELECT doc_id, max(pos) AS np FROM h GROUP BY doc_id),
            starts AS (
              SELECT doc_id, u.s
              FROM n, unnest(generate_series(1, np-3)) AS u(s)),
            cand AS (
              SELECT st.doc_id, st.s, h.pos, h.gram_h,
                     row_number() OVER (
                       PARTITION BY st.doc_id, st.s
                       ORDER BY h.gram_h, h.pos DESC) AS rn
              FROM starts st
              JOIN h ON h.doc_id = st.doc_id
                    AND h.pos BETWEEN st.s AND st.s + 3)
            SELECT DISTINCT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(pos AS BIGINT) AS pos, gram_h
            FROM cand WHERE rn = 1 ORDER BY doc_id, pos
        """,
        # heavy hitters: exact top-20 word bigrams (the sketch+recount
        # plan is exact by the self-verifying gate, so a plain GROUP BY
        # is the oracle)
        "heavy_hitters": """
            WITH toks AS (
              SELECT list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT ts[i.g] || ' ' || ts[i.g+1] AS bigram
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(g))
            SELECT bigram, CAST(count(*) AS BIGINT) AS n
            FROM big GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20
        """,
        # z-order layout certificate: 32-bit Morton interleave of
        # (user_id%65536, epoch-hour%65536), bucket = top 4 z-bits; the
        # interleave expression is generated (32 bit terms)
        "zorder_layout": """
            WITH raw AS (
              SELECT user_id AS ur,
                     (epoch_us(ts) // 3600000000) AS hr
              FROM events),
            b AS (
              SELECT min(ur) AS u_min,
                     greatest(max(ur) - min(ur), 1) AS u_rng,
                     min(hr) AS h_min,
                     greatest(max(hr) - min(hr), 1) AS h_rng
              FROM raw),
            d AS (
              SELECT ur, hr,
                     ((ur - u_min) * 65535) // u_rng AS u,
                     ((hr - h_min) * 65535) // h_rng AS t
              FROM raw, b),
            z AS (SELECT ur, hr, {Z_EXPR} AS zv FROM d)
            SELECT (zv >> 28) AS zbucket,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(min(ur) AS BIGINT) AS min_user,
                   CAST(max(ur) AS BIGINT) AS max_user,
                   CAST(min(hr) AS BIGINT) AS min_hour,
                   CAST(max(hr) AS BIGINT) AS max_hour
            FROM z GROUP BY zbucket ORDER BY zbucket
        """.format(Z_EXPR=" + ".join(
            f"((( u >> {i}) & 1) << {2 * i + 1}) + "
            f"((( t >> {i}) & 1) << {2 * i})" for i in range(16)
        )),
        # SemDeDup: drop a vector when an earlier (lower vec_id) member of
        # the same cluster (label) is cosine-similar above 0.25
        "semantic_dedup": """
            WITH dom AS (
              SELECT a.vec_id AS v,
                     max(CASE WHEN list_cosine_similarity(
                                    a.embedding, b.embedding) > 0.25
                              THEN 1 ELSE 0 END) AS d
              FROM embeddings a JOIN embeddings b
                ON a.label = b.label AND b.vec_id < a.vec_id
              GROUP BY a.vec_id)
            SELECT CAST(e.vec_id AS BIGINT) AS vec_id, e.label,
                   coalesce(d, 0) = 0 AS keep
            FROM embeddings e LEFT JOIN dom ON e.vec_id = dom.v
            ORDER BY vec_id
        """,
        # hard-negative mining: exact top-5 cosine neighbors with a label
        # different from the query's
        "hard_negatives": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv,
                              label AS ql
                       FROM embeddings WHERE vec_id < 4),
                 scored AS (
                    SELECT q.query_id, e.vec_id AS neighbor_id,
                           list_cosine_similarity(q.qv, e.embedding) AS sim
                    FROM q JOIN embeddings e ON e.label <> q.ql),
                 ranked AS (
                    SELECT query_id, neighbor_id,
                           CAST(row_number() OVER (
                               PARTITION BY query_id
                               ORDER BY sim DESC, neighbor_id) AS INTEGER)
                             AS rank
                    FROM scored)
            SELECT query_id, neighbor_id, rank FROM ranked
            WHERE rank <= 5 ORDER BY query_id, rank
        """,
        # balanced shards: global rank by (n_chars DESC, doc_id), striped
        # shard = rank % 8; per-shard count/bytes/rank-span certificate
        "balanced_shards": """
            WITH r AS (
              SELECT doc_id, n_chars,
                     row_number() OVER (ORDER BY n_chars DESC, doc_id) - 1
                       AS rk
              FROM documents)
            SELECT (rk % 8) AS shard,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   CAST(min(rk) AS BIGINT) AS first_rank,
                   CAST(max(rk) AS BIGINT) AS last_rank
            FROM r GROUP BY shard ORDER BY shard
        """,
        # incremental near-dup: same shingle/jaccard definition as
        # ngram_dedup; a new doc (doc_id%10=0) is flagged against the old
        # corpus and against EARLIER new docs
        "delta_neardup": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(trim(text)), '\s+'),
                                 t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            news AS (SELECT * FROM sh WHERE doc_id % 10 = 0),
            olds AS (SELECT * FROM sh WHERE doc_id % 10 <> 0),
            jc AS (
              SELECT n.doc_id,
                     max(CASE WHEN (
                       CASE WHEN len(n.sh) = 0 AND len(o.sh) = 0 THEN 1.0
                            WHEN len(n.sh) = 0 OR len(o.sh) = 0 THEN 0.0
                            ELSE len(list_intersect(n.sh, o.sh))::DOUBLE
                                 / len(list_distinct(n.sh || o.sh))::DOUBLE
                       END) >= 0.5 THEN 1 ELSE 0 END) AS c
              FROM news n JOIN olds o ON TRUE GROUP BY n.doc_id),
            jb AS (
              SELECT a.doc_id,
                     max(CASE WHEN (
                       CASE WHEN len(a.sh) = 0 AND len(e.sh) = 0 THEN 1.0
                            WHEN len(a.sh) = 0 OR len(e.sh) = 0 THEN 0.0
                            ELSE len(list_intersect(a.sh, e.sh))::DOUBLE
                                 / len(list_distinct(a.sh || e.sh))::DOUBLE
                       END) >= 0.5 THEN 1 ELSE 0 END) AS b
              FROM news a JOIN news e ON e.doc_id < a.doc_id
              GROUP BY a.doc_id)
            SELECT CAST(n.doc_id AS BIGINT) AS doc_id,
                   coalesce(jc.c, 0) = 1 AS dup_of_corpus,
                   coalesce(jb.b, 0) = 1 AS dup_of_batch,
                   NOT (coalesce(jc.c, 0) = 1 OR coalesce(jb.b, 0) = 1)
                     AS keep
            FROM news n
            LEFT JOIN jc ON n.doc_id = jc.doc_id
            LEFT JOIN jb ON n.doc_id = jb.doc_id
            ORDER BY doc_id
        """,
        # keep-best near-dup collapse: same pair/closure definition as
        # minhash_dedup_docs, but pick max n_chars (ties: min doc_id) and
        # report the cluster size
        "neardup_keep_best": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(trim(text)), '\s+'), t -> t <> '') AS ts
              FROM documents),
            sh AS (
              SELECT doc_id,
                     CASE WHEN len(ts) = 0 THEN []::VARCHAR[]
                          WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(ts) - 1),
                                 i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
                     END AS sh
              FROM toks),
            p AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id
              WHERE CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0
                         WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0
                         ELSE len(list_intersect(a.sh, b.sh))::DOUBLE
                              / len(list_distinct(a.sh || b.sh))::DOUBLE END >= 0.5),
            edges AS (SELECT doc_a AS u, doc_b AS v FROM p UNION SELECT doc_b, doc_a FROM p),
            reach(u, v) AS (
              SELECT u, v FROM edges
              UNION
              SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
            minlab AS (SELECT u, least(u, min(v)) AS label FROM reach GROUP BY u),
            lab AS (
              SELECT d.doc_id, d.n_chars, coalesce(m.label, d.doc_id) AS label
              FROM documents d LEFT JOIN minlab m ON d.doc_id = m.u),
            best AS (
              SELECT label, max(n_chars) AS best_nc,
                     count(*) AS cluster_size
              FROM lab GROUP BY label),
            pick AS (
              SELECT l.label, min(l.doc_id) AS doc_id
              FROM lab l JOIN best b ON l.label = b.label
                                    AND l.n_chars = b.best_nc
              GROUP BY l.label)
            SELECT CAST(p.doc_id AS BIGINT) AS doc_id,
                   CAST(b.best_nc AS BIGINT) AS n_chars,
                   CAST(b.cluster_size AS BIGINT) AS cluster_size
            FROM pick p JOIN best b ON p.label = b.label
            ORDER BY doc_id
        """,
        # content-addressed media dedup: the engine groups by md5 of the
        # ACTUAL encoded PNG bytes; the oracle derives the classes from
        # the seed arithmetic (payloads are byte-identical iff the seed
        # doc_id % 16 matches) — byte hashing must recover exactly these
        "media_dedup": """
            WITH m AS (
              SELECT doc_id, doc_id % 16 AS s
              FROM documents WHERE doc_id < 64),
            g AS (
              SELECT s, min(doc_id) AS canon, count(*) AS n
              FROM m GROUP BY s)
            SELECT CAST(m.doc_id AS BIGINT) AS doc_id,
                   CAST(g.canon AS BIGINT) AS canonical_doc_id,
                   CAST(g.n AS BIGINT) AS n_copies
            FROM m JOIN g ON m.s = g.s
            ORDER BY doc_id
        """,
        # last-touch attribution: latest click (ties: max event_id) by the
        # same user at-or-before each purchase; -1 when unattributed
        # linear multi-touch: clicks at-or-before the purchase split
        # 1e6 ppm equally (floor), remainder to the last touch
        "attribution_linear": """
            WITH c AS (SELECT user_id, ts, event_id FROM events
                       WHERE event_type = 'click'),
            p AS (SELECT user_id, ts, event_id FROM events
                  WHERE event_type = 'purchase'),
            n AS (
              SELECT p.event_id, p.user_id,
                     CAST(count(c.event_id) AS BIGINT) AS n_touches
              FROM p LEFT JOIN c ON c.user_id = p.user_id
                                AND c.ts <= p.ts
              GROUP BY 1, 2)
            SELECT event_id, user_id, n_touches,
                   CAST(CASE WHEN n_touches > 0
                        THEN 1000000 // n_touches ELSE 0 END AS BIGINT)
                     AS credit_each_ppm,
                   CAST(CASE WHEN n_touches > 0
                        THEN 1000000 // n_touches + 1000000 % n_touches
                        ELSE 0 END AS BIGINT) AS credit_last_ppm
            FROM n ORDER BY event_id
        """,
        "attribution_last_touch": """
            WITH c AS (
              SELECT user_id, ts, event_id FROM events
              WHERE event_type = 'click'),
            p AS (
              SELECT user_id, ts, event_id FROM events
              WHERE event_type = 'purchase'),
            ranked AS (
              SELECT p.event_id AS pid, c.event_id AS click_id,
                     epoch_us(p.ts) - epoch_us(c.ts) AS gap_us,
                     row_number() OVER (
                       PARTITION BY p.event_id
                       ORDER BY c.ts DESC, c.event_id DESC) AS rn
              FROM p JOIN c ON c.user_id = p.user_id AND c.ts <= p.ts)
            SELECT CAST(p.event_id AS BIGINT) AS event_id,
                   CAST(p.user_id AS BIGINT) AS user_id,
                   CAST(coalesce(r.click_id, -1) AS BIGINT)
                     AS click_event_id,
                   CAST(coalesce(r.gap_us, -1) AS BIGINT) AS gap_us
            FROM p LEFT JOIN ranked r ON r.pid = p.event_id AND r.rn = 1
            ORDER BY event_id
        """,
        # weekly cohort retention: cohort = first active epoch-week per
        # user; distinct active users per (cohort, offset)
        "retention_cohorts": """
            WITH uw AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 604800000000 AS wk
              FROM events),
            c AS (SELECT user_id, min(wk) AS cw FROM uw GROUP BY user_id)
            SELECT CAST(c.cw AS BIGINT) AS cohort_week,
                   CAST(uw.wk - c.cw AS BIGINT) AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM uw JOIN c ON uw.user_id = c.user_id
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # top-20 document-level co-occurrence pairs (t1 < t2), counting
        # documents containing both; same [a-z0-9]+ tokenizer as
        # hashed_features
        "cooccurrence_pairs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text),
                                                    '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            terms AS (
              SELECT DISTINCT doc_id, u.t AS term
              FROM toks, unnest(ts) AS u(t)),
            pairs AS (
              SELECT a.term AS t1, b.term AS t2
              FROM terms a JOIN terms b
                ON a.doc_id = b.doc_id AND a.term < b.term)
            SELECT t1, t2, CAST(count(*) AS BIGINT) AS n_docs
            FROM pairs GROUP BY 1, 2
            ORDER BY n_docs DESC, t1, t2 LIMIT 20
        """,
        # collocation mining: PMI kept as the integer ratio
        # c_ab·n·10⁶ // (c_a·c_b) — monotone in PMI, no float log hashed
        "pmi_bigrams": """
            WITH toks AS (
              SELECT list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            uni AS (SELECT unnest(ts) AS w FROM toks),
            ucnt AS (SELECT w, count(*) AS c FROM uni GROUP BY w),
            tot AS (SELECT count(*) AS n FROM uni),
            big AS (
              SELECT ts[i.i] AS w1, ts[i.i+1] AS w2
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(i)),
            bcnt AS (
              SELECT w1, w2, count(*) AS c_ab FROM big GROUP BY 1, 2
              HAVING count(*) >= 2)
            SELECT b.w1, b.w2, CAST(b.c_ab AS BIGINT) AS c_ab,
                   CAST(u1.c AS BIGINT) AS c_a, CAST(u2.c AS BIGINT) AS c_b,
                   CAST(b.c_ab * t.n * 1000000 // (u1.c * u2.c) AS BIGINT)
                       AS pmi_e6
            FROM bcnt b JOIN ucnt u1 ON b.w1 = u1.w
                        JOIN ucnt u2 ON b.w2 = u2.w
            CROSS JOIN tot t
            ORDER BY pmi_e6 DESC, w1, w2 LIMIT 50
        """,
        # top-N vocabulary coverage curve: cumulative token coverage of
        # the N most frequent types (count DESC, term ASC), integer ppm
        "vocab_coverage": """
            WITH toks AS (
              SELECT list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            uni AS (SELECT unnest(ts) AS w FROM toks),
            ucnt AS (SELECT w, count(*) AS c FROM uni GROUP BY w),
            tot AS (SELECT sum(c) AS t, count(*) AS nt FROM ucnt),
            r AS (SELECT c, row_number() OVER (ORDER BY c DESC, w) AS rk
                  FROM ucnt),
            cum AS (SELECT rk, sum(c) OVER (ORDER BY rk) AS cc FROM r),
            sizes AS (SELECT unnest([100, 200, 500, 1000, 2000, 5000])
                          AS vocab_size)
            SELECT CAST(s.vocab_size AS BIGINT) AS vocab_size,
                   CAST(least(s.vocab_size, tot.nt) AS BIGINT) AS n_types,
                   CAST(coalesce((SELECT cc FROM cum
                                  WHERE rk = least(s.vocab_size, tot.nt)),
                                 0) AS BIGINT) AS covered_tokens,
                   CAST(coalesce((SELECT cc FROM cum
                                  WHERE rk = least(s.vocab_size, tot.nt)),
                                 0) * 1000000 // tot.t AS BIGINT)
                       AS coverage_ppm
            FROM sizes s, tot ORDER BY vocab_size
        """,
        # next-power-of-two length buckets + padding waste (exact integer
        # powers via a generate_series join — no float log)
        "length_buckets": """
            WITH t AS (
              SELECT CAST(len(list_filter(
                         string_split_regex(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS BIGINT) AS n
              FROM documents),
            pows AS (SELECT CAST(1 << e.e AS BIGINT) AS p
                     FROM unnest(generate_series(0, 32)) AS e(e)),
            b AS (SELECT n,
                         CASE WHEN n = 0 THEN 0
                              ELSE (SELECT min(p) FROM pows WHERE p >= n)
                              END AS bucket
                  FROM t)
            SELECT bucket, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n) AS BIGINT) AS sum_tokens,
                   CAST(sum(bucket - n) AS BIGINT) AS padding_tokens
            FROM b GROUP BY bucket ORDER BY bucket
        """,
        # composed calibrated filter: the quality_percentiles SQL with a
        # p10 (100000 ppm) per-source cut, certified by per-source counts
        "calibrated_length_filter": """
            WITH t AS (
              SELECT doc_id, source,
                     CAST(len(list_filter(
                         string_split_regex(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS BIGINT) AS n_tokens
              FROM documents),
            r AS (
              SELECT doc_id, source, n_tokens,
                     CAST(row_number() OVER (PARTITION BY source
                          ORDER BY n_tokens, doc_id) AS BIGINT) AS rnk,
                     CAST(count(*) OVER (PARTITION BY source) AS BIGINT)
                         AS n_src
              FROM t),
            p AS (
              SELECT source, n_tokens,
                     CASE WHEN n_src > 1
                          THEN (rnk - 1) * 1000000 // (n_src - 1)
                          ELSE 0 END AS pct
              FROM r)
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN pct >= 100000 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_kept,
                   CAST(sum(CASE WHEN pct < 100000 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_cut,
                   CAST(min(CASE WHEN pct >= 100000 THEN n_tokens END)
                        AS BIGINT) AS min_kept_tokens
            FROM p GROUP BY source ORDER BY source
        """,
        # fuzzy self-join: block on md5 of the first 2 tokens, verify
        # with DuckDB's byte-level levenshtein over 32-char prefixes
        "fuzzy_prefix_pairs": """
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS ts,
                     substr(text, 1, 32) AS pref
              FROM documents),
            k AS (
              SELECT doc_id, pref,
                     md5(array_to_string(ts[1:2], ' ')) AS bkey
              FROM t WHERE len(ts) > 0)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(levenshtein(a.pref, b.pref) AS BIGINT) AS dist
            FROM k a JOIN k b
              ON a.bkey = b.bkey AND a.doc_id < b.doc_id
            WHERE levenshtein(a.pref, b.pref) <= 8
            ORDER BY doc_a, doc_b
        """,
        # referential-integrity orphans per fact->dimension edge
        "fk_integrity_audit": """
            WITH a AS (
              SELECT 'orders.custkey->customer' AS relation,
                     (SELECT count(*) FROM orders) AS n_rows,
                     (SELECT count(*) FROM orders o
                      WHERE NOT EXISTS (SELECT 1 FROM customer c
                                        WHERE c.c_custkey = o.o_custkey))
                         AS n_orphans
              UNION ALL
              SELECT 'lineitem.orderkey->orders',
                     (SELECT count(*) FROM lineitem),
                     (SELECT count(*) FROM lineitem l
                      WHERE NOT EXISTS (SELECT 1 FROM orders o
                                        WHERE o.o_orderkey = l.l_orderkey))
              UNION ALL
              SELECT 'lineitem.partkey->part',
                     (SELECT count(*) FROM lineitem),
                     (SELECT count(*) FROM lineitem l
                      WHERE NOT EXISTS (SELECT 1 FROM part p
                                        WHERE p.p_partkey = l.l_partkey))
              UNION ALL
              SELECT 'lineitem.suppkey->supplier',
                     (SELECT count(*) FROM lineitem),
                     (SELECT count(*) FROM lineitem l
                      WHERE NOT EXISTS (SELECT 1 FROM supplier s
                                        WHERE s.s_suppkey = l.l_suppkey))
              UNION ALL
              SELECT 'customer.nationkey->nation',
                     (SELECT count(*) FROM customer),
                     (SELECT count(*) FROM customer c
                      WHERE NOT EXISTS (SELECT 1 FROM nation n
                                        WHERE n.n_nationkey = c.c_nationkey))
              UNION ALL
              SELECT 'supplier.nationkey->nation',
                     (SELECT count(*) FROM supplier),
                     (SELECT count(*) FROM supplier s
                      WHERE NOT EXISTS (SELECT 1 FROM nation n
                                        WHERE n.n_nationkey = s.s_nationkey)))
            SELECT relation, CAST(n_rows AS BIGINT) AS n_rows,
                   CAST(n_orphans AS BIGINT) AS n_orphans
            FROM a ORDER BY relation
        """,
        # cross-split leakage: distinct 8-grams present in both splits of
        # each pair; splits use split_assign's exact md5 rule, grams ship
        # as 16-hex md5 keys on both sides
        "split_leakage_audit": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            sp AS (
              SELECT doc_id,
                     CASE WHEN bk < 80 THEN 1 WHEN bk < 90 THEN 2
                          ELSE 4 END AS bit
              FROM (SELECT doc_id,
                           CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                                1, 8)) AS BIGINT) % 100 AS bk
                    FROM documents)),
            grams AS (
              SELECT t.doc_id,
                     substr(md5(array_to_string(ts[i.g : i.g+7], ' ')),
                            1, 16) AS gkey
              FROM toks t, unnest(generate_series(1, len(ts)-7)) AS i(g)),
            gb AS (SELECT DISTINCT g.gkey, s.bit
                   FROM grams g JOIN sp s USING (doc_id)),
            m AS (SELECT gkey, sum(bit) AS mask FROM gb GROUP BY gkey),
            p AS (
              SELECT 'test' AS split_a, 'train' AS split_b,
                     CAST(coalesce(sum(CASE WHEN mask & 5 = 5 THEN 1 END),
                                   0) AS BIGINT) AS n_shared_grams
              FROM m
              UNION ALL
              SELECT 'test', 'valid',
                     CAST(coalesce(sum(CASE WHEN mask & 6 = 6 THEN 1 END),
                                   0) AS BIGINT)
              FROM m
              UNION ALL
              SELECT 'train', 'valid',
                     CAST(coalesce(sum(CASE WHEN mask & 3 = 3 THEN 1 END),
                                   0) AS BIGINT)
              FROM m)
            SELECT * FROM p ORDER BY split_a, split_b
        """,
        # per-source exact rank-semantics thresholds at p10/p50/p90:
        # rank r = (n-1)*p//100 + 1 of the (n_tokens, doc_id) order
        "percentile_thresholds": """
            WITH t AS (
              SELECT doc_id, source,
                     CAST(len(list_filter(
                         string_split_regex(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS BIGINT) AS n_tokens
              FROM documents),
            r AS (
              SELECT source, n_tokens,
                     row_number() OVER (PARTITION BY source
                         ORDER BY n_tokens, doc_id) AS rnk,
                     count(*) OVER (PARTITION BY source) AS n_src
              FROM t)
            SELECT source, CAST(any_value(n_src) AS BIGINT) AS n_docs,
                   CAST(max(CASE WHEN rnk = (n_src - 1) * 10 // 100 + 1
                                 THEN n_tokens END) AS BIGINT) AS p10_tokens,
                   CAST(max(CASE WHEN rnk = (n_src - 1) * 50 // 100 + 1
                                 THEN n_tokens END) AS BIGINT) AS p50_tokens,
                   CAST(max(CASE WHEN rnk = (n_src - 1) * 90 // 100 + 1
                                 THEN n_tokens END) AS BIGINT) AS p90_tokens
            FROM r GROUP BY source ORDER BY source
        """,
        # churn: users whose last event is >= 1 whole day before corpus max
        "churned_users": """
            WITH u AS (SELECT user_id, max(ts) AS last_ts
                       FROM events GROUP BY user_id),
                 g AS (SELECT max(last_ts) AS gmax FROM u)
            SELECT user_id, last_ts,
                   CAST((epoch_us(g.gmax) - epoch_us(last_ts))
                        // 86400000000 AS BIGINT) AS days_idle
            FROM u, g
            WHERE (epoch_us(g.gmax) - epoch_us(last_ts))
                  // 86400000000 >= 1
            ORDER BY user_id
        """,
        # per-domain cap: md5-priority uniform keep of <= 5 per source
        "source_cap_sample": """
            WITH r AS (
              SELECT doc_id, source,
                     row_number() OVER (PARTITION BY source
                         ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
                         AS rk
              FROM documents)
            SELECT doc_id, source FROM r WHERE rk <= 5 ORDER BY doc_id
        """,
        # 8-token-prefix template clusters (md5 key), >= 2 members
        "prefix_clusters": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS ts
              FROM documents),
            p AS (
              SELECT doc_id,
                     md5(array_to_string(ts[1:8], ' ')) AS prefix_key
              FROM toks WHERE len(ts) > 0)
            SELECT prefix_key, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(min(doc_id) AS BIGINT) AS canonical_doc_id
            FROM p GROUP BY 1 HAVING count(*) >= 2
            ORDER BY n_docs DESC, prefix_key
        """,
        # range-partitioned sort layout audit: equal-count shards of the
        # global (n_chars, doc_id) order, per-shard count + key range
        "range_layout": """
            WITH r AS (
              SELECT doc_id, n_chars,
                     row_number() OVER (ORDER BY n_chars, doc_id) - 1 AS rk,
                     count(*) OVER () AS n
              FROM documents)
            SELECT CAST(rk * 8 // n AS BIGINT) AS shard_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(min(n_chars) AS BIGINT) AS min_chars,
                   CAST(max(n_chars) AS BIGINT) AS max_chars
            FROM r GROUP BY 1 ORDER BY 1
        """,
        # per-source token-count percentile: rank within source, ppm
        "quality_percentiles": """
            WITH t AS (
              SELECT doc_id, source,
                     CAST(len(list_filter(
                         string_split_regex(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS BIGINT) AS n_tokens
              FROM documents),
            r AS (
              SELECT doc_id, source, n_tokens,
                     CAST(row_number() OVER (PARTITION BY source
                          ORDER BY n_tokens, doc_id) AS BIGINT) AS rnk,
                     CAST(count(*) OVER (PARTITION BY source) AS BIGINT)
                         AS n_src
              FROM t)
            SELECT doc_id, source, n_tokens, rnk,
                   CAST(CASE WHEN n_src > 1
                             THEN (rnk - 1) * 1000000 // (n_src - 1)
                             ELSE 0 END AS BIGINT) AS pct_ppm
            FROM r ORDER BY doc_id
        """,
        # composed end-to-end pipeline: the quality_gate, exact_dedup and
        # split_assign oracle SQL fused into one certificate query
        "pipeline_certificate": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT doc_id, ts[i.g] || ' ' || ts[i.g+1] AS bg
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(g)),
            bc AS (
              SELECT doc_id, count(*) AS nb, count(DISTINCT bg) AS db
              FROM big GROUP BY doc_id),
            feat AS (
              SELECT t.doc_id, len(t.ts) AS n_tok,
                     coalesce(b.nb, 0) AS nb, coalesce(b.db, 0) AS db,
                     len(list_filter(t.ts,
                         x -> x IN ('the', 'a', 'of'))) AS n_stop
              FROM toks t LEFT JOIN bc b ON t.doc_id = b.doc_id),
            r AS (
              SELECT doc_id,
                     CASE WHEN n_tok < 20 THEN 'too_short'
                          WHEN (nb - db) * 5 > nb THEN 'repetitive'
                          WHEN n_stop * 100 < n_tok THEN 'no_stopwords'
                          ELSE 'keep' END AS reason
              FROM feat),
            kept AS (
              SELECT d.doc_id, d.text, d.lang
              FROM documents d JOIN r ON d.doc_id = r.doc_id
              WHERE r.reason = 'keep'),
            ded AS (SELECT min(doc_id) AS doc_id FROM kept GROUP BY text),
            fin AS (
              SELECT k.lang,
                     CAST(('0x' || substr(md5(CAST(k.doc_id AS VARCHAR)),
                                          1, 8)) AS BIGINT) % 100 AS bk
              FROM kept k JOIN ded ON k.doc_id = ded.doc_id)
            SELECT CASE WHEN bk < 80 THEN 'train'
                        WHEN bk < 90 THEN 'valid'
                        ELSE 'test' END AS split,
                   lang, CAST(count(*) AS BIGINT) AS n_docs
            FROM fin GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # vocabulary overlap between source shards: distinct shared and
        # combined token types per source pair (zero-overlap pairs kept)
        "vocab_overlap": """
            WITH toks AS (
              SELECT source,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            terms AS (
              SELECT DISTINCT source, u.t AS term
              FROM toks, unnest(ts) AS u(t)),
            sizes AS (SELECT source, count(*) AS nv FROM terms GROUP BY source),
            srcs AS (SELECT DISTINCT source FROM documents),
            pairs AS (
              SELECT a.source AS sa, b.source AS sb
              FROM srcs a JOIN srcs b ON a.source < b.source),
            inter AS (
              SELECT a.source AS sa, b.source AS sb, count(*) AS ni
              FROM terms a JOIN terms b
                ON a.term = b.term AND a.source < b.source
              GROUP BY 1, 2)
            SELECT p.sa AS src_a, p.sb AS src_b,
                   CAST(coalesce(i.ni, 0) AS BIGINT) AS n_inter,
                   CAST(coalesce(za.nv, 0) + coalesce(zb.nv, 0)
                        - coalesce(i.ni, 0) AS BIGINT) AS n_union
            FROM pairs p
            LEFT JOIN inter i ON i.sa = p.sa AND i.sb = p.sb
            LEFT JOIN sizes za ON za.source = p.sa
            LEFT JOIN sizes zb ON zb.source = p.sb
            ORDER BY src_a, src_b
        """,
        # Markov transition counts: per user, consecutive event-type pairs
        # ordered by (ts, event_id)
        "event_transitions": """
            WITH o AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS prev_type
              FROM events)
            SELECT prev_type, event_type AS next_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM o WHERE prev_type IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # bigram-LM corpus-fit stats: per doc, summed CORPUS frequency of
        # its adjacent word bigrams + its singleton-bigram count
        "bigram_typicality": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT doc_id, ts[i.i] || ' ' || ts[i.i+1] AS bg
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(i)),
            vocab AS (SELECT bg, count(*) AS freq FROM big GROUP BY bg),
            s AS (
              SELECT b.doc_id, count(*) AS n_bigrams, sum(v.freq) AS sum_freq,
                     sum(CASE WHEN v.freq = 1 THEN 1 ELSE 0 END) AS n_singleton
              FROM big b JOIN vocab v USING (bg) GROUP BY b.doc_id)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(coalesce(s.sum_freq, 0) AS BIGINT) AS sum_freq,
                   CAST(coalesce(s.n_singleton, 0) AS BIGINT) AS n_singleton
            FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
            ORDER BY doc_id
        """,
        # per-source trigram diversity: total vs distinct occurrences
        "source_diversity": """
            WITH toks AS (
              SELECT source,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            tri AS (
              SELECT source,
                     ts[i.i] || ' ' || ts[i.i+1] || ' ' || ts[i.i+2] AS tg
              FROM toks, unnest(generate_series(1, len(ts)-2)) AS i(i))
            SELECT source, CAST(count(*) AS BIGINT) AS n_trigrams,
                   CAST(count(DISTINCT tg) AS BIGINT) AS n_distinct
            FROM tri GROUP BY source ORDER BY source
        """,
        # integer-exact outlier counts: value_c * n > 2 * sum_c per type
        "events_outliers": """
            WITH v AS (
              SELECT event_type,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
              FROM events),
            s AS (SELECT event_type, count(*) AS n, sum(value_c) AS sum_c
                  FROM v GROUP BY 1)
            SELECT v.event_type,
                   CAST(any_value(s.n) AS BIGINT) AS n_events,
                   CAST(coalesce(sum(CASE WHEN v.value_c * s.n > 2 * s.sum_c
                                     THEN 1 END), 0) AS BIGINT) AS n_outliers
            FROM v JOIN s USING (event_type)
            GROUP BY v.event_type ORDER BY v.event_type
        """,
        # monthly order volume with month-over-month delta
        "orders_monthly": """
            WITH m AS (
              SELECT date_trunc('month', o_orderdate) AS month,
                     count(*) AS n_orders,
                     sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                       AS revenue_c
              FROM orders GROUP BY 1)
            SELECT month, CAST(n_orders AS BIGINT) AS n_orders,
                   CAST(revenue_c AS BIGINT) AS revenue_c,
                   CAST(n_orders - coalesce(lag(n_orders) OVER (ORDER BY month),
                                            0) AS BIGINT) AS delta_orders
            FROM m ORDER BY month
        """,
        # TPC-H Q13 shape: order-count distribution incl. zero-order
        # customers (priority filter stands in for Q13's comment filter)
        "q13_order_distribution": """
            WITH co AS (
              SELECT c.c_custkey, count(o.o_orderkey) AS cnt
              FROM customer c LEFT JOIN orders o
                ON c.c_custkey = o.o_custkey
               AND o.o_orderpriority <> '1-URGENT'
              GROUP BY c.c_custkey)
            SELECT CAST(cnt AS BIGINT) AS c_count,
                   CAST(count(*) AS BIGINT) AS custdist
            FROM co GROUP BY cnt ORDER BY custdist DESC, c_count DESC
        """,
        # TPC-H Q10 shape: top-20 customers by returned-item revenue in
        # one order-date band (q3's integer cents x discount-percent)
        "q10_returned_revenue": """
            WITH rev AS (
              SELECT o.o_custkey,
                     sum(CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                         * (100 - CAST(floor(l.l_discount * 100 + 0.5)
                                       AS BIGINT))) AS revenue_c4
              FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
              WHERE l.l_returnflag = 'R'
                AND o.o_orderdate >= TIMESTAMP '1996-07-01'
                AND o.o_orderdate < TIMESTAMP '1997-01-01'
              GROUP BY o.o_custkey)
            SELECT CAST(c.c_custkey AS BIGINT) AS c_custkey, c.c_name,
                   CAST(c.c_nationkey AS BIGINT) AS c_nationkey,
                   CAST(r.revenue_c4 AS BIGINT) AS revenue_c4
            FROM rev r JOIN customer c ON r.o_custkey = c.c_custkey
            ORDER BY revenue_c4 DESC, c_custkey LIMIT 20
        """,
        # DAU + trailing-7-day WAU over active days only (exact distinct)
        "events_dau_wau": """
            WITH ud AS (
              SELECT DISTINCT user_id, date_trunc('day', ts) AS day
              FROM events),
            days AS (SELECT DISTINCT day FROM ud),
            wau AS (
              SELECT d.day, count(DISTINCT u.user_id) AS wau
              FROM days d JOIN ud u
                ON u.day >= d.day - INTERVAL 6 DAY AND u.day <= d.day
              GROUP BY d.day),
            dau AS (SELECT day, count(*) AS dau FROM ud GROUP BY day)
            SELECT d.day, CAST(d.dau AS BIGINT) AS dau,
                   CAST(w.wau AS BIGINT) AS wau
            FROM dau d JOIN wau w USING (day) ORDER BY day
        """,
        # top skip-gram pairs within a 2-token forward window
        "skipgram_pairs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            pos AS (
              SELECT doc_id, i.i AS i, ts[i.i] AS w
              FROM toks, unnest(generate_series(1, len(ts))) AS i(i)),
            pairs AS (
              SELECT a.w AS w1, b.w AS w2
              FROM pos a JOIN pos b
                ON a.doc_id = b.doc_id AND b.i > a.i AND b.i <= a.i + 2)
            SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
            FROM pairs GROUP BY 1, 2 ORDER BY n DESC, w1, w2 LIMIT 30
        """,
        # distinct 8-token document prefixes shared between source pairs
        "cross_source_contamination": """
            WITH toks AS (
              SELECT doc_id, source,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            pref AS (
              SELECT DISTINCT source, array_to_string(ts[1:8], ' ') AS p
              FROM toks WHERE len(ts) >= 8)
            SELECT a.source AS src_a, b.source AS src_b,
                   CAST(count(*) AS BIGINT) AS n_shared
            FROM pref a JOIN pref b ON a.p = b.p AND a.source < b.source
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # TPC-H Q16 shape: distinct suppliers per (brand, type), supplier-
        # part pairs derived from lineitem, one part class excluded
        "q16_part_suppliers": """
            WITH sp AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
            j AS (
              SELECT p.p_brand, p.p_type, sp.l_suppkey
              FROM sp JOIN part p ON sp.l_partkey = p.p_partkey
              WHERE p.p_type <> 'PROMO')
            SELECT p_brand, p_type,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
            FROM j GROUP BY 1, 2
            ORDER BY supplier_cnt DESC, p_brand, p_type LIMIT 20
        """,
        # TPC-H Q7: volume between two nations either direction, per ship
        # year; integer cent x cent revenue like q3/q5
        "q7_nation_volume": """
            SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
                   CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                     AS revenue_c4
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation sn ON s.s_nationkey = sn.n_nationkey
            JOIN nation cn ON c.c_nationkey = cn.n_nationkey
            WHERE ((sn.n_name = 'NATION_1' AND cn.n_name = 'NATION_2')
                OR (sn.n_name = 'NATION_2' AND cn.n_name = 'NATION_1'))
              AND l.l_shipdate >= TIMESTAMP '1996-01-01'
              AND l.l_shipdate < TIMESTAMP '1998-01-01'
            GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        # TPC-H Q15: per-supplier revenue over a quarter, all max ties
        "q15_top_supplier": """
            WITH rev AS (
              SELECT l_suppkey,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * (100 - CAST(round(l_discount * 100)
                                            AS BIGINT))) AS BIGINT)
                       AS total_revenue_c4
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate < TIMESTAMP '1996-04-01'
              GROUP BY 1)
            SELECT CAST(s.s_suppkey AS BIGINT) AS s_suppkey, s.s_name,
                   r.total_revenue_c4
            FROM rev r JOIN supplier s ON s.s_suppkey = r.l_suppkey
            WHERE r.total_revenue_c4 = (SELECT max(total_revenue_c4)
                                        FROM rev)
            ORDER BY s_suppkey
        """,
        # TPC-H Q17: small-quantity revenue for one brand; the correlated
        # 20%-of-average predicate in integers (qty_c*5*cnt < sum_qty_c)
        "q17_small_qty_revenue": """
            WITH bp AS (SELECT p_partkey FROM part
                        WHERE p_brand = 'Brand#1'),
            st AS (
              SELECT l_partkey,
                     sum(CAST(round(l_quantity * 100) AS BIGINT)) AS sq,
                     count(*) AS cnt
              FROM lineitem JOIN bp ON l_partkey = p_partkey
              GROUP BY 1)
            SELECT CAST(coalesce(sum(CAST(round(l.l_extendedprice * 100)
                                          AS BIGINT)), 0) AS BIGINT)
                     AS revenue_c,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem l JOIN st ON l.l_partkey = st.l_partkey
            WHERE CAST(round(l.l_quantity * 100) AS BIGINT) * 5 * st.cnt
                  < st.sq
        """,
        # TPC-H Q19: disjunctive brand/size/quantity clause revenue
        "q19_disjunctive_revenue": """
            SELECT CAST(coalesce(sum(
                     CAST(round(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT))),
                     0) AS BIGINT) AS revenue_c4,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE (p.p_brand = 'Brand#1' AND p.p_size BETWEEN 1 AND 15
                   AND CAST(round(l.l_quantity * 100) AS BIGINT)
                       BETWEEN 100 AND 1100)
               OR (p.p_brand = 'Brand#2' AND p.p_size BETWEEN 1 AND 25
                   AND CAST(round(l.l_quantity * 100) AS BIGINT)
                       BETWEEN 1000 AND 2000)
               OR (p.p_brand = 'Brand#3' AND p.p_size BETWEEN 1 AND 35
                   AND CAST(round(l.l_quantity * 100) AS BIGINT)
                       BETWEEN 2000 AND 3000)
        """,
        # TPC-H Q22: above-positive-average balance, DORMANT (no order
        # since 2000-01-01), per nation; scalar AVG integer-exact
        # (bal_c * cnt > sum_c)
        "q22_sales_opportunity": """
            WITH pos AS (
              SELECT sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS s,
                     count(*) AS c
              FROM customer
              WHERE CAST(round(c_acctbal * 100) AS BIGINT) > 0),
            sel AS (
              SELECT c_custkey, c_nationkey,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS bal_c
              FROM customer, pos
              WHERE CAST(round(c_acctbal * 100) AS BIGINT) * pos.c > pos.s)
            SELECT CAST(c_nationkey AS BIGINT) AS cntrycode,
                   CAST(count(*) AS BIGINT) AS numcust,
                   CAST(sum(bal_c) AS BIGINT) AS totacctbal_c
            FROM sel
            WHERE NOT EXISTS (
              SELECT 1 FROM orders o
              WHERE o.o_custkey = sel.c_custkey
                AND o.o_orderdate >= TIMESTAMP '2000-01-01')
            GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q8: national market share — numerator and denominator
        # revenue per order year, integer cent×cent (share = n/t
        # downstream, never a float in the hashed result)
        "q8_market_share": """
            WITH asia AS (
              SELECT n_nationkey FROM nation JOIN region
                ON n_regionkey = r_regionkey
              WHERE r_name = 'ASIA')
            SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(CASE WHEN sn.n_name = 'NATION_2' THEN
                     CAST(round(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                     ELSE 0 END) AS BIGINT) AS nation_rev_c4,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                     AS BIGINT) AS total_rev_c4
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN asia ON c.c_nationkey = asia.n_nationkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation sn ON s.s_nationkey = sn.n_nationkey
            WHERE p.p_type = 'PROMO'
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1998-01-01'
            GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q9: profit by nation/year for '%red%' parts; retail
        # price is the unit-cost proxy, both terms in 1e-4 dollars
        "q9_product_profit": """
            SELECT n.n_name AS nation,
                   CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(
                     CAST(round(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                     - CAST(round(p.p_retailprice * 100) AS BIGINT)
                     * CAST(round(l.l_quantity * 100) AS BIGINT))
                     AS BIGINT) AS profit_c4
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            WHERE p.p_name LIKE '%red%'
            GROUP BY 1, 2 ORDER BY 1 ASC, 2 DESC
        """,
        # TPC-H Q11: parts whose shipped value from NATION_1 suppliers
        # exceeds 1/1000 of that nation's total (integer predicate)
        "q11_important_parts": """
            WITH v AS (
              SELECT l.l_partkey,
                     CAST(sum(CAST(round(l.l_extendedprice * 100)
                                   AS BIGINT)
                       * (100 - CAST(round(l.l_discount * 100)
                                     AS BIGINT))) AS BIGINT) AS value_c4
              FROM lineitem l
              JOIN supplier s ON l.l_suppkey = s.s_suppkey
              JOIN nation n ON s.s_nationkey = n.n_nationkey
              WHERE n.n_name = 'NATION_1'
              GROUP BY 1),
            t AS (SELECT sum(value_c4) AS tot FROM v)
            SELECT CAST(v.l_partkey AS BIGINT) AS l_partkey, v.value_c4
            FROM v, t
            WHERE v.value_c4 * 1000 > t.tot * 1
            ORDER BY v.value_c4 DESC, v.l_partkey
        """,
        # TPC-H Q12: lines shipped >60d after order date, per
        # linestatus, split high/low order priority
        "q12_late_shipment_priority": """
            SELECT l.l_linestatus,
                   CAST(sum(CASE WHEN o.o_orderpriority IN
                     ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END)
                     AS BIGINT) AS high_line_count,
                   CAST(sum(CASE WHEN o.o_orderpriority IN
                     ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END)
                     AS BIGINT) AS low_line_count
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            WHERE l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
            GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q21: sole latest shipper on multi-supplier 'F' orders;
        # numwait desc, name asc, top 10 (total order — s_name unique)
        "q21_waiting_suppliers": """
            WITH f AS (
              SELECT l.l_orderkey, l.l_suppkey, l.l_shipdate
              FROM lineitem l JOIN orders o
                ON l.l_orderkey = o.o_orderkey
              WHERE o.o_orderstatus = 'F'),
            p AS (SELECT l_orderkey, l_suppkey, max(l_shipdate) AS msd
                  FROM f GROUP BY 1, 2),
            m AS (SELECT l_orderkey, max(msd) AS omax,
                         count(*) AS nsupp
                  FROM p GROUP BY 1),
            w AS (SELECT p.l_orderkey, p.l_suppkey
                  FROM p JOIN m USING (l_orderkey)
                  WHERE p.msd = m.omax AND m.nsupp >= 2),
            solo AS (SELECT l_orderkey, min(l_suppkey) AS win
                     FROM w GROUP BY 1 HAVING count(*) = 1)
            SELECT s.s_name, CAST(count(*) AS BIGINT) AS numwait
            FROM solo JOIN supplier s ON solo.win = s.s_suppkey
            GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 10
        """,
        # TPC-H Q2: min-acctbal supplier per size-band part among the
        # region's shippers, every tie kept, canonical Q2 sort
        "q2_min_acctbal_supplier": """
            WITH asia AS (
              SELECT n_nationkey, n_name FROM nation JOIN region
                ON n_regionkey = r_regionkey
              WHERE r_name = 'ASIA'),
            ps AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
            j AS (
              SELECT ps.l_partkey AS p_partkey, s.s_name, a.n_name,
                     CAST(round(s.s_acctbal * 100) AS BIGINT)
                       AS s_acctbal_c
              FROM ps
              JOIN supplier s ON ps.l_suppkey = s.s_suppkey
              JOIN asia a ON s.s_nationkey = a.n_nationkey
              JOIN part p ON ps.l_partkey = p.p_partkey
              WHERE p.p_size BETWEEN 10 AND 25),
            m AS (SELECT p_partkey, min(s_acctbal_c) AS mn
                  FROM j GROUP BY 1)
            SELECT j.s_acctbal_c, j.s_name, j.n_name,
                   CAST(j.p_partkey AS BIGINT) AS p_partkey
            FROM j JOIN m ON j.p_partkey = m.p_partkey
                         AND j.s_acctbal_c = m.mn
            ORDER BY j.s_acctbal_c DESC, j.n_name, j.s_name, j.p_partkey
            LIMIT 100
        """,
        # TPC-H Q20: suppliers with >50% of a '%red%' part's 1996
        # shipped quantity (integer dominance: q_c*2 > total_c)
        "q20_dominant_suppliers": """
            WITH lp AS (
              SELECT l.l_partkey, l.l_suppkey,
                     sum(CAST(round(l.l_quantity * 100) AS BIGINT))
                       AS q_c
              FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
              WHERE p.p_name LIKE '%red%'
                AND l.l_shipdate >= TIMESTAMP '1996-01-01'
                AND l.l_shipdate < TIMESTAMP '1997-01-01'
              GROUP BY 1, 2),
            pt AS (SELECT l_partkey, sum(q_c) AS tot_c
                   FROM lp GROUP BY 1)
            SELECT DISTINCT s.s_name
            FROM lp JOIN pt ON lp.l_partkey = pt.l_partkey
            JOIN supplier s ON lp.l_suppkey = s.s_suppkey
            WHERE lp.q_c * 2 > pt.tot_c
            ORDER BY s_name
        """,
        # global sentence dedup: 3-word-chunk sentencization, keep each
        # distinct sentence only at min (doc_id, idx), rebuild docs
        # per-source template chunks: same 3-word chunking as
        # sentence_dedup; doc frequency is DISTINCT docs per (source,
        # chunk); threshold max(2, ceil(frac*n_docs)) computed with the
        # same double arithmetic as the engine
        "boilerplate_lines": """
            WITH words AS (
              SELECT doc_id,
                     unnest(string_split(text, ' ')) AS word,
                     generate_subscripts(string_split(text, ' '), 1) AS i
              FROM documents),
            sents AS (
              SELECT doc_id, CAST((i - 1) // 3 AS BIGINT) AS idx,
                     string_agg(word, ' ' ORDER BY i) AS chunk
              FROM words GROUP BY 1, 2),
            dchunks AS (
              SELECT DISTINCT s.doc_id, d.source, s.chunk
              FROM sents s JOIN documents d USING (doc_id)),
            df AS (SELECT source, chunk, count(*) AS df
                   FROM dchunks GROUP BY 1, 2),
            tot AS (SELECT source, count(*) AS n_docs
                    FROM documents GROUP BY 1)
            SELECT t.source, CAST(t.n_docs AS BIGINT) AS n_docs,
                   CAST(coalesce(count(*) FILTER (
                     d.df >= GREATEST(2, CAST(ceil(0.05 * t.n_docs) AS BIGINT))
                   ), 0) AS BIGINT) AS n_template_chunks,
                   CAST(coalesce(max(d.df), 0) AS BIGINT) AS max_df
            FROM tot t LEFT JOIN df d ON d.source = t.source
            GROUP BY 1, 2 ORDER BY 1
        """,
        # Good-Turing frequency-of-frequencies over the oracle-pinned
        # tokenizer; mass = freq * n_types (all exact integers)
        "count_of_counts": """
            WITH toks AS (
              SELECT unnest(string_split_regex(lower(text), '[^a-z0-9]+'))
                     AS token
              FROM documents),
            tc AS (SELECT token, count(*) AS n FROM toks
                   WHERE token <> '' GROUP BY token)
            SELECT n AS freq, count(*) AS n_types,
                   CAST(n * count(*) AS BIGINT) AS mass
            FROM tc GROUP BY n ORDER BY freq
        """,
        # first-occurrence novelty: a gram belongs to its min doc_id;
        # docs with < 8 tokens emit no grams (inner-join semantics)
        "gram_novelty": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            grams AS (
              SELECT doc_id, array_to_string(ts[i.g : i.g+7], ' ') AS gram
              FROM toks, unnest(generate_series(1, len(ts)-7)) AS i(g)),
            dg AS (SELECT DISTINCT doc_id, gram FROM grams),
            f AS (SELECT gram, min(doc_id) AS first_doc FROM dg GROUP BY gram)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   count(*) AS n_grams,
                   CAST(sum(CASE WHEN f.first_doc = d.doc_id THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_novel,
                   floor(CAST(sum(CASE WHEN f.first_doc = d.doc_id
                                       THEN 1 ELSE 0 END) AS DOUBLE)
                         / count(*) * 1000000 + 0.5) / 1000000 AS novel_frac
            FROM dg d JOIN f USING (gram)
            GROUP BY d.doc_id ORDER BY doc_id
        """,
        # exact integer Gini (ppm) of key frequencies via row_number —
        # equals the engine's histogram formulation because tied counts
        # make the rank assignment irrelevant
        "key_skew_audit": """
            WITH cu AS (SELECT user_id AS k, count(*) AS n
                        FROM events GROUP BY 1),
            ru AS (SELECT n, row_number() OVER (ORDER BY n, k) AS i FROM cu),
            su AS (SELECT count(*) AS nk, sum(n) AS tot, max(n) AS mx,
                          sum(i * n) AS s1 FROM ru),
            ct AS (SELECT event_type AS k, count(*) AS n
                   FROM events GROUP BY 1),
            rt AS (SELECT n, row_number() OVER (ORDER BY n, k) AS i FROM ct),
            st AS (SELECT count(*) AS nk, sum(n) AS tot, max(n) AS mx,
                          sum(i * n) AS s1 FROM rt)
            SELECT key_col, n_keys, n_rows, max_n, gini_ppm FROM (
              SELECT 'event_type' AS key_col,
                     CAST(coalesce(nk, 0) AS BIGINT) AS n_keys,
                     CAST(coalesce(tot, 0) AS BIGINT) AS n_rows,
                     CAST(coalesce(mx, 0) AS BIGINT) AS max_n,
                     CASE WHEN coalesce(nk, 0) = 0 OR coalesce(tot, 0) = 0
                          THEN 0
                          ELSE CAST(((2*s1 - (nk+1)*tot) * 2000000 + nk*tot)
                                    // (2*nk*tot) AS BIGINT) END AS gini_ppm
              FROM st
              UNION ALL
              SELECT 'user_id',
                     CAST(coalesce(nk, 0) AS BIGINT),
                     CAST(coalesce(tot, 0) AS BIGINT),
                     CAST(coalesce(mx, 0) AS BIGINT),
                     CASE WHEN coalesce(nk, 0) = 0 OR coalesce(tot, 0) = 0
                          THEN 0
                          ELSE CAST(((2*s1 - (nk+1)*tot) * 2000000 + nk*tot)
                                    // (2*nk*tot) AS BIGINT) END
              FROM su)
            ORDER BY key_col
        """,
        # priority = 32-bit md5 key / (n_chars+1): one exactly-rounded
        # IEEE division of the same integers on both engines, so the
        # ordering is bit-identical; ties break by doc_id
        "weighted_sample": """
            WITH p AS (
              SELECT doc_id, n_chars,
                     CAST(CAST(('0x' || substr(md5('wsample:' ||
                          CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
                          AS DOUBLE) / (n_chars + 1) AS pr
              FROM documents)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(n_chars AS BIGINT) AS n_chars
            FROM p ORDER BY pr, doc_id LIMIT 50
        """,
        # Heaps curve over bigram types: a type's bucket is
        # min(doc_id // 10) over its occurrences; cumulative running sum
        "vocab_growth": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT doc_id, ts[i.g] || ' ' || ts[i.g+1] AS bg
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(g)),
            f AS (SELECT bg, min(doc_id // 10) AS bucket
                  FROM big GROUP BY bg),
            h AS (SELECT bucket, count(*) AS new_types FROM f GROUP BY bucket)
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(new_types AS BIGINT) AS new_types,
                   CAST(sum(new_types) OVER (ORDER BY bucket) AS BIGINT)
                       AS cum_types
            FROM h ORDER BY bucket
        """,
        # per-language top-10 bigrams, count DESC then bigram ASC
        "top_bigrams_per_lang": """
            WITH toks AS (
              SELECT lang,
                     list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                 t -> t <> '') AS ts
              FROM documents),
            big AS (
              SELECT lang, ts[i.g] || ' ' || ts[i.g+1] AS bg
              FROM toks, unnest(generate_series(1, len(ts)-1)) AS i(g)),
            bc AS (SELECT lang, bg, count(*) AS n FROM big GROUP BY 1, 2),
            r AS (SELECT lang, bg, n,
                         row_number() OVER (PARTITION BY lang
                                            ORDER BY n DESC, bg) AS rk
                  FROM bc)
            SELECT lang, bg AS bigram, CAST(n AS BIGINT) AS n,
                   CAST(rk AS BIGINT) AS rank
            FROM r WHERE rk <= 10 ORDER BY lang, rank
        """,
        # whole-week latency buckets with FLOOR division (numpy //):
        # DuckDB // truncates toward zero, so negative diffs (lines
        # shipped before the order date exist — see q4) get the explicit
        # floor form
        "ship_latency_histogram": """
            WITH j AS (
              SELECT o.o_orderpriority,
                     epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate) AS d
              FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey),
            w AS (
              SELECT o_orderpriority,
                     CASE WHEN d >= 0 THEN d // 604800000000
                          ELSE -((-d + 604800000000 - 1) // 604800000000)
                     END AS week
              FROM j)
            SELECT o_orderpriority, CAST(week AS BIGINT) AS week,
                   count(*) AS n_lines
            FROM w GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # lower medians at rank ceil(n/2) in exact integer cents; MAD
        # over |v - median|; outliers strictly beyond 3*MAD
        "events_mad_outliers": """
            WITH v AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS c
                       FROM events),
            r AS (SELECT event_type, c,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY c) AS rn,
                         count(*) OVER (PARTITION BY event_type) AS n
                  FROM v),
            med AS (SELECT event_type, max(n) AS n,
                           max(CASE WHEN rn = (n + 1) // 2 THEN c END)
                               AS median_c
                    FROM r GROUP BY event_type),
            d AS (SELECT v.event_type, abs(v.c - med.median_c) AS a
                  FROM v JOIN med USING (event_type)),
            r2 AS (SELECT event_type, a,
                          row_number() OVER (PARTITION BY event_type
                                             ORDER BY a) AS rn,
                          count(*) OVER (PARTITION BY event_type) AS n
                   FROM d),
            mad AS (SELECT event_type,
                           max(CASE WHEN rn = (n + 1) // 2 THEN a END)
                               AS mad_c
                    FROM r2 GROUP BY event_type),
            o AS (SELECT d.event_type,
                         sum(CASE WHEN d.a > 3 * mad.mad_c
                                  THEN 1 ELSE 0 END) AS n_outliers
                  FROM d JOIN mad USING (event_type)
                  GROUP BY d.event_type)
            SELECT med.event_type, CAST(med.n AS BIGINT) AS n,
                   CAST(med.median_c AS BIGINT) AS median_c,
                   CAST(mad.mad_c AS BIGINT) AS mad_c,
                   CAST(o.n_outliers AS BIGINT) AS n_outliers
            FROM med JOIN mad USING (event_type) JOIN o USING (event_type)
            ORDER BY event_type
        """,
        # co-engagement projection: pairs of event types sharing >= 1
        # user; jaccard in exact-integer floor-half-up ppm
        "event_type_affinity": """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
            pc AS (SELECT event_type, count(*) AS nu FROM d GROUP BY 1),
            pr AS (SELECT a.event_type AS t1, b.event_type AS t2,
                          count(*) AS shared
                   FROM d a JOIN d b ON a.user_id = b.user_id
                        AND a.event_type < b.event_type
                   GROUP BY 1, 2)
            SELECT t1, t2, CAST(shared AS BIGINT) AS shared_users,
                   CAST(p1.nu AS BIGINT) AS n_users_t1,
                   CAST(p2.nu AS BIGINT) AS n_users_t2,
                   CAST((shared * 2000000 + (p1.nu + p2.nu - shared))
                        // (2 * (p1.nu + p2.nu - shared)) AS BIGINT)
                       AS jaccard_ppm
            FROM pr JOIN pc p1 ON p1.event_type = pr.t1
                    JOIN pc p2 ON p2.event_type = pr.t2
            ORDER BY t1, t2
        """,
        "sentence_dedup": """
            WITH words AS (
              SELECT doc_id,
                     unnest(string_split(text, ' ')) AS word,
                     generate_subscripts(string_split(text, ' '), 1) AS i
              FROM documents),
            sents AS (
              SELECT doc_id, CAST((i - 1) // 3 AS BIGINT) AS idx,
                     string_agg(word, ' ' ORDER BY i) AS sent
              FROM words GROUP BY 1, 2),
            ranked AS (
              SELECT doc_id, idx, sent,
                     row_number() OVER (PARTITION BY sent
                                        ORDER BY doc_id, idx) AS rn
              FROM sents),
            tot AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_sents
                    FROM sents GROUP BY 1),
            rebuilt AS (
              SELECT doc_id,
                     string_agg(sent, ' ' ORDER BY idx) AS text_dedup,
                     CAST(count(*) AS BIGINT) AS n_kept
              FROM ranked WHERE rn = 1 GROUP BY 1)
            SELECT t.doc_id, coalesce(r.text_dedup, '') AS text_dedup,
                   t.n_sents, coalesce(r.n_kept, 0) AS n_kept
            FROM tot t LEFT JOIN rebuilt r USING (doc_id)
            ORDER BY t.doc_id
        """,
    }
    sql.update(_graph_oracles())
    sql.update(_quality_oracles())
    sql.update(_cadence_oracles())
    # a full scan of the persisted int8 sidecar is definitionally the
    # inline sq_topk computation — same oracle verbatim
    sql["sq_persisted_topk"] = sql["sq_topk"]
    return sql


def _cadence_oracles() -> dict[str, str]:
    """Round-4 additions: df/blocklist/entropy/cadence/dispersion/CDC."""
    return {
        "cdc_chunk_stats": """
            WITH pos AS (
                SELECT doc_id, unnest(string_split(text, '')) AS c,
                       unnest(range(1, length(text) + 1)) AS i
                FROM documents WHERE length(text) > 0),
            ws AS (SELECT doc_id, i, c,
                   sum(ascii(c)) OVER (PARTITION BY doc_id ORDER BY i
                       ROWS BETWEEN 7 PRECEDING AND CURRENT ROW) AS s
                   FROM pos),
            b AS (SELECT doc_id, i, c,
                  CASE WHEN i >= 8 AND s % 32 = 0 THEN 1 ELSE 0 END AS brk
                  FROM ws),
            g AS (SELECT doc_id, i, c,
                  coalesce(sum(brk) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                      0) AS cid
                  FROM b),
            chunks AS (SELECT doc_id, cid,
                       string_agg(c, '' ORDER BY i) AS chunk
                       FROM g GROUP BY doc_id, cid),
            r AS (SELECT doc_id, cid, chunk, row_number() OVER (
                      PARTITION BY chunk ORDER BY doc_id, cid) AS rn
                  FROM chunks),
            per AS (SELECT doc_id, count(*) AS n_chunks,
                    sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS n_dup,
                    sum(CASE WHEN rn > 1 THEN length(chunk) ELSE 0 END)
                        AS dup_cp
                    FROM r GROUP BY doc_id)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(coalesce(n_chunks, 0) AS BIGINT) AS n_chunks,
                   CAST(coalesce(n_dup, 0) AS BIGINT) AS n_dup_chunks,
                   CAST(coalesce(dup_cp, 0) AS BIGINT) AS dup_cp
            FROM documents d LEFT JOIN per USING (doc_id) ORDER BY doc_id
        """,
        "doc_frequency": """
            WITH toks AS (
                SELECT DISTINCT doc_id,
                       unnest(string_split_regex(lower(text), '[^a-z0-9]+'))
                       AS term
                FROM documents)
            SELECT term, count(*) AS n_docs FROM toks
            WHERE term <> ''
            GROUP BY term ORDER BY n_docs DESC, term LIMIT 25
        """,
        "blocklist_filter": """
            WITH f AS (
                SELECT source,
                       list_has_any(
                         string_split_regex(lower(text), '[^a-z0-9]+'),
                         ['slow', 'error', 'spam']) AS blocked
                FROM documents)
            SELECT source, count(*) AS n_docs,
                   CAST(sum(CASE WHEN blocked THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_blocked,
                   CAST(sum(CASE WHEN blocked THEN 0 ELSE 1 END) AS BIGINT)
                       AS n_kept
            FROM f GROUP BY source ORDER BY source
        """,
        "char_entropy": """
            WITH cc AS (
                SELECT doc_id, c, CAST(count(*) AS DOUBLE) AS cnt
                FROM (SELECT doc_id, unnest(string_split(text, '')) AS c
                      FROM documents WHERE length(text) > 0)
                GROUP BY doc_id, c),
            tot AS (
                SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS n,
                       count(*) AS nd,
                       sum(cnt * log2(cnt)) AS s
                FROM cc GROUP BY doc_id)
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   coalesce(t.n, 0) AS n_cp,
                   CAST(coalesce(t.nd, 0) AS BIGINT) AS n_distinct_cp,
                   coalesce(round(log2(t.n) - t.s / t.n, 6) + 0.0, 0.0)
                       AS entropy
            FROM documents d LEFT JOIN tot t ON d.doc_id = t.doc_id
            ORDER BY doc_id
        """,
        "inter_event_gaps": """
            WITH o AS (
                SELECT event_type,
                       epoch_us(ts) - epoch_us(lag(ts) OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY ts, event_id)) AS gap
                FROM events)
            SELECT event_type,
                   count(gap) AS n_gaps,
                   CAST(coalesce(sum(gap), 0) AS BIGINT) AS sum_gap_us,
                   CAST(coalesce(max(gap), 0) AS BIGINT) AS max_gap_us
            FROM o GROUP BY event_type ORDER BY event_type
        """,
        "label_dispersion": """
            WITH nz AS (
                SELECT CAST(label AS BIGINT) AS label, embedding,
                       sqrt(list_sum(list_transform(
                           embedding, x -> CAST(x AS DOUBLE)
                                           * CAST(x AS DOUBLE)))) AS nrm
                FROM embeddings),
            flat AS (
                SELECT label,
                       unnest(embedding) AS v,
                       unnest(range(1, len(embedding) + 1)) AS i,
                       nrm
                FROM nz WHERE nrm > 0),
            sums AS (
                SELECT label, i, sum(CAST(v AS DOUBLE) / nrm) AS s
                FROM flat GROUP BY label, i),
            q AS (SELECT label, sum(s * s) AS q FROM sums GROUP BY label),
            cnt AS (SELECT label, count(*) AS n FROM nz WHERE nrm > 0
                    GROUP BY label)
            SELECT c.label, c.n AS n_vectors,
                   CASE WHEN c.n >= 2
                        THEN round((q.q - c.n) / (c.n * (c.n - 1)), 6) + 0.0
                        ELSE 0.0 END AS dispersion
            FROM cnt c JOIN q ON c.label = q.label ORDER BY c.label
        """,
    }


def _quality_oracles() -> dict[str, str]:
    """The quality score CTE shared by the per-doc score query and the
    CCNet-style per-language tier bucketing — ONE definition so the two
    can never drift (the score is the oracle pin for both)."""
    cte = r"""
            t AS (
              SELECT doc_id, length(text) AS n,
                     list_filter(string_split_regex(trim(text), '\s+'), x -> x <> '') AS toks,
                     len(regexp_extract_all(text, '[^A-Za-z0-9_ \t\n\r\f\x0b]')) AS n_punct
              FROM documents),
            m AS (
              SELECT doc_id, n, n_punct, len(toks) AS n_tok,
                     CASE WHEN len(toks) = 0 THEN 0.0
                          ELSE list_sum(list_transform(toks, x -> length(x)))::DOUBLE / len(toks)
                     END AS mean_len,
                     CASE WHEN len(toks) = 0 THEN 0.0
                          ELSE len(list_filter(toks, x -> list_contains(
                                 ['a','and','ce','dans','das','de','den','der','die','ein','el','en','es','est','et','for','in','is','ist','it','la','le','mit','no','of','por','pour','que','that','the','to','un','und','von','y','zu'],
                                 lower(x))))::DOUBLE / len(toks)
                     END AS stop_ratio
              FROM t),
            q AS (
              SELECT doc_id,
                CASE WHEN n = 0 OR n_tok = 0 THEN 0.0
                     ELSE floor((0.3 * least(n / 500.0, 1.0)
                          + 0.2 * (CASE WHEN mean_len BETWEEN 2.5 AND 9.0 THEN 1.0 ELSE 0.5 END)
                          + 0.2 * (1.0 - least((n_punct::DOUBLE / n) * 5.0, 1.0))
                          + 0.3 * least(stop_ratio * 4.0, 1.0)) * 1000000 + 0.5) / 1000000
                END AS quality
              FROM m)
    """
    return {
        "quality": "WITH " + cte + """
            SELECT CAST(doc_id AS BIGINT) AS doc_id, quality
            FROM q ORDER BY doc_id
        """,
        # host rollup of the SAME quality score, in integer micro-units
        # (floor(q*1e6 + 0.5) recovers the pinned integer exactly) so the
        # sum is order-independent; host via the md5 oracle bridge
        "host_quality": "WITH " + cte + """,
            h AS (
              SELECT doc_id,
                     'h' || lpad(CAST(
                       CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                            1, 8)) AS BIGINT) % 48
                       AS VARCHAR), 2, '0') AS host
              FROM documents)
            SELECT h.host, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CAST(floor(q.quality * 1000000 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS quality_sum_u
            FROM q JOIN h ON h.doc_id = q.doc_id
            GROUP BY 1 ORDER BY 1
        """,
        # per-source quality-mass mixture weights in integer ppm —
        # floor division against the corpus total, zero-total guarded
        "mixture_weights": "WITH " + cte + """,
            s AS (
              SELECT d.source, CAST(count(*) AS BIGINT) AS n_docs,
                     CAST(sum(CAST(floor(q.quality * 1000000 + 0.5)
                                   AS BIGINT)) AS BIGINT) AS quality_sum_u
              FROM q JOIN documents d ON q.doc_id = d.doc_id
              GROUP BY 1),
            tot AS (SELECT sum(quality_sum_u) AS t FROM s)
            SELECT s.source, s.n_docs, s.quality_sum_u,
                   CAST(CASE WHEN tot.t > 0
                        THEN s.quality_sum_u * 1000000 // tot.t
                        ELSE 0 END AS BIGINT) AS weight_ppm
            FROM s, tot ORDER BY s.source
        """,
        # epoch allocation under a 50% token budget: equal per-source
        # shares, epochs_ppm = min(4e6 cap, share·10⁶ // tokens)
        "token_budget_epochs": """
            WITH toks AS (
              SELECT source,
                     CAST(len(list_filter(
                         string_split_regex(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS BIGINT) AS n
              FROM documents),
            s AS (SELECT source, sum(n) AS n_tokens FROM toks GROUP BY 1),
            b AS (SELECT (sum(n_tokens) * 500000 // 1000000) // count(*)
                      AS share
                  FROM s),
            e AS (SELECT source, n_tokens,
                         CASE WHEN n_tokens > 0
                              THEN least(4000000,
                                         b.share * 1000000 // n_tokens)
                              ELSE 0 END AS epochs_ppm
                  FROM s, b)
            SELECT source, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(epochs_ppm AS BIGINT) AS epochs_ppm,
                   CAST(n_tokens * epochs_ppm // 1000000 AS BIGINT)
                       AS alloc_tokens
            FROM e ORDER BY source
        """,
        "quality_tiers": "WITH " + cte + """,
            wl AS (
              SELECT q.doc_id, d.lang, q.quality
              FROM q JOIN documents d ON q.doc_id = d.doc_id),
            ranked AS (
              SELECT doc_id, lang,
                     row_number() OVER (
                       PARTITION BY lang
                       ORDER BY quality DESC, doc_id) - 1 AS rk,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM wl)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
                   CASE WHEN rk * 3 < n THEN 'head'
                        WHEN rk * 3 < 2 * n THEN 'middle'
                        ELSE 'tail' END AS tier
            FROM ranked ORDER BY doc_id
        """,
    }


def _graph_oracles() -> dict[str, str]:
    """Web-graph family oracles.  The link CTE mirrors
    stages/graph.synthesize_host_edges through the md5 bridge; PageRank is
    unrolled to 5 iterations of the SAME integer floor-division update the
    engine runs (DuckDB ``//`` == numpy ``//`` on non-negative int64);
    components come from a recursive-CTE transitive closure (exact at
    oracle scale — the engine uses union-find / min-label propagation)."""
    link_cte = """
            deg AS (
              SELECT doc_id,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                          AS BIGINT) % 48 AS s,
                     1 + CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)
                          || ':d'), 1, 8)) AS BIGINT) % 3 AS d
              FROM documents),
            raw_links AS (
              SELECT 'h' || lpad(CAST(s AS VARCHAR), 2, '0') AS src_host,
                     'h' || lpad(CAST(
                       CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':'
                            || CAST(j AS VARCHAR)), 1, 8)) AS BIGINT) % 48
                       AS VARCHAR), 2, '0') AS dst_host
              FROM deg, unnest(generate_series(0, d - 1)) AS t(j)),
            links AS (
              SELECT src_host AS src, dst_host AS dst,
                     CAST(count(*) AS BIGINT) AS w
              FROM raw_links WHERE src_host <> dst_host GROUP BY 1, 2)
    """
    pr_iters = "".join(f""",
            r{k} AS (
              SELECT n.h AS h,
                     CAST(150000000 AS BIGINT)
                       + (85 * coalesce(sum((r.r * l.w) // o.od), 0)) // 100
                       AS r
              FROM nodes n
              LEFT JOIN links l ON l.dst = n.h
              LEFT JOIN r{k - 1} r ON r.h = l.src
              LEFT JOIN outdeg o ON o.h = l.src
              GROUP BY n.h)""" for k in range(1, 6))
    # every HITS CTE is read more than once; inlined, DuckDB re-plans the
    # unrolled chain at each use (over a minute even on zero-row tables)
    hits_iters = "".join(f""",
            a{k}r AS MATERIALIZED (
              SELECT n.h AS h,
                     CAST(coalesce(sum(l.w * h{k - 1}.s), 0) AS BIGINT) AS s
              FROM nodes n
              LEFT JOIN links l ON l.dst = n.h
              LEFT JOIN h{k - 1} ON h{k - 1}.h = l.src
              GROUP BY n.h),
            a{k} AS MATERIALIZED (SELECT h, (s * 1000000)
                       // greatest((SELECT max(s) FROM a{k}r), 1) AS s
                     FROM a{k}r),
            h{k}r AS MATERIALIZED (
              SELECT n.h AS h,
                     CAST(coalesce(sum(l.w * a{k}.s), 0) AS BIGINT) AS s
              FROM nodes n
              LEFT JOIN links l ON l.src = n.h
              LEFT JOIN a{k} ON a{k}.h = l.dst
              GROUP BY n.h),
            h{k} AS MATERIALIZED (SELECT h, (s * 1000000)
                       // greatest((SELECT max(s) FROM h{k}r), 1) AS s
                     FROM h{k}r)""" for k in range(1, 4))
    return {
        # HITS: 3 unrolled iterations of the same max-normalized integer
        # update the engine runs (see stages/graph.hits)
        "hits_hosts": "WITH " + link_cte.replace(" AS (", " AS MATERIALIZED (") + """,
            nodes AS MATERIALIZED (SELECT DISTINCT h FROM (
              SELECT src AS h FROM links UNION ALL SELECT dst FROM links)),
            h0 AS MATERIALIZED (SELECT h, CAST(1000000 AS BIGINT) AS s FROM nodes)"""
        + hits_iters + """
            SELECT a3.h AS host, CAST(a3.s AS BIGINT) AS authority_c,
                   CAST(h3.s AS BIGINT) AS hub_c
            FROM a3 JOIN h3 ON h3.h = a3.h ORDER BY host
        """,
        "link_graph": "WITH " + link_cte + """
            SELECT src AS src_host, dst AS dst_host, w AS n_links
            FROM links ORDER BY 1, 2
        """,
        # BFS min-depths from h00, rounds capped at 5; UNION dedups the
        # (host, depth) frontier so the recursion stays bounded
        "host_bfs_depths": "WITH RECURSIVE " + link_cte + """,
            walk(host, depth) AS (
              SELECT 'h00', 0
              UNION
              SELECT l.dst, w.depth + 1
              FROM walk w JOIN links l ON l.src = w.host
              WHERE w.depth < 5),
            d AS (SELECT host, min(depth) AS depth FROM walk GROUP BY host)
            SELECT host, CAST(depth AS BIGINT) AS depth
            FROM d ORDER BY host
        """,
        # ISO dow (Mon=1) x hour-of-day x type activity heatmap
        "events_dow_hour_profile": """
            SELECT event_type, CAST(isodow(ts) AS BIGINT) AS dow,
                   CAST(hour(ts) AS BIGINT) AS hour, count(*) AS n
            FROM events GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        # RANGE-frame trailing window: boundary inclusive, peers count
        "events_burst_detection": """
            WITH w AS (
              SELECT event_type,
                     count(*) OVER (PARTITION BY event_type ORDER BY ts
                                    RANGE BETWEEN INTERVAL 5 MINUTE
                                    PRECEDING AND CURRENT ROW) AS c
              FROM events)
            SELECT event_type, CAST(max(c) AS BIGINT) AS max_burst
            FROM w GROUP BY 1 ORDER BY 1
        """,
        # trailing 7-calendar-day baseline via RANGE frame (absent days
        # contribute nothing); full-history days only; exact-integer test
        "events_daily_anomalies": """
            WITH dc AS (
              SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2),
            w AS (
              SELECT event_type, day, n,
                     coalesce(sum(n) OVER (PARTITION BY event_type
                                           ORDER BY day
                                           RANGE BETWEEN 7 PRECEDING
                                           AND 1 PRECEDING), 0)
                         AS trail7_sum,
                     min(day) OVER (PARTITION BY event_type) AS d0
              FROM dc)
            SELECT event_type, CAST(day AS BIGINT) AS day,
                   CAST(n AS BIGINT) AS n,
                   CAST(trail7_sum AS BIGINT) AS trail7_sum
            FROM w WHERE day >= d0 + 7 AND 14 * n > 3 * trail7_sum
            ORDER BY event_type, day
        """,
        # distinct-type breadth histogram
        "user_type_breadth": """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
            ku AS (SELECT user_id, count(*) AS k FROM d GROUP BY 1)
            SELECT CAST(k AS BIGINT) AS k, count(*) AS n_users
            FROM ku GROUP BY k ORDER BY k
        """,
        # exact catalog stats per numeric column, integer cents
        "lineitem_column_stats": """
            WITH c AS (
              SELECT 'l_discount' AS col,
                     CAST(round(l_discount * 100) AS BIGINT) AS v
              FROM lineitem
              UNION ALL SELECT 'l_extendedprice',
                     CAST(round(l_extendedprice * 100) AS BIGINT)
              FROM lineitem
              UNION ALL SELECT 'l_quantity',
                     CAST(round(l_quantity * 100) AS BIGINT) FROM lineitem
              UNION ALL SELECT 'l_tax',
                     CAST(round(l_tax * 100) AS BIGINT) FROM lineitem)
            SELECT col, CAST(min(v) AS BIGINT) AS min_c,
                   CAST(max(v) AS BIGINT) AS max_c,
                   count(*) AS n_rows,
                   CAST(count(DISTINCT v) AS BIGINT) AS ndv
            FROM c GROUP BY col ORDER BY col
        """,
        # uniform-assumption estimate vs true join size, exact integers
        "join_cardinality_audit": """
            WITH o AS (SELECT count(*) AS n1,
                              count(DISTINCT o_orderkey) AS ndv1
                       FROM orders),
            l AS (SELECT count(*) AS n2,
                         count(DISTINCT l_orderkey) AS ndv2 FROM lineitem),
            a AS (SELECT count(*) AS actual
                  FROM orders o2 JOIN lineitem l2
                       ON o2.o_orderkey = l2.l_orderkey)
            SELECT CAST(n1 AS BIGINT) AS n_orders,
                   CAST(n2 AS BIGINT) AS n_lineitem,
                   CAST(ndv1 AS BIGINT) AS ndv_orders,
                   CAST(ndv2 AS BIGINT) AS ndv_lineitem,
                   CAST(CASE WHEN greatest(ndv1, ndv2) = 0 THEN 0
                             ELSE (n1 * n2) // greatest(ndv1, ndv2) END
                        AS BIGINT) AS est_join_rows,
                   CAST(actual AS BIGINT) AS actual_join_rows,
                   CAST(CASE WHEN greatest(ndv1, ndv2) = 0 THEN 0
                             ELSE (n1 * n2) // greatest(ndv1, ndv2) END
                        - actual AS BIGINT) AS est_error
            FROM o, l, a
        """,
        # per-lang corpus vs sample share in exact floor-half-up ppm
        "sample_bias_audit": """
            WITH f AS (
              SELECT lang,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                          AS BIGINT) % 100 < 10 AS ins
              FROM documents),
            a AS (SELECT lang, count(*) AS n_docs,
                         sum(CASE WHEN ins THEN 1 ELSE 0 END) AS n_sampled
                  FROM f GROUP BY lang),
            t AS (SELECT sum(n_docs) AS td, sum(n_sampled) AS tsm FROM a)
            SELECT lang, CAST(n_docs AS BIGINT) AS n_docs,
                   CAST(n_sampled AS BIGINT) AS n_sampled,
                   CAST((n_docs * 2000000 + td) // (2 * td) AS BIGINT)
                       AS corpus_share_ppm,
                   CAST(CASE WHEN tsm = 0 THEN 0
                             ELSE (n_sampled * 2000000 + tsm) // (2 * tsm)
                        END AS BIGINT) AS sample_share_ppm,
                   CAST(CASE WHEN tsm = 0 THEN 0
                             ELSE (n_sampled * 2000000 + tsm) // (2 * tsm)
                        END
                        - (n_docs * 2000000 + td) // (2 * td)
                        AS BIGINT) AS bias_ppm
            FROM a, t ORDER BY lang
        """,
        # strict-after window on the FIRST signup; exact ppm rate
        "conversion_funnel_windowed": """
            WITH f AS (SELECT user_id, min(epoch_us(ts)) AS first_us
                       FROM events WHERE event_type = 'signup'
                       GROUP BY 1),
            c AS (SELECT DISTINCT e.user_id
                  FROM events e JOIN f ON f.user_id = e.user_id
                  WHERE e.event_type = 'purchase'
                    AND epoch_us(e.ts) > f.first_us
                    AND epoch_us(e.ts) <= f.first_us + 604800000000),
            s AS (SELECT count(*) AS ns FROM f),
            cc AS (SELECT count(*) AS nc FROM c)
            SELECT CAST(ns AS BIGINT) AS n_signup_users,
                   CAST(nc AS BIGINT) AS n_converted,
                   CAST(CASE WHEN ns = 0 THEN 0
                             ELSE (nc * 2000000 + ns) // (2 * ns) END
                        AS BIGINT) AS conversion_ppm
            FROM s, cc
        """,
        # reciprocity over DISTINCT directed edges; exact-integer
        # floor-half-up ppm
        "host_link_reciprocity": "WITH " + link_cte + """
            SELECT l.src AS host, count(*) AS n_out,
                   CAST(sum(CASE WHEN r.src IS NOT NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_recip,
                   CAST((sum(CASE WHEN r.src IS NOT NULL THEN 1 ELSE 0 END)
                         * 2000000 + count(*)) // (2 * count(*)) AS BIGINT)
                       AS reciprocity_ppm
            FROM links l
            LEFT JOIN links r ON r.src = l.dst AND r.dst = l.src
            GROUP BY l.src ORDER BY host
        """,
        # backlog via +1/-1 month deltas and a running sum; completion
        # month clamped to the order month for shipped-before-order rows
        "order_backlog_monthly": """
            WITH comp AS (SELECT l_orderkey, max(l_shipdate) AS done
                          FROM lineitem GROUP BY 1),
            j AS (SELECT year(o.o_orderdate)*12 + month(o.o_orderdate) - 1
                         AS sm,
                         greatest(
                           year(o.o_orderdate)*12 + month(o.o_orderdate) - 1,
                           year(c.done)*12 + month(c.done) - 1) AS em
                  FROM orders o JOIN comp c ON c.l_orderkey = o.o_orderkey),
            del AS (SELECT sm AS m, 1 AS dlt FROM j
                    UNION ALL SELECT em + 1, -1 FROM j),
            g AS (SELECT m, sum(dlt) AS d FROM del GROUP BY m),
            c AS (SELECT m, sum(d) OVER (ORDER BY m) AS open_orders FROM g)
            SELECT CAST(m // 12 AS BIGINT) AS year,
                   CAST(m % 12 + 1 AS BIGINT) AS month,
                   CAST(open_orders AS BIGINT) AS open_orders
            FROM c ORDER BY year, month
        """,
        "pagerank_hosts": "WITH " + link_cte + """,
            outdeg AS (SELECT src AS h, sum(w) AS od FROM links GROUP BY 1),
            nodes AS (SELECT DISTINCT h FROM (
              SELECT src AS h FROM links UNION ALL SELECT dst FROM links)),
            r0 AS (SELECT h, CAST(1000000000 AS BIGINT) AS r FROM nodes)"""
        + pr_iters + """
            SELECT h AS host, CAST(r AS BIGINT) AS rank_c
            FROM r5 ORDER BY host
        """,
        "host_profiles": "WITH " + link_cte + """,
            dhost AS (
              SELECT 'h' || lpad(CAST(s AS VARCHAR), 2, '0') AS host,
                     CAST(count(*) AS BIGINT) AS n_docs
              FROM deg GROUP BY 1),
            outa AS (
              SELECT src AS host, CAST(sum(w) AS BIGINT) AS out_links,
                     CAST(count(*) AS BIGINT) AS out_hosts
              FROM links GROUP BY 1),
            ina AS (
              SELECT dst AS host, CAST(sum(w) AS BIGINT) AS in_links,
                     CAST(count(*) AS BIGINT) AS in_hosts
              FROM links GROUP BY 1),
            hosts AS (
              SELECT host FROM dhost UNION SELECT host FROM outa
              UNION SELECT host FROM ina)
            SELECT h.host,
                   coalesce(d.n_docs, 0) AS n_docs,
                   coalesce(o.out_links, 0) AS out_links,
                   coalesce(o.out_hosts, 0) AS out_hosts,
                   coalesce(i.in_links, 0) AS in_links,
                   coalesce(i.in_hosts, 0) AS in_hosts
            FROM hosts h
            LEFT JOIN dhost d ON d.host = h.host
            LEFT JOIN outa o ON o.host = h.host
            LEFT JOIN ina i ON i.host = h.host
            ORDER BY h.host
        """,
        "random_walks": "WITH " + link_cte + """,
            nbr AS (
              SELECT src, dst,
                     row_number() OVER (PARTITION BY src ORDER BY dst) - 1
                       AS rk,
                     count(*) OVER (PARTITION BY src) AS nn
              FROM links),
            nodes AS (SELECT DISTINCT h FROM (
              SELECT src AS h FROM links UNION ALL SELECT dst FROM links)),
            s1 AS (
              SELECT n.h AS host, coalesce(b.dst, n.h) AS h1
              FROM nodes n LEFT JOIN nbr b
                ON b.src = n.h
               AND b.rk = CAST(('0x' || substr(md5(n.h || ':w0'), 1, 8))
                               AS BIGINT) % b.nn),
            s2 AS (
              SELECT s1.host, s1.h1, coalesce(b.dst, s1.h1) AS h2
              FROM s1 LEFT JOIN nbr b
                ON b.src = s1.h1
               AND b.rk = CAST(('0x' || substr(md5(s1.h1 || ':w1'), 1, 8))
                               AS BIGINT) % b.nn),
            s3 AS (
              SELECT s2.host, s2.h1, s2.h2, coalesce(b.dst, s2.h2) AS h3
              FROM s2 LEFT JOIN nbr b
                ON b.src = s2.h2
               AND b.rk = CAST(('0x' || substr(md5(s2.h2 || ':w2'), 1, 8))
                               AS BIGINT) % b.nn)
            SELECT host, h1, h2, h3 FROM s3 ORDER BY host
        """,
        "triangle_count": "WITH " + link_cte + """,
            e AS (
              SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
              FROM links)
            SELECT CAST(count(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
        """,
        # degree assortativity: both orientations make the marginals
        # equal, so Pearson r needs no sqrt; numerator may be negative —
        # DuckDB // truncates toward zero and the impl matches
        "degree_assortativity": "WITH " + link_cte + """,
            e AS (
              SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
              FROM links),
            nd AS (
              SELECT h, CAST(count(*) AS BIGINT) AS d
              FROM (SELECT a AS h FROM e UNION ALL SELECT b FROM e)
              GROUP BY h),
            p AS (
              SELECT da.d AS x, db.d AS y
              FROM e JOIN nd da ON da.h = e.a JOIN nd db ON db.h = e.b
              UNION ALL
              SELECT db.d, da.d
              FROM e JOIN nd da ON da.h = e.a JOIN nd db ON db.h = e.b),
            st AS (
              SELECT CAST(count(*) AS BIGINT) AS n, sum(x) AS sx,
                     sum(x * x) AS sxx, sum(x * y) AS sxy
              FROM p)
            SELECT CAST(n // 2 AS BIGINT) AS n_edges,
                   CAST(CASE WHEN n * sxx - sx * sx = 0 THEN NULL
                        ELSE (1000000 * (n * sxy - sx * sx))
                             // (n * sxx - sx * sx) END AS BIGINT) AS r_ppm
            FROM st
        """,
        # per-node local clustering coefficient: triangles credit all
        # three corners; all quantities non-negative so // is floor
        "clustering_coefficients": "WITH " + link_cte + """,
            e AS (
              SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
              FROM links),
            nd AS (
              SELECT h, CAST(count(*) AS BIGINT) AS degree
              FROM (SELECT a AS h FROM e UNION ALL SELECT b FROM e)
              GROUP BY h),
            tri AS (
              SELECT e1.a AS x, e1.b AS y, e2.b AS z
              FROM e e1
              JOIN e e2 ON e2.a = e1.b
              JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
            pertri AS (
              SELECT h, CAST(count(*) AS BIGINT) AS nt
              FROM (SELECT x AS h FROM tri UNION ALL SELECT y FROM tri
                    UNION ALL SELECT z FROM tri)
              GROUP BY h)
            SELECT nd.h AS host, nd.degree,
                   CAST(coalesce(p.nt, 0) AS BIGINT) AS n_triangles,
                   CAST(CASE WHEN nd.degree < 2 THEN NULL
                        ELSE (2000000 * coalesce(p.nt, 0))
                             // (nd.degree * (nd.degree - 1)) END
                        AS BIGINT) AS cc_ppm
            FROM nd LEFT JOIN pertri p ON p.h = nd.h
            ORDER BY host
        """,
        "edge_negatives": "WITH " + link_cte + """,
            nodes AS (SELECT DISTINCT h FROM (
              SELECT src AS h FROM links UNION ALL SELECT dst FROM links)),
            cand AS (
              SELECT n.h AS src,
                     'h' || lpad(CAST(
                       CAST(('0x' || substr(md5(n.h || ':n'
                            || CAST(j AS VARCHAR)), 1, 8)) AS BIGINT) % 48
                       AS VARCHAR), 2, '0') AS dst,
                     j
              FROM nodes n, unnest(generate_series(0, 3)) AS t(j))
            SELECT c.src, c.dst, CAST(c.j AS BIGINT) AS slot
            FROM cand c
            LEFT JOIN links l ON l.src = c.src AND l.dst = c.dst
            WHERE c.dst <> c.src AND l.src IS NULL
            ORDER BY c.src, slot
        """,
        "host_components": "WITH RECURSIVE " + link_cte + """,
            base AS (SELECT DISTINCT src, dst FROM links),
            e AS (SELECT src AS u, dst AS v FROM base
                  UNION SELECT dst, src FROM base),
            gnodes AS (SELECT DISTINCT u AS h FROM e),
            reach(a, b) AS (
              SELECT h, h FROM gnodes
              UNION
              SELECT r.a, e.v FROM reach r JOIN e ON e.u = r.b)
            SELECT a AS host, min(b) AS component
            FROM reach GROUP BY a ORDER BY a
        """,
    }

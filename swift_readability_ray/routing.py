"""The one routing policy for every driver-or-distributed gate.

A gated op asks :func:`route` whether an input of ``n`` rows (a parquet
footer count, an aggregated edge count, ...) is small enough to finish on
the driver.  The answer is ``"driver"`` only when the gate is not forced,
``n`` is known and ``n`` is within the gate's entry in :data:`LIMITS`;
every other case is ``"distributed"``.  Both paths of every gate return
the same table — ``tests/test_queries.py`` pins each entry equal across
the default and the forced policy.

Forcing is a context, not a parameter: ``with forced():`` sends every gate
to its distributed path, ``with forced("events_sessions"):`` only the
named ones.  Session caches that hold a gated result
(``training_data._minhash_pairs_cached`` / ``_component_labels_cached``)
bypass themselves while their gate is forced, so a forced run exercises
the live path.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator, Literal

# Entry = the largest input (rows or edges, per gate) merged on the
# driver.  ``None``: the input is bounded by construction (the
# N_HOSTS²-sized synthetic host graph), so only forcing moves the gate.
LIMITS: dict[str, int | None] = {
    # stages/dedup.py
    "dedup.component_labels": 1_000_000,
    "dedup.components_keep_first": 1_000_000,
    "dedup.containment_dedup_pairs": 50_000,
    "dedup.embedding_neardup_lsh": 50_000,
    "dedup.minhash_candidate_pairs": 50_000,
    "dedup.minhash_dedup_pairs": 50_000,
    "dedup.simhash_dedup_pairs": 50_000,
    # stages/graph.py
    "graph.clustering_coefficients": 500_000,
    "graph.connected_components": 1_000_000,
    "graph.edge_negatives": 500_000,
    "graph.hits": 500_000,
    "graph.pagerank": 500_000,
    "graph.random_walks": 500_000,
    "graph.triangle_count": 500_000,
    # pipelines/training_data.py
    "attribution_last_touch": 1_000_000,
    "attribution_linear": 1_000_000,
    "bigram_typicality": 2_000_000,
    "bpe_first_merges": 2_000_000,
    "cdc_chunk_stats": 2_000_000,
    "conversion_funnel": 5_000_000,
    "customers_without_orders": 5_000_000,
    "decontaminate": 2_000_000,
    "dedup_cluster_purity": 5_000_000,
    "delta_dedup": 50_000_000,
    "doc_typicality": 2_000_000,
    "dup_ngram_stats.grams": 5_000_000,
    "dup_ngram_stats.keys": 2_000_000,
    "dup_span_coverage": 2_000_000,
    "event_transitions": 1_000_000,
    "event_trigrams": 1_000_000,
    "events_dau_wau": 2_000_000,
    "events_pivot": 5_000_000,
    "events_quantiles": 5_000_000,
    "events_quantiles_sketch": 5_000_000,
    "events_rolling": 1_000_000,
    "events_sessions": 1_000_000,
    "events_user_counts": 5_000_000,
    "events_watermark_late": 5_000_000,
    "fuzzy_prefix_pairs": 2_000_000,
    "gram_novelty.grams": 5_000_000,
    "gram_novelty.keys": 2_000_000,
    "host_bfs_depths": None,
    "host_link_reciprocity": None,
    "inter_event_gaps": 1_000_000,
    "inverted_index": 2_000_000,
    "join_cardinality_audit": 5_000_000,
    "latest_event_per_user": 5_000_000,
    "lineitem_column_stats": 5_000_000,
    "order_backlog_monthly": 5_000_000,
    "orders_by_segment.customers": 5_000_000,
    "orders_by_segment.orders": 5_000_000,
    "pipeline_certificate.dedup": 2_000_000,
    "pipeline_certificate.survivors": 4096,
    "pmi_bigrams": 2_000_000,
    "prefix_clusters": 2_000_000,
    "q2_min_acctbal_supplier": 4_000_000,
    "q3_top_orders.customers": 5_000_000,
    "q3_top_orders.orders": 5_000_000,
    "q4_priority_anomalies": 200_000,
    "q5_local_supplier_volume": 5_000_000,
    "q7_nation_volume": 5_000_000,
    "q8_market_share": 5_000_000,
    "q9_product_profit": 5_000_000,
    "q10_returned_revenue.customers": 5_000_000,
    "q10_returned_revenue.orders": 5_000_000,
    "q11_important_parts": 2_000_000,
    "q12_late_shipment_priority": 5_000_000,
    "q13_order_distribution": 5_000_000,
    "q15_top_supplier": 2_000_000,
    "q16_part_suppliers.pairs": 2_000_000,
    "q16_part_suppliers.part": 5_000_000,
    "q18_large_orders.lineitem": 4_000_000,
    "q18_large_orders.survivors": 1_000_000,
    "q20_dominant_suppliers": 4_000_000,
    "q21_waiting_suppliers.orders": 5_000_000,
    "q21_waiting_suppliers.pairs": 4_000_000,
    "q22_sales_opportunity": 5_000_000,
    "quality_percentiles": 2_000_000,
    "quality_tiers": 2_000_000,
    "range_layout": 2_000_000,
    "retention_cohorts": 1_000_000,
    "sentence_dedup": 2_000_000,
    "ship_latency_histogram": 5_000_000,
    "source_diversity": 2_000_000,
    "split_leakage_audit": 2_000_000,
    "systematic_sample": 2_000_000,
    "user_rfm": 4_000_000,
    "vocab_coverage": 2_000_000,
}

_ALL = "*"
# context-local, so a forcing in one thread never reroutes another's query
_forced: contextvars.ContextVar[frozenset[str]] = contextvars.ContextVar(
    "forced_gates", default=frozenset())


def _known(gates) -> None:
    unknown = sorted(set(gates) - LIMITS.keys())
    if unknown:
        raise KeyError(f"unknown routing gate(s): {unknown}")


def is_forced(*gates: str) -> bool:
    """True while any of ``gates`` is forced to its distributed path."""
    _known(gates)
    now = _forced.get()
    return _ALL in now or not now.isdisjoint(gates)


def route(gate: str, n: int | None) -> Literal["driver", "distributed"]:
    """``"driver"`` when ``gate`` is not forced, ``n`` is known and
    ``n`` is within ``LIMITS[gate]``; else ``"distributed"``."""
    if is_forced(gate) or n is None:
        return "distributed"
    limit = LIMITS[gate]
    return "driver" if limit is None or n <= limit else "distributed"


@contextlib.contextmanager
def forced(*gates: str) -> Iterator[None]:
    """Force the named gates (all gates when none is named) to their
    distributed path for the duration of the block."""
    _known(gates)
    token = _forced.set(_forced.get() | frozenset(gates or (_ALL,)))
    try:
        yield
    finally:
        _forced.reset(token)

"""Web-graph family: driver-path vs forced-distributed equality pins,
degenerate inputs, and integer-semantics invariants (stages/graph.py)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from swift_readability_ray import routing
from swift_readability_ray.pipelines import training_data as TD
from swift_readability_ray.stages import graph as G


def _forced(fn, *args):
    """``fn(*args)`` with every routing gate forced to the distributed
    path."""
    with routing.forced():
        return fn(*args)


def _write_docs(tmp_path, ids):
    texts = ["w %d" % i for i in ids]
    pq.write_table(pa.table(
        {"doc_id": pa.array(ids, pa.int64()),
         "text": pa.array(texts, pa.string()),
         "lang": pa.array(["en"] * len(ids), pa.string()),
         "source": pa.array(["s0"] * len(ids), pa.string()),
         "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_pagerank_distributed_equals_driver(tmp_path, ray_session):
    sf = _write_docs(tmp_path, list(range(30)))
    drv = TD.pagerank_hosts(sf)
    dist = _forced(TD.pagerank_hosts, sf)
    assert drv.equals(dist)
    # every rank is at least the jump mass; total mass is bounded by the
    # undamped total (leakage from dangling hosts + floor divisions only
    # ever removes mass)
    ranks = drv.column("rank_c").to_numpy()
    assert (ranks >= G.PR_JUMP).all()
    assert ranks.sum() <= drv.num_rows * G.PR_SCALE


def test_components_distributed_equals_driver(tmp_path, ray_session):
    sf = _write_docs(tmp_path, list(range(30)))
    drv = TD.host_components(sf)
    dist = _forced(TD.host_components, sf)
    assert drv.equals(dist)
    # component label is the min host of its group
    comp = drv.to_pydict()
    by_label = {}
    for h, c in zip(comp["host"], comp["component"]):
        by_label.setdefault(c, []).append(h)
    for label, members in by_label.items():
        assert min(members) == label


def test_graph_empty_documents(tmp_path, ray_session):
    sf = _write_docs(tmp_path, [])
    lg = TD.link_graph(sf)
    assert lg.num_rows == 0
    assert lg.schema.names == ["src_host", "dst_host", "n_links"]
    pr = TD.pagerank_hosts(sf)
    assert pr.num_rows == 0
    assert pr.schema.names == ["host", "rank_c"]
    hc = TD.host_components(sf)
    assert hc.num_rows == 0
    assert hc.schema.names == ["host", "component"]


def test_graph_single_doc(tmp_path, ray_session):
    # one doc: 1-3 links from one host; graph may even be empty if every
    # link self-loops — all three ops must stay consistent with each other
    sf = _write_docs(tmp_path, [7])
    lg = TD.link_graph(sf)
    pr = TD.pagerank_hosts(sf)
    hc = TD.host_components(sf)
    hosts = set(lg.column("src_host").to_pylist()) | set(
        lg.column("dst_host").to_pylist())
    assert set(pr.column("host").to_pylist()) == hosts
    assert set(hc.column("host").to_pylist()) == hosts


def test_link_graph_matches_synthesis(tmp_path, ray_session):
    # recompute the expected multigraph in plain python from the pinned
    # md5 bridge and compare the aggregated counts exactly
    from swift_readability_ray.functions.hashing import md5_bucket

    ids = list(range(25))
    sf = _write_docs(tmp_path, ids)
    expect: dict = {}
    for i in ids:
        s = md5_bucket(i, G.N_HOSTS)
        for j in range(1 + md5_bucket(f"{i}:d", 3)):
            t = md5_bucket(f"{i}:{j}", G.N_HOSTS)
            if t != s:
                k = (G.host_name(s), G.host_name(t))
                expect[k] = expect.get(k, 0) + 1
    lg = TD.link_graph(sf)
    got = {(s, d): n for s, d, n in zip(
        lg.column("src_host").to_pylist(),
        lg.column("dst_host").to_pylist(),
        lg.column("n_links").to_pylist())}
    assert got == expect


def test_pagerank_star_graph(ray_session):
    # hand-built star: all mass flows to the hub; spokes keep jump mass
    import ray

    ew = ray.data.from_arrow(pa.table(
        {"src": pa.array(["h01", "h02", "h03"], pa.string()),
         "dst": pa.array(["h00", "h00", "h00"], pa.string()),
         "w": pa.array([1, 1, 1], pa.int64())}))
    out = G.pagerank(ew, iterations=5)
    d = dict(zip(out.column("host").to_pylist(),
                 out.column("rank_c").to_pylist()))
    assert d["h01"] == d["h02"] == d["h03"] == G.PR_JUMP
    # hub: J + 0.85 * 3 * rank(spoke), iterated — strictly dominant
    assert d["h00"] > 3 * d["h01"]


def test_attribution_dual_path(tmp_path, ray_session):
    # groupby map_groups path == driver lexsorted path, incl. same-ts ties
    import numpy as np

    base = 1_700_000_000_000_000
    ts = [base, base, base + 5, base + 5, base + 9,
          base + 1, base + 2, base + 2]
    types = ["click", "click", "purchase", "click", "purchase",
             "purchase", "click", "purchase"]
    users = [1, 1, 1, 1, 1, 2, 2, 2]
    pq.write_table(pa.table(
        {"event_id": pa.array(range(8), pa.int64()),
         "ts": pa.array(ts, pa.timestamp("us")),
         "user_id": pa.array(users, pa.int64()),
         "event_type": pa.array(types, pa.string()),
         "value": pa.array([0.0] * 8, pa.float64()),
         "props": pa.array(["{}"] * 8, pa.string())}),
        str(tmp_path / "events.parquet"))
    from swift_readability_ray.pipelines.training_data import (
        attribution_last_touch,
    )

    drv = attribution_last_touch(str(tmp_path))
    dist = _forced(attribution_last_touch, str(tmp_path))
    assert drv.equals(dist)
    got = {r["event_id"]: (r["click_event_id"], r["gap_us"])
           for r in drv.to_pylist()}
    # purchase 2 at ts+5: clicks 0,1 at base (tie → max event_id 1), click 3
    # at ts+5 (at-or-before wins) → click 3, gap 0
    assert got[2] == (3, 0)
    # purchase 4 at ts+9 → click 3 (ts+5), gap 4
    assert got[4] == (3, 4)
    # user 2: purchase 5 at ts+1 has no click ≤ it → -1
    assert got[5] == (-1, -1)
    # purchase 7 at ts+2 → click 6 (same ts), gap 0
    assert got[7] == (6, 0)


def test_random_walks_distributed_equals_driver(tmp_path, ray_session):
    sf = _write_docs(tmp_path, list(range(30)))
    drv = TD.random_walks(sf)
    dist = _forced(TD.random_walks, sf)
    assert drv.equals(dist)
    # every hop is either a real out-neighbor of the previous host or an
    # absorbing stay on a dangling host
    lg = TD.link_graph(sf)
    nbrs = {}
    for s, d in zip(lg.column("src_host").to_pylist(),
                    lg.column("dst_host").to_pylist()):
        nbrs.setdefault(s, set()).add(d)
    for r in drv.to_pylist():
        cur = r["host"]
        for k in (1, 2, 3):
            nxt = r[f"h{k}"]
            if cur in nbrs:
                assert nxt in nbrs[cur]
            else:
                assert nxt == cur
            cur = nxt


def test_retention_dual_path(tmp_path, ray_session):
    import numpy as np

    rng = np.random.RandomState(11)
    base = 1_700_000_000_000_000
    n = 200
    ts = base + rng.randint(0, 60 * 86400, n).astype(np.int64) * 1_000_000
    pq.write_table(pa.table(
        {"event_id": pa.array(range(n), pa.int64()),
         "ts": pa.array(ts, pa.timestamp("us")),
         "user_id": pa.array(rng.randint(0, 9, n), pa.int64()),
         "event_type": pa.array(["view"] * n, pa.string()),
         "value": pa.array([0.0] * n, pa.float64()),
         "props": pa.array(["{}"] * n, pa.string())}),
        str(tmp_path / "events.parquet"))
    from swift_readability_ray.pipelines.training_data import (
        retention_cohorts,
    )

    drv = retention_cohorts(str(tmp_path))
    dist = _forced(retention_cohorts, str(tmp_path))
    assert drv.equals(dist)
    # offset 0 row exists for every cohort and counts its full cohort
    d = drv.to_pylist()
    cohorts = {r["cohort_week"] for r in d}
    zero = {r["cohort_week"] for r in d if r["week_offset"] == 0}
    assert cohorts == zero


def test_triangle_count_distributed_equals_driver(tmp_path, ray_session):
    sf = _write_docs(tmp_path, list(range(40)))
    drv = TD.triangle_count(sf)
    dist = _forced(TD.triangle_count, sf)
    assert drv.equals(dist)


def test_triangle_count_known_graph(ray_session):
    # K4 minus one edge = 2 triangles
    import ray

    ew = ray.data.from_arrow(pa.table(
        {"src": pa.array(["h0", "h0", "h0", "h1", "h2"], pa.string()),
         "dst": pa.array(["h1", "h2", "h3", "h2", "h3"], pa.string()),
         "w": pa.array([1] * 5, pa.int64())}))
    assert G.triangle_count(ew).column("n_triangles").to_pylist() == [2]
    assert _forced(G.triangle_count, ew).column(
        "n_triangles").to_pylist() == [2]


def test_edge_negatives_distributed_equals_driver(tmp_path, ray_session):
    from swift_readability_ray.pipelines.training_data import (
        _weighted_host_edges,
    )

    sf = _write_docs(tmp_path, list(range(40)))
    drv = TD.edge_negatives(sf)
    dist = _forced(G.edge_negatives, _weighted_host_edges(sf))
    assert drv.equals(dist)
    # no negative is a real edge
    lg = TD.link_graph(sf)
    real = set(zip(lg.column("src_host").to_pylist(),
                   lg.column("dst_host").to_pylist()))
    for r in drv.to_pylist():
        assert (r["src"], r["dst"]) not in real
        assert r["src"] != r["dst"]


def test_hits_distributed_equals_driver(tmp_path, ray_session):
    sf = _write_docs(tmp_path, list(range(30)))
    drv = TD.hits_hosts(sf)
    dist = _forced(TD.hits_hosts, sf)
    assert drv.equals(dist)
    # max-normalization invariants: scores live in [0, S] and each side
    # attains its max exactly (the argmax normalizes to S)
    a = drv.column("authority_c").to_numpy()
    h = drv.column("hub_c").to_numpy()
    assert (a >= 0).all() and (h >= 0).all()
    assert a.max() == G.HITS_SCALE and h.max() == G.HITS_SCALE


def test_hits_star_graph(tmp_path, ray_session):
    # star: many hubs -> one center. The center is the sole authority
    # (a = S, everyone else 0); every spoke is an equal max hub.
    import ray.data

    ew = ray.data.from_arrow(pa.table({
        "src": pa.array(["h%02d" % i for i in range(1, 6)], pa.string()),
        "dst": pa.array(["h00"] * 5, pa.string()),
        "w": pa.array([1] * 5, pa.int64())}))
    out = G.hits(ew, iterations=3)
    d = dict(zip(out.column("host").to_pylist(),
                 zip(out.column("authority_c").to_pylist(),
                     out.column("hub_c").to_pylist())))
    assert d["h00"] == (G.HITS_SCALE, 0)
    for i in range(1, 6):
        assert d["h%02d" % i] == (0, G.HITS_SCALE)


def test_hits_empty_graph(ray_session):
    import ray.data

    ew = ray.data.from_arrow(pa.table({
        "src": pa.array([], pa.string()),
        "dst": pa.array([], pa.string()),
        "w": pa.array([], pa.int64())}))
    out = G.hits(ew)
    assert out.num_rows == 0
    assert out.schema.names == ["host", "authority_c", "hub_c"]


def test_host_bfs_depths_absent_seed(tmp_path, ray_session):
    # a seed no edge touches is still a host at depth 0, on both routes
    # and in the oracle (which seeds (seed, 0) unconditionally)
    sf = _write_docs(tmp_path, list(range(30)))
    want = [{"host": "h_absent", "depth": 0}]
    assert TD.host_bfs_depths(sf, seed_host="h_absent").to_pylist() == want
    assert _forced(TD.host_bfs_depths, sf, "h_absent").to_pylist() == want
    # no documents, no edges: the same lone seed row
    (tmp_path / "empty").mkdir()
    empty_sf = _write_docs(tmp_path / "empty", [])
    assert TD.host_bfs_depths(empty_sf).to_pylist() == [
        {"host": "h00", "depth": 0}]


def test_events_burst_detection_rejects_windows_over_a_day(tmp_path):
    # the one-day halo cannot hold a longer window: fail, don't undercount
    with pytest.raises(ValueError, match="1440"):
        TD.events_burst_detection(str(tmp_path), window_min=1441)

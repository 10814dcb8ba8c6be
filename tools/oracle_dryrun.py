"""Driver-style dry run: every ``__ray_entry__.queries()`` entry vs its
DuckDB ``oracle_sql()`` over one sf directory, compared the way the
harness compares (columns sorted by name, rows sorted, exact values for
non-floats, 1e-9 tolerance for floats).

Usage:
    PYTHONPATH=/root/repo python tools/oracle_dryrun.py [sf_dir] [names...]

Defaults to /root/testdata/sf0.01 and all queries.  Rows-only queries
(no oracle) are executed and row-counted.  Exit code = failure count.
"""
from __future__ import annotations

import json
import os
import sys
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()


def _to_df(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns),
                          kind="mergesort").reset_index(drop=True)


def _compare(a, b):
    import numpy as np
    import pandas as pd

    if list(a.columns) != list(b.columns):
        return False, f"schema {list(a.columns)} != {list(b.columns)}"
    if len(a) != len(b):
        return False, f"rows {len(a)} != {len(b)}"
    for c in a.columns:
        if (np.issubdtype(a[c].dtype, np.floating)
                or np.issubdtype(b[c].dtype, np.floating)):
            af = pd.to_numeric(a[c], errors="coerce").values.astype(float)
            bf = pd.to_numeric(b[c], errors="coerce").values.astype(float)
            na, nb = np.isnan(af), np.isnan(bf)
            if not (na == nb).all():
                return False, f"col {c} nan mismatch"
            if not np.allclose(af[~na], bf[~nb], rtol=1e-9, atol=1e-9):
                return False, f"col {c} float mismatch"
        else:
            av = a[c].values.astype(str)
            bv = b[c].values.astype(str)
            if not (av == bv).all():
                i = int(np.flatnonzero(av != bv)[0])
                return False, f"col {c} row {i}: {av[i]!r} vs {bv[i]!r}"
    return True, None


def main() -> int:
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(REPO, "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)

    args = sys.argv[1:]
    sf = args[0] if args and os.path.isdir(args[0]) else "/root/testdata/sf0.01"
    names = args[1:] if args and os.path.isdir(args[0]) else args
    qs, oracles = m.queries(), m.oracle_sql()
    names = names or list(qs)
    fails = 0
    for name in names:
        t0 = time.time()
        try:
            res = _to_df(qs[name](sf))
            wall = time.time() - t0
            if name not in oracles:
                print(f"{name}: rows_only {len(res)} rows {wall:.1f}s",
                      flush=True)
                continue
            con = duckdb.connect()
            for t in TABLES:
                f = f"{sf}/{t}.parquet"
                if os.path.exists(f):
                    con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                                f"read_parquet('{f}')")
            ref = con.execute(oracles[name]).fetchdf()
            con.close()
            ok, why = _compare(_canon(res), _canon(ref))
            fails += 0 if ok else 1
            print(f"{name}: {'ok' if ok else 'FAIL ' + str(why)} "
                  f"{len(res)} rows {wall:.1f}s", flush=True)
        except Exception as e:
            fails += 1
            print(f"{name}: ERROR {e}", flush=True)
            traceback.print_exc()
    print(json.dumps({"total": len(names), "fail": fails}))
    ray.shutdown()
    return fails


if __name__ == "__main__":
    raise SystemExit(main())

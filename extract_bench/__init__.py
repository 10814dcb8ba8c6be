"""Extraction benchmark: three workloads through the package's public
pipeline entry points, end-to-end metrics and a per-layer trace.

Run from the repository root::

    python3 extract_bench/run.py --workload short_pages --seed 1 --seconds 16 --trace 0

See ``extract_bench/NOTES.md`` for the workloads and the metric map.
"""

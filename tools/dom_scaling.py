"""Per-byte extraction cost against page size: is the work linear?

Runs the full one-row extraction (parse, Readability phases, span emission)
single-threaded on seeded pages of growing size and prints, per page, the
best-of-3 wall time per KB of HTML and a digest of the extracted content.
Linear work keeps µs/KB flat as pages grow; the last lines print the ratio
of the largest page's µs/KB to the smallest's for each page shape.

Page shapes (``swift_readability_ray.fixtures``):

* ``synth``: ``training_data.synthesize_page`` around 20k / 80k / 240k words
  (one article container of 40-word paragraphs);
* ``flat``: 2k / 8k / 20k ``<p>`` directly under ``<body>``.

Usage, from the repo root::

    python tools/dom_scaling.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from swift_readability_ray import fixtures  # noqa: E402
from swift_readability_ray.stages.extract import ReadabilityExtractor  # noqa: E402

REPEATS = 3
PAGES = [("synth", n, fixtures.synthesized_long_page) for n in (20_000, 80_000, 240_000)] + [
    ("flat", n, fixtures.flat_page) for n in (2_000, 8_000, 20_000)
]


def main() -> None:
    extractor = ReadabilityExtractor(base_url="http://testdata.local/doc.html")
    per_kb: dict[str, list[float]] = {}
    for shape, n, make in PAGES:
        html = make(n)
        spans = [{"kind": "text", "text": html, "media_ref": "", "offset": 0}]
        kb = len(html.encode("utf-8")) / 1024
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            row = extractor.extract_one(f"{shape}-{n}", spans)
            best = min(best, time.perf_counter() - t0)
        digest = hashlib.sha256(
            json.dumps([row["error"], row["content_html"], row["spans"]]).encode("utf-8")
        ).hexdigest()[:16]
        us_per_kb = best * 1e6 / kb
        per_kb.setdefault(shape, []).append(us_per_kb)
        print(f"{shape:5s} n={n:>7,d} {kb:9.1f} KB {best:8.3f} s "
              f"{us_per_kb:8.0f} us/KB  digest {digest}", flush=True)
    for shape, vals in per_kb.items():
        print(f"{shape:5s} us/KB largest/smallest: {vals[-1] / vals[0]:.2f}x")


if __name__ == "__main__":
    main()

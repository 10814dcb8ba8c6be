"""Golden extraction net: per-document digests of the full extraction output.

Every input is generated from a seed inside the repo, so the net needs no
reference corpus.  One digest covers what a row of the extraction stage
carries: content HTML, text content, title, byline, excerpt, dir, lang,
site name, published time, readerable, the error, ``n_candidates`` and the
emitted span sequence.  A change to the DOM or to the Readability phases
that is meant to keep results must leave every digest unchanged.

Regenerate the golden file (only for a change that is meant to alter
results, and say so in the change)::

    python tests/test_golden_extract.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "extract_digests.txt")
BASE_URL = "http://testdata.local/doc.html"

_FIELDS = ("content_html", "text_content", "title", "byline", "excerpt", "dir",
           "lang", "site_name", "published_time", "readerable", "error",
           "n_candidates", "spans")

# joined pages: consecutive 10-100-word rows joined 20-600 at a time
_VOCAB = ("a agg batch big column customer data fast filter group hash join key "
          "line merge order part query row scan slow small sort spark stream table "
          "the value vector window").split()


def _text_doc(doc_id: str, html: str) -> tuple[str, list[dict]]:
    return doc_id, [{"kind": "text", "text": html, "media_ref": "", "offset": 0}]


def _joined_pages(seed: int, n_pages: int) -> list[tuple[str, list[dict]]]:
    import pyarrow as pa

    from swift_readability_ray.pipelines import training_data

    rng = random.Random(f"golden-joined/{seed}")
    rows = [" ".join(rng.choices(_VOCAB, k=rng.randint(10, 100))) for _ in range(2000)]
    lo, hi = math.log(20), math.log(600)
    pages = []
    for i in range(n_pages):
        k = round(math.exp(lo + (i + rng.random()) * (hi - lo) / n_pages))
        start = rng.randrange(len(rows))
        pages.append(" ".join(rows[(start + j) % len(rows)] for j in range(k)))
    tbl = training_data._to_span_docs(pa.table({
        "doc_id": pa.array([f"joined-{i}" for i in range(n_pages)], pa.string()),
        "text": pa.array(pages, pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n_pages)], pa.string()),
    }))
    return list(zip(tbl.column("doc_id").to_pylist(), tbl.column("spans").to_pylist()))


def golden_inputs() -> list[tuple[str, list[dict]]]:
    """``(doc_id, spans)`` for every golden document, in a fixed order."""
    from swift_readability_ray import fixtures

    docs = [(d["doc_id"], d["spans"]) for d in fixtures.generate_corpus(42, 50)]
    docs += [_text_doc(f"long-{n}", fixtures.synthesized_long_page(n))
             for n in (20_000, 80_000, 240_000)]
    docs += [_text_doc(f"flat-{n}", fixtures.flat_page(n)) for n in (2_000, 8_000)]
    docs += [_text_doc(f"clutter-{i}", fixtures.clutter_page(i)) for i in range(300)]
    docs += _joined_pages(5, 12)
    return docs


def digest_row(row: dict) -> str:
    payload = json.dumps({k: row[k] for k in _FIELDS}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    from swift_readability_ray.stages.extract import ReadabilityExtractor

    ex = ReadabilityExtractor(base_url=BASE_URL)
    return {doc_id: digest_row(ex.extract_one(doc_id, spans))
            for doc_id, spans in golden_inputs()}


def _read_golden() -> dict[str, str]:
    with open(GOLDEN) as f:
        return dict(line.split() for line in f if line.strip())


def test_extraction_matches_golden_digests():
    want = _read_golden()
    got = compute_digests()
    assert sorted(got) == sorted(want), "golden document set changed"
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"{len(changed)} documents changed, first: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_extract.py --write")
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    digests = compute_digests()
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        f.writelines(f"{k} {v}\n" for k, v in digests.items())
    print(f"wrote {len(digests)} digests to {GOLDEN}")

"""The grab retry loop runs only the attempts that can change the answer.

``Extractor._next_flags`` skips a retry attempt that would repeat the
failed one decision for decision.  These tests run the same inputs once
with it and once with the reference policy (drop the next flag, run every
attempt) patched in, and require every output field except the work
counter ``n_candidates`` and the wall time to agree.  The hand-made pages
each exercise one guard of the skip; the seeded retry pages exercise the
effect marks.  The count test pins how many attempts run.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from swift_readability_ray import fixtures
from swift_readability_ray.readability import core
from swift_readability_ray.stages.extract import ReadabilityExtractor

from test_golden_extract import BASE_URL, golden_inputs

_VOCAB = ("a agg batch big column customer data fast filter group hash join key "
          "line merge order part query row scan slow small sort spark stream table "
          "the value vector window").split()

_SENT = "Quick brown foxes jump over lazy dogs, again and again, all day long."
_PLAIN = "Plain words without any commas"
_TITLE = "A Headline That Is Clearly Longer Than Twenty Five Characters"


def _reference_next_flags(self, same_start):
    """Readability.js: drop the next flag in order and run the attempt."""
    for flag in core._FLAG_ORDER:
        if self._flags & flag:
            return self._flags & ~flag
    return None


def _short_pages(seed: int, n: int) -> list[tuple[int, list[dict]]]:
    """Rows shaped like the sf documents table (10-100 words), as span
    documents: small synthesized pages, most too short on the first try."""
    import pyarrow as pa

    from swift_readability_ray.pipelines import training_data

    rng = random.Random(seed)
    texts = [" ".join(rng.choices(_VOCAB, k=rng.randint(10, 100))) for _ in range(n)]
    tbl = training_data._to_span_docs(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
    }))
    return list(zip(tbl.column("doc_id").to_pylist(), tbl.column("spans").to_pylist()))


def _page(body: str, after: str = "", head: str = "") -> str:
    return (f'<html lang="en"><head><title>{_TITLE}</title>{head}</head>'
            f"<body>{body}</body>{after}</html>")


def _ps(*texts: str) -> str:
    return "".join(f"<p>{t}</p>" for t in texts)


def _nest(html: str, depth: int) -> str:
    """``html`` under ``depth`` plain divs: content this deep does not
    score the body."""
    return "<div>" * depth + html + "</div>" * depth


_LINKS = "<div>" + " ".join(f'<a href="/x{i}">link number {i}</a>' for i in range(70)) + "<p>x</p></div>"

# Each page fails its first attempt with no flag having changed a decision,
# so only the named guard keeps the skip from dropping an attempt whose
# result differs.
GUARD_PAGES = {
    # the first attempt takes the byline out; the next one scores it and
    # picks the rtl block
    "byline": _page(_nest(f"<div>{_ps(_SENT, _SENT)}</div><div dir=\"rtl\">{_ps(_SENT)}"
                          '<p rel="author">By Jane Roe, Ann Lee, Bo Li, Cy Wu, and Di Ma</p></div>', 4)),
    # the first attempt scores the body and makes it the top candidate;
    # the next one keeps the body's score and picks the rtl block
    "scored-body": _page(_ps(*[_SENT] * 5) + f'<div dir="rtl">{_ps(_SENT, _SENT)}</div>'),
    # the first attempt removes the head's copy of the title header, so the
    # next one removes the body's and picks the rtl block
    "removed-outside": _page(
        _nest(f"<div><h2>{_TITLE}</h2>{_ps(_SENT, _SENT)}</div>"
              f'<div dir="rtl">{_ps(_SENT + " " + _SENT, _SENT[:30])}</div>', 4),
        head=f"<template><h2>{_TITLE}</h2></template>"),
    # two blocks after the body take top-candidate slots in the first
    # attempt only; without them the next one climbs to the whole article
    "scored-outside": _page(
        _nest(_LINKS + f"<article>{_ps(_SENT, _SENT, _PLAIN)}</article>"
              + f"<article>{_ps(_SENT, _SENT)}</article>" * 3, 4),
        after=f"<article>{_ps(_SENT, _SENT, _PLAIN)}</article>" * 2),
}

_RETRY_SENTENCES = (_SENT, "Short note here, brief.", "Another line of modest prose follows here",
                    "Many commas, here, there, everywhere, and more, and more, still more.")


def retry_page(seed: int) -> str:
    """A seeded short page mixing what the retry flags and the skip's
    guards react to: unlikely classes and roles, weighted classes, link
    blocks, bylines, title headers, rtl blocks, nesting and content after
    the body."""
    rng = random.Random(f"retry/{seed}")

    def p() -> str:
        return "<p>" + " ".join(rng.choice(_RETRY_SENTENCES) for _ in range(rng.randint(1, 3))) + "</p>"

    def block() -> str:
        attrs = ' dir="rtl"' if rng.random() < 0.25 else ""
        cls = rng.choice(["", "", "", "entry", "sidebar", "comment"])
        if cls:
            attrs += f' class="{cls}"'
        if rng.random() < 0.1:
            attrs += ' role="complementary"'
        kids = [p() for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.2:
            kids.insert(0, f"<h2>{_TITLE}</h2>")
        if rng.random() < 0.2:
            names = ", ".join(rng.sample(["Jane Roe", "Ann Lee", "Bo Li", "Cy Wu", "Di Ma"],
                                         rng.randint(1, 5)))
            kids.insert(rng.randint(0, len(kids)), f'<p rel="author">By {names}</p>')
        if rng.random() < 0.2:
            kids.append("<div>" + " ".join(f'<a href="/x{i}">link number {i}</a>'
                                           for i in range(rng.randint(3, 25))) + "<p>x</p></div>")
        return f"<div{attrs}>{''.join(kids)}</div>"

    head = f"<template><h2>{_TITLE}</h2></template>" if rng.random() < 0.3 else ""
    body = _nest("".join(block() for _ in range(rng.randint(1, 6))), rng.randint(0, 5))
    if rng.random() < 0.3:
        body = "".join(p() for _ in range(rng.randint(1, 3))) + body
    after = ""
    if rng.random() < 0.4:
        after = "".join(f"<div>{''.join(p() for _ in range(rng.randint(2, 3)))}</div>"
                        for _ in range(rng.randint(1, 3)))
    return _page(body, after, head)


def _text_doc(doc_id, html: str) -> tuple[str, list[dict]]:
    return doc_id, [{"kind": "text", "text": html, "media_ref": "", "offset": 0}]


def _inputs(name: str) -> list:
    if name == "golden":
        return golden_inputs()
    if name == "short_pages":
        return _short_pages(3, 600)
    if name == "fixture_corpus":
        return [(d["doc_id"], d["spans"]) for d in fixtures.generate_corpus(7, 50)]
    if name == "guard_pages":
        return [_text_doc(k, html) for k, html in GUARD_PAGES.items()]
    return [_text_doc(f"retry-{i}", retry_page(i)) for i in range(1000)]


def _outputs(docs) -> list[str]:
    ex = ReadabilityExtractor(base_url=BASE_URL)
    out = []
    for doc_id, spans in docs:
        row = ex.extract_one(doc_id, spans)
        del row["n_candidates"], row["wall_us"]
        out.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return out


@pytest.mark.parametrize("name", ["golden", "short_pages", "fixture_corpus",
                                  "guard_pages", "retry_pages"])
def test_skipped_attempts_change_no_output(name, monkeypatch):
    docs = _inputs(name)
    mine = _outputs(docs)
    monkeypatch.setattr(core.Extractor, "_next_flags", _reference_next_flags)
    ref = _outputs(docs)
    differ = [doc_id for (doc_id, _), a, b in zip(docs, mine, ref) if a != b]
    assert not differ, f"{len(differ)} of {len(docs)} documents differ, first: {differ[:10]}"


def _attempts(docs, monkeypatch, key=lambda doc_id: "all") -> Counter:
    """Grab attempts (``_prep_article`` calls) per ``key(doc_id)``."""
    counts: Counter = Counter()
    current = [None]
    prep = core.Extractor._prep_article

    def counted(self, *args):
        counts[current[0]] += 1
        return prep(self, *args)

    monkeypatch.setattr(core.Extractor, "_prep_article", counted)
    ex = ReadabilityExtractor(base_url=BASE_URL)
    for doc_id, spans in docs:
        current[0] = key(doc_id)
        ex.extract_one(doc_id, spans)
    return counts


def test_retry_attempt_counts(monkeypatch):
    """Pinned attempt counts: 600 seeded short pages run 1,670 attempts
    (2,205 with every retry run), and in the fixture corpus only the
    ``short`` category retries, twice per document instead of four times."""
    short = _short_pages(3, 600)
    corpus = [(d["doc_id"], d["spans"]) for d in fixtures.generate_corpus(42, 50)]

    def category(doc_id: str) -> str:
        return doc_id.rsplit("-", 1)[0]

    assert _attempts(short, monkeypatch)["all"] == 1670
    per_category = _attempts(corpus, monkeypatch, category)
    sizes = Counter(category(d) for d, _ in corpus)
    assert per_category == {c: n * (2 if c == "short" else 1) for c, n in sizes.items()}
    monkeypatch.setattr(core.Extractor, "_next_flags", _reference_next_flags)
    assert _attempts(short, monkeypatch)["all"] == 2205
    assert _attempts(corpus, monkeypatch, category)["short"] == 4 * sizes["short"]

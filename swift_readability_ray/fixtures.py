"""Deterministic synthetic corpus of interleaved text+media span documents.

Generates (input, expected) pairs per FIXTURES.md §3: each category targets
one operator family of SURVEY.md §2.  Expectations are *constructed* (not
recorded from the engine), so the golden tests are real correctness checks:
the article body is strong enough to be the top candidate and the junk is
unambiguous enough to be pruned, making the expected span sequence derivable
by hand.

All randomness flows from one seed (default 42).  No external data.
"""

from __future__ import annotations

import random

from .dom import normalize_ws
from .functions.kernels import resolve_url

_WORDS = (
    "stream batch window shuffle partition schema column vector kernel actor "
    "cluster lineage checkpoint replica quorum gossip raft ledger journal "
    "cache buffer spill compact merge sort probe build hash scan filter "
    "project join union sample skew salt bucket shard range token block"
).split()

BASE_URL = "http://fakehost/test/page.html"


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    # guarantee commas so paragraph scoring has signal
    if n_words > 8:
        words[n_words // 3] += ","
        words[2 * n_words // 3] += ","
    return " ".join(words) + "."


def _paragraph(rng: random.Random, n_sentences: int = 3, n_words: int = 14) -> str:
    return " ".join(_sentence(rng, n_words) for _ in range(n_sentences))


def _text_span(text: str, offset: int) -> dict:
    return {"kind": "text", "text": text, "media_ref": "", "offset": offset}


def _media_span(ref: str, offset: int) -> dict:
    return {"kind": "media", "text": "", "media_ref": ref, "offset": offset}


def _doc_shell(head_extra: str, body: str, lang: str = "en") -> str:
    return (
        f'<html lang="{lang}"><head><title>__TITLE__</title>{head_extra}</head>'
        f"<body>{body}</body></html>"
    )


_JUNK = (
    '<div class="sidebar menu"><a href="/home">Home</a> <a href="/about">About</a>'
    ' <a href="/contact">Contact</a> <a href="/archive">Archive</a></div>'
    '<div class="share sharedaddy"><a href="#share">Share this</a></div>'
    '<div style="display:none">You should never see this hidden text.</div>'
    '<div class="footer">Copyright 2026 Fakehost Media. All rights reserved.</div>'
)

_META = (
    '<meta property="og:title" content="{title}">'
    '<meta property="og:description" content="{excerpt}">'
    '<meta property="og:site_name" content="{site}">'
    '<meta name="author" content="{author}">'
    '<meta property="article:published_time" content="{pub}">'
)


def _meta(title: str, excerpt: str, site: str, author: str, pub: str) -> str:
    return _META.format(title=title, excerpt=excerpt, site=site, author=author, pub=pub)


def generate_corpus(seed: int = 42, n_per_category: int = 4) -> list[dict]:
    """Return a list of fixture dicts:

    ``{"doc_id", "spans", "expected": {"spans", "title", "byline", "dir",
    "lang", "excerpt", "site_name", "published_time", "readerable",
    "mode": "strict"|"lenient"}}``
    """
    rng = random.Random(seed)
    docs: list[dict] = []

    def add(category: str, idx: int, spans: list[dict], expected: dict) -> None:
        docs.append(
            {
                "doc_id": f"{category}-{idx:03d}",
                "category": category,
                "spans": spans,
                "expected": expected,
            }
        )

    for i in range(n_per_category):
        # ---------------------------------------------- plain article
        title = f"Streaming Shuffle Deep Dive {i}"
        meta = _meta(title, f"An excerpt about shuffles {i}.", "Fakehost",
                     f"Alex Writer {i}", f"2026-01-{i + 1:02d}T00:00:00Z")
        paras = [_paragraph(rng, 4) for _ in range(6)]
        body = _JUNK + '<div class="article-content">' + "".join(
            f"<p>{p}</p>" for p in paras
        ) + "</div>"
        html = _doc_shell(meta, body).replace("__TITLE__", title)
        add("plain", i, [_text_span(html, 0)], {
            "spans": [
                {"kind": "text", "text": normalize_ws(p), "media_ref": ""}
                for p in paras
            ],
            "title": title, "byline": f"Alex Writer {i}", "dir": None,
            "lang": "en", "excerpt": f"An excerpt about shuffles {i}.",
            "site_name": "Fakehost", "published_time": f"2026-01-{i + 1:02d}T00:00:00Z",
            "readerable": True, "mode": "strict",
        })

        # --------------------------------------- interleaved text/media
        title = f"Illustrated Partitioning Guide {i}"
        meta = _meta(title, f"Pictures of partitions {i}.", "Fakehost",
                     f"Bea Author {i}", f"2026-02-{i + 1:02d}T00:00:00Z")
        paras = [_paragraph(rng, 4) for _ in range(4)]
        img_refs = [f"/images/fig-{i}-{j}.jpg" for j in range(3)]
        abs_refs = [resolve_url(r, BASE_URL) for r in img_refs]
        pieces: list[dict] = []
        off = 0
        head_html = _doc_shell(meta, "").replace("__TITLE__", title)
        head_html, tail_html = head_html.split("<body>", 1)
        tail_html = tail_html.replace("</body>", "")
        pieces.append(_text_span(head_html + "<body>" + _JUNK + '<div class="article-content">', off)); off += 1
        expected_spans: list[dict] = []
        for j, p in enumerate(paras):
            pieces.append(_text_span(f"<p>{p}</p>", off)); off += 1
            expected_spans.append({"kind": "text", "text": normalize_ws(p), "media_ref": ""})
            if j < len(img_refs):
                pieces.append(_media_span(img_refs[j], off)); off += 1
                expected_spans.append({"kind": "media", "text": "", "media_ref": abs_refs[j]})
        pieces.append(_text_span("</div>" + tail_html + "</body></html>", off))
        add("interleaved", i, pieces, {
            "spans": expected_spans,
            "title": title, "byline": f"Bea Author {i}", "dir": None,
            "lang": "en", "excerpt": f"Pictures of partitions {i}.",
            "site_name": "Fakehost", "published_time": f"2026-02-{i + 1:02d}T00:00:00Z",
            "readerable": True, "mode": "strict",
        })

        # -------------------------------------------------- json-ld
        title = f"JSONLD Checkpoint Story {i}"
        jsonld = (
            '<script type="application/ld+json">{"@context": "https://schema.org",'
            f'"@type": "NewsArticle", "name": "{title}",'
            f'"author": {{"name": "Carol Jsonld {i}"}},'
            f'"description": "Jsonld excerpt {i}.",'
            f'"publisher": {{"name": "LD Site"}}, "datePublished": "2026-03-{i + 1:02d}"}}'
            "</script>"
        )
        meta = '<meta property="og:title" content="OG Title Should Lose">' + jsonld
        paras = [_paragraph(rng, 4) for _ in range(5)]
        body = _JUNK + '<div class="article-content">' + "".join(
            f"<p>{p}</p>" for p in paras
        ) + "</div>"
        html = _doc_shell(meta, body).replace("__TITLE__", title)
        add("jsonld", i, [_text_span(html, 0)], {
            "spans": [
                {"kind": "text", "text": normalize_ws(p), "media_ref": ""}
                for p in paras
            ],
            "title": title, "byline": f"Carol Jsonld {i}", "dir": None,
            "lang": "en", "excerpt": f"Jsonld excerpt {i}.",
            "site_name": "LD Site", "published_time": f"2026-03-{i + 1:02d}",
            "readerable": True, "mode": "strict",
        })

        # ------------------------------------------------- br chains
        title = f"BR Chain Compaction Notes {i}"
        meta = _meta(title, f"BR excerpt {i}.", "Fakehost", f"Dan Brs {i}",
                     f"2026-04-{i + 1:02d}T12:00:00Z")
        paras = [_paragraph(rng, 3) for _ in range(5)]
        body = _JUNK + '<div class="article-content">' + "<br><br>".join(paras) + "</div>"
        html = _doc_shell(meta, body).replace("__TITLE__", title)
        add("brs", i, [_text_span(html, 0)], {
            "spans": [
                {"kind": "text", "text": normalize_ws(p), "media_ref": ""}
                for p in paras
            ],
            "title": title, "byline": f"Dan Brs {i}", "dir": None,
            "lang": "en", "excerpt": f"BR excerpt {i}.",
            "site_name": "Fakehost", "published_time": f"2026-04-{i + 1:02d}T12:00:00Z",
            "readerable": True, "mode": "strict",
        })

        # -------------------------------------------------- rtl + lang
        title = f"RTL Ledger Review {i}"
        meta = _meta(title, f"RTL excerpt {i}.", "Fakehost", f"Eli Rtl {i}",
                     f"2026-05-{i + 1:02d}T00:00:00Z")
        paras = [_paragraph(rng, 4) for _ in range(5)]
        body = _JUNK + '<div class="article-content" dir="rtl">' + "".join(
            f"<p>{p}</p>" for p in paras
        ) + "</div>"
        html = _doc_shell(meta, body, lang="ar").replace("__TITLE__", title)
        add("rtl", i, [_text_span(html, 0)], {
            "spans": [
                {"kind": "text", "text": normalize_ws(p), "media_ref": ""}
                for p in paras
            ],
            "title": title, "byline": f"Eli Rtl {i}", "dir": "rtl",
            "lang": "ar", "excerpt": f"RTL excerpt {i}.",
            "site_name": "Fakehost", "published_time": f"2026-05-{i + 1:02d}T00:00:00Z",
            "readerable": True, "mode": "strict",
        })

        # --------------------------------------------------- entities
        title = "Cache &amp; Buffer Tricks"
        expected_title = "Cache & Buffer Tricks"
        meta = (
            f'<meta property="og:title" content="{title}">'
            f'<meta property="og:description" content="A &quot;quoted&quot; excerpt.">'
        )
        paras = [_paragraph(rng, 4) for _ in range(5)]
        body = _JUNK + '<div class="article-content">' + "".join(
            f"<p>{p}</p>" for p in paras
        ) + "</div>"
        html = _doc_shell(meta, body).replace("__TITLE__", "irrelevant")
        add("entities", i, [_text_span(html, 0)], {
            "spans": [
                {"kind": "text", "text": normalize_ws(p), "media_ref": ""}
                for p in paras
            ],
            "title": expected_title, "byline": None, "dir": None,
            "lang": "en", "excerpt": 'A "quoted" excerpt.',
            "site_name": None, "published_time": None,
            "readerable": True, "mode": "strict",
        })

        # -------------------------------------------- data table kept
        title = f"Tabular Quorum Data {i}"
        meta = _meta(title, f"Table excerpt {i}.", "Fakehost", f"Fay Table {i}",
                     f"2026-06-{i + 1:02d}T00:00:00Z")
        paras = [_paragraph(rng, 4) for _ in range(4)]
        cells = [[f"r{r}c{c}" for c in range(3)] for r in range(4)]
        table = (
            "<table><thead><tr>"
            + "".join(f"<th>h{c}</th>" for c in range(3))
            + "</tr></thead><tbody>"
            + "".join(
                "<tr>" + "".join(f"<td>{v}</td>" for v in row) + "</tr>"
                for row in cells
            )
            + "</tbody></table>"
        )
        body = _JUNK + '<div class="article-content">' + "".join(
            f"<p>{p}</p>" for p in paras[:2]
        ) + table + "".join(f"<p>{p}</p>" for p in paras[2:]) + "</div>"
        html = _doc_shell(meta, body).replace("__TITLE__", title)
        table_spans = [{"kind": "text", "text": f"h{c}", "media_ref": ""} for c in range(3)]
        for row in cells:
            table_spans.extend({"kind": "text", "text": v, "media_ref": ""} for v in row)
        add("table", i, [_text_span(html, 0)], {
            "spans": (
                [{"kind": "text", "text": normalize_ws(p), "media_ref": ""} for p in paras[:2]]
                + table_spans
                + [{"kind": "text", "text": normalize_ws(p), "media_ref": ""} for p in paras[2:]]
            ),
            "title": title, "byline": f"Fay Table {i}", "dir": None,
            "lang": "en", "excerpt": f"Table excerpt {i}.",
            "site_name": "Fakehost", "published_time": f"2026-06-{i + 1:02d}T00:00:00Z",
            "readerable": True, "mode": "strict",
        })

        # ------------------------------------- short doc (retry loop)
        title = f"Short Note {i}"
        meta = _meta(title, f"Short excerpt {i}.", "Fakehost", f"Gil Short {i}",
                     f"2026-07-{i + 1:02d}T00:00:00Z")
        short_para = _sentence(rng, 12)
        body = f'<div class="article-content"><p>{short_para}</p></div>'
        html = _doc_shell(meta, body).replace("__TITLE__", title)
        add("short", i, [_text_span(html, 0)], {
            "spans": [{"kind": "text", "text": normalize_ws(short_para), "media_ref": ""}],
            "title": title, "byline": f"Gil Short {i}", "dir": None,
            "lang": "en", "excerpt": f"Short excerpt {i}.",
            "site_name": "Fakehost", "published_time": f"2026-07-{i + 1:02d}T00:00:00Z",
            "readerable": False, "mode": "strict",
        })

    # ------------------------------------------------ oversized (skew row)
    title = "Oversized Compaction Saga"
    meta = _meta(title, "Huge excerpt.", "Fakehost", "Hal Huge",
                 "2026-08-01T00:00:00Z")
    paras = [_paragraph(rng, 5) for _ in range(200)]
    body = _JUNK + '<div class="article-content">' + "".join(
        f"<p>{p}</p>" for p in paras
    ) + "</div>"
    html = _doc_shell(meta, body).replace("__TITLE__", title)
    add("oversized", 0, [_text_span(html, 0)], {
        "spans": [
            {"kind": "text", "text": normalize_ws(p), "media_ref": ""} for p in paras
        ],
        "title": title, "byline": "Hal Huge", "dir": None, "lang": "en",
        "excerpt": "Huge excerpt.", "site_name": "Fakehost",
        "published_time": "2026-08-01T00:00:00Z",
        "readerable": True, "mode": "strict",
    })

    return docs


def synthesized_long_page(n_words: int, seed: int = 42) -> str:
    """``training_data.synthesize_page`` around ``n_words`` seeded words: one
    article container of 40-word paragraphs, the shape whose size the DOM
    scaling checks vary (20k words is ~135 KB of HTML, 240k ~1.6 MB)."""
    from .pipelines.training_data import synthesize_page

    rng = random.Random(f"long/{seed}/{n_words}")
    text = " ".join(rng.choice(_WORDS) for _ in range(n_words))
    return synthesize_page(f"long-{n_words}", text, "synth")


def flat_page(n_paragraphs: int, seed: int = 42) -> str:
    """``n_paragraphs`` seeded ``<p>`` directly under ``<body>``: no article
    container, so every paragraph is a sibling of every other and body is
    the top candidate."""
    rng = random.Random(f"flat/{seed}/{n_paragraphs}")
    body = "".join(f"<p>{_paragraph(rng, 1, 12)}</p>" for _ in range(n_paragraphs))
    return _doc_shell("", body).replace("__TITLE__", f"Flat page {n_paragraphs}")


def _clutter_block(rng: random.Random) -> str:
    """One block of the kinds Readability cleans conditionally, with its
    link, comma, image, list and input counts spread across the cleaning
    thresholds."""
    def words(lo: int, hi: int) -> str:
        return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))

    def link() -> str:
        href = rng.choice(["#s", "/a", "http://fakehost/b"])
        return f'<a href="{href}">{words(1, 6)}</a>'

    kind = rng.choice(["prose", "links", "gallery", "list", "table", "form", "embed",
                       "heading", "mixed"])
    if kind == "prose":
        html = f"<p>{_paragraph(rng, rng.randint(1, 6), rng.randint(5, 16))}</p>"
    elif kind == "links":
        html = " ".join([link() for _ in range(rng.randint(1, 8))] + [words(0, 30)])
    elif kind == "gallery":
        html = "".join([f'<img src="/i{rng.randint(0, 99)}.jpg">' for _ in range(rng.randint(0, 7))]
                       + [f"<p>{words(2, 20)}</p>" for _ in range(rng.randint(0, 3))])
    elif kind == "list":
        html = "<ul>" + "".join(f"<li>{link() if rng.random() < 0.4 else words(1, 12)}</li>"
                                for _ in range(rng.randint(1, 8))) + "</ul>"
    elif kind == "table":
        head = "<tr><th>h</th></tr>" if rng.random() < 0.3 else ""
        rows = "".join("<tr>" + "".join(f"<td>{words(1, 5)}</td>" for _ in range(rng.randint(1, 6)))
                       + "</tr>" for _ in range(rng.randint(1, 12)))
        html = f"<table>{head}{rows}</table>"
    elif kind == "form":
        html = ("<form>" + '<input type="text">' * rng.randint(0, 4)
                + "".join(f"<p>{words(0, 20)}</p>" for _ in range(rng.randint(0, 7))) + "</form>")
    elif kind == "embed":
        src = rng.choice(["https://www.youtube.com/embed/x", "http://ads.fakehost/frame"])
        html = f'<iframe src="{src}"></iframe><p>{words(3, 18)}</p>'
    elif kind == "heading":
        html = f"<h2>{words(1, 8)}</h2><p>{words(4, 30)}</p>"
    else:
        parts = [f"<p>{_paragraph(rng, rng.randint(1, 3))}</p>", link(), words(0, 12),
                 f'<img src="/m{rng.randint(0, 99)}.png">', f"<span>{words(1, 6)}</span>"]
        html = "".join(rng.sample(parts, rng.randint(1, len(parts))))
    cls = rng.choice(["", "content", "related", "widget", "entry", "comment"])
    return f'<div class="{cls}">{html}</div>'


def clutter_page(seed: int) -> str:
    """A seeded article: three strong paragraphs interleaved with 4-10
    clutter blocks (``_clutter_block``), so conditional cleaning decides
    near its thresholds."""
    rng = random.Random(f"clutter/{seed}")
    blocks = [f"<p>{_paragraph(rng, 4)}</p>" for _ in range(3)]
    for _ in range(rng.randint(4, 10)):
        blocks.insert(rng.randint(0, len(blocks)), _clutter_block(rng))
    body = _JUNK + '<div class="article-content">' + "".join(blocks) + "</div>"
    return _doc_shell("", body).replace("__TITLE__", f"Clutter page {seed}")


def corpus_to_tables(docs: list[dict]):
    """Split fixtures into (input_table, expected_table) pyarrow Tables."""
    import pyarrow as pa

    from .schema import DOCUMENTS, SPAN

    input_tbl = pa.Table.from_arrays(
        [
            pa.array([d["doc_id"] for d in docs], pa.string()),
            pa.array([d["spans"] for d in docs], pa.list_(SPAN)),
        ],
        schema=DOCUMENTS,
    )
    exp_spans = []
    for d in docs:
        exp_spans.append(
            [
                {**s, "offset": i}
                for i, s in enumerate(d["expected"]["spans"])
            ]
        )
    expected_tbl = pa.Table.from_arrays(
        [
            pa.array([d["doc_id"] for d in docs], pa.string()),
            pa.array(exp_spans, pa.list_(SPAN)),
            pa.array([d["expected"]["title"] for d in docs], pa.string()),
            pa.array([d["expected"]["byline"] for d in docs], pa.string()),
            pa.array([d["expected"]["dir"] for d in docs], pa.string()),
            pa.array([d["expected"]["lang"] for d in docs], pa.string()),
            pa.array([d["expected"]["excerpt"] for d in docs], pa.string()),
            pa.array([d["expected"]["site_name"] for d in docs], pa.string()),
            pa.array([d["expected"]["published_time"] for d in docs], pa.string()),
            pa.array([d["expected"]["readerable"] for d in docs], pa.bool_()),
            pa.array([d["expected"]["mode"] for d in docs], pa.string()),
        ],
        names=[
            "doc_id", "spans", "title", "byline", "dir", "lang", "excerpt",
            "site_name", "published_time", "readerable", "mode",
        ],
    )
    return input_tbl, expected_tbl

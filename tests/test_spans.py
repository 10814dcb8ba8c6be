from swift_readability_ray.dom import parse
from swift_readability_ray.spans import emit_spans, spans_to_html


def test_spans_to_html_ordering():
    spans = [
        {"kind": "media", "text": "", "media_ref": "/b.png", "offset": 1},
        {"kind": "text", "text": "<p>A</p>", "media_ref": "", "offset": 0},
        {"kind": "text", "text": "<p>C</p>", "media_ref": "", "offset": 2},
    ]
    assert spans_to_html(spans) == '<p>A</p><img src="/b.png"/><p>C</p>'


def test_emit_spans_paragraph_granularity():
    doc = parse("<body><div><p>one two</p><p>three <b>four</b></p></div></body>")
    spans = emit_spans(doc.body)
    assert [(s["kind"], s["text"]) for s in spans] == [
        ("text", "one two"),
        ("text", "three four"),
    ]
    assert [s["offset"] for s in spans] == [0, 1]


def test_emit_spans_media_interleaved():
    doc = parse(
        '<body><p>before</p><img src="http://h/a.jpg"><p>after</p>'
        '<video poster="http://h/p.png"></video></body>'
    )
    spans = emit_spans(doc.body)
    assert [(s["kind"], s["text"] or s["media_ref"]) for s in spans] == [
        ("text", "before"),
        ("media", "http://h/a.jpg"),
        ("text", "after"),
        ("media", "http://h/p.png"),
    ]


def test_emit_spans_whitespace_normalized_and_empty_skipped():
    doc = parse("<body><p>  a   b  </p><p>   </p><div></div></body>")
    spans = emit_spans(doc.body)
    assert len(spans) == 1
    assert spans[0]["text"] == "a b"


def test_emit_spans_srcset_fallback():
    doc = parse('<body><img srcset="http://h/x-1.jpg 1x, http://h/x-2.jpg 2x"></body>')
    spans = emit_spans(doc.body)
    assert spans[0]["media_ref"] == "http://h/x-1.jpg"


def test_roundtrip_article():
    html = '<div><p>first para</p><img src="http://h/i.jpg"><p>second para</p></div>'
    doc = parse(f"<body>{html}</body>")
    spans = emit_spans(doc.body)
    html2 = spans_to_html(spans)
    doc2 = parse(f"<body>{html2}</body>")
    assert emit_spans(doc2.body) == spans


def test_media_ref_roundtrips_through_reassembly():
    refs = [
        "http://x/q\"uote.png",
        "http://x/a.png?a=1&copy=2",
        "http://x/it's.png",
        "http://x/<lt>.png",
        "http://x/&amp;.png",
        "http://x/plain.png",
    ]
    for ref in refs:
        html = spans_to_html(
            [
                {"kind": "text", "text": "<p>before</p>", "media_ref": "", "offset": 0},
                {"kind": "media", "text": "", "media_ref": ref, "offset": 1},
            ]
        )
        doc = parse(f"<body>{html}</body>")
        media = [s for s in emit_spans(doc.body) if s["kind"] == "media"]
        assert [s["media_ref"] for s in media] == [ref]

"""Behavioral tests of the extraction core on small constructed documents."""

import pytest

from swift_readability_ray import ExtractOptions, extract
from swift_readability_ray.dom import parse
from swift_readability_ray.readability.core import Extractor, MaxElemsExceeded
from swift_readability_ray.readability.readerable import is_probably_readerable

LONG = (
    "This paragraph has plenty of text, commas, and general prose to score "
    "well, because scoring rewards commas, length, and repetition. " * 3
)

ARTICLE = f"""
<html lang="en"><head><title>My Test Page Title Here</title></head><body>
<div class="sidebar menu"><a href="/a">Nav one</a><a href="/b">Nav two</a></div>
<div class="content-main">
  <p>{LONG}</p>
  <p>{LONG}</p>
  <p>{LONG}</p>
</div>
<div class="footer">footer text</div>
</body></html>
"""


def test_basic_extraction():
    r = extract(ARTICLE, "http://host/x.html")
    assert r is not None
    assert "plenty of text" in r["textContent"]
    assert "Nav one" not in r["textContent"]
    assert "footer text" not in r["textContent"]
    assert r["lang"] == "en"
    assert r["length"] == len(r["textContent"])


def test_max_elems_guard():
    with pytest.raises(MaxElemsExceeded):
        extract(ARTICLE, options=ExtractOptions(max_elems_to_parse=3))


def test_hidden_content_removed():
    html = ARTICLE.replace(
        '<div class="footer">',
        '<div style="display:none"><p>INVISIBLE</p></div><div class="footer">',
    )
    r = extract(html)
    assert "INVISIBLE" not in r["textContent"]


def test_aria_hidden_removed():
    html = ARTICLE.replace(
        '<div class="footer">',
        '<div aria-hidden="true"><p>ARIAHIDDEN</p></div><div class="footer">',
    )
    r = extract(html)
    assert "ARIAHIDDEN" not in r["textContent"]


def test_byline_from_body():
    html = ARTICLE.replace(
        '<div class="content-main">',
        '<div class="content-main"><div class="byline">By Someone Person</div>',
    )
    r = extract(html)
    assert r["byline"] == "By Someone Person"


def test_rel_author_byline():
    html = ARTICLE.replace(
        '<div class="content-main">',
        '<div class="content-main"><span rel="author">Jo Bloggs</span>',
    )
    r = extract(html)
    assert r["byline"] == "Jo Bloggs"


def test_header_duplicating_title_removed():
    html = ARTICLE.replace(
        '<div class="content-main">',
        '<div class="content-main"><h1>My Test Page Title Here</h1>',
    )
    r = extract(html)
    assert "My Test Page Title Here" not in r["textContent"]


def test_h1_demoted_to_h2():
    html = ARTICLE.replace(
        '<div class="content-main">',
        '<div class="content-main"><h1>Completely Different Heading Word Soup</h1>',
    )
    r = extract(html)
    assert "<h2>" in r["content"]
    assert "<h1>" not in r["content"]


def test_share_widget_removed():
    html = ARTICLE.replace(
        "</div>\n<div class=\"footer\">",
        '<div class="sharedaddy"><a href="#">share me</a></div></div>\n<div class="footer">',
    )
    r = extract(html)
    assert "share me" not in r["textContent"]


def test_javascript_links_unwrapped():
    html = ARTICLE.replace(
        f"<p>{LONG}</p>",
        f"<p>{LONG} <a href=\"javascript:void(0)\">click me</a></p>",
        1,
    )
    r = extract(html, "http://host/x.html")
    assert "click me" in r["textContent"]
    assert "javascript:" not in r["content"]


def test_relative_urls_absolutized():
    html = ARTICLE.replace(
        f"<p>{LONG}</p>",
        f'<p>{LONG} <a href="/other/page.html">rel link</a>'
        f' <img src="../img/pic.jpg"></p>',
        1,
    )
    r = extract(html, "http://host/sub/x.html")
    assert 'href="http://host/other/page.html"' in r["content"]
    assert 'src="http://host/img/pic.jpg"' in r["content"]


def test_base_href_honored():
    html = ARTICLE.replace(
        "<head>", '<head><base href="http://cdn.example/base/">'
    ).replace(f"<p>{LONG}</p>", f'<p>{LONG} <a href="x.html">lnk</a></p>', 1)
    r = extract(html, "http://host/page.html")
    assert 'href="http://cdn.example/base/x.html"' in r["content"]


def test_srcset_rewritten():
    html = ARTICLE.replace(
        f"<p>{LONG}</p>",
        f'<p>{LONG}</p><img src="/i/a.jpg" srcset="/i/a-1x.jpg 1x, /i/a-2x.jpg 2x">',
        1,
    )
    r = extract(html, "http://host/x.html")
    assert "http://host/i/a-1x.jpg 1x" in r["content"]
    assert "http://host/i/a-2x.jpg 2x" in r["content"]


def test_class_stripping_and_preserve():
    html = ARTICLE.replace("content-main", "content-main keepme")
    r = extract(html)
    assert 'class="keepme"' not in r["content"]
    r2 = extract(html, options=ExtractOptions(classes_to_preserve=("keepme",)))
    assert "keepme" in r2["content"]
    r3 = extract(html, options=ExtractOptions(keep_classes=True))
    assert "content-main" in r3["content"]


def test_video_embed_spared():
    html = ARTICLE.replace(
        f"<p>{LONG}</p>",
        f'<p>{LONG}</p><iframe src="https://www.youtube.com/embed/abc"></iframe>'
        f'<iframe src="https://ads.example.com/frame"></iframe>',
        1,
    )
    r = extract(html)
    assert "youtube.com/embed/abc" in r["content"]
    assert "ads.example.com" not in r["content"]


def test_custom_video_regex():
    html = ARTICLE.replace(
        f"<p>{LONG}</p>",
        f'<p>{LONG}</p><iframe src="https://video.mysite.org/v/1"></iframe>',
        1,
    )
    r = extract(html)
    assert "video.mysite.org" not in r["content"]
    r2 = extract(html, options=ExtractOptions(allowed_video_regex=r"//video\.mysite\.org"))
    assert "video.mysite.org" in r2["content"]


def test_data_table_kept_layout_table_unwrapped():
    data_table = (
        "<table><thead><tr><th>h1</th><th>h2</th></tr></thead>"
        "<tbody>" + "".join(f"<tr><td>a{i}</td><td>b{i}</td></tr>" for i in range(5)) + "</tbody></table>"
    )
    html = ARTICLE.replace(f"<p>{LONG}</p>", f"<p>{LONG}</p>{data_table}", 1)
    r = extract(html)
    assert "a3" in r["textContent"]

    single_cell = f"<table><tr><td><p>{LONG}</p></td></tr></table>"
    html2 = ARTICLE.replace(f"<p>{LONG}</p>", single_cell, 1)
    r2 = extract(html2)
    assert "<table>" not in r2["content"]
    assert "plenty of text" in r2["textContent"]


def test_retry_loop_returns_best_attempt():
    short = "<html><body><div class='content'><p>Tiny little article body, it is short.</p></div></body></html>"
    r = extract(short)
    assert r is not None
    assert "Tiny little article" in r["textContent"]
    assert r["readerable"] is False


def test_empty_doc_returns_none():
    assert extract("<html><body></body></html>") is None


def test_noscript_image_unwrap():
    html = ARTICLE.replace(
        f"<p>{LONG}</p>",
        f'<p>{LONG}</p><img src="data:image/gif;base64,R0lGOD">'
        f'<noscript><img src="http://host/real.jpg"></noscript>',
        1,
    )
    r = extract(html, "http://host/x.html")
    assert 'src="http://host/real.jpg"' in r["content"]


def test_lazy_image_fixed():
    html = ARTICLE.replace(
        f"<p>{LONG}</p>",
        f'<p>{LONG}</p><img class="lazy" data-src="http://host/lazy-pic.jpg">',
        1,
    )
    r = extract(html, "http://host/x.html")
    assert 'src="http://host/lazy-pic.jpg"' in r["content"]


def test_font_replaced_with_span():
    html = ARTICLE.replace(f"<p>{LONG}</p>", f"<p><font>{LONG}</font></p>", 1)
    r = extract(html)
    assert "<font" not in r["content"]


def test_readerable_thresholds():
    long_text = "word " * 60
    doc = parse(f"<html><body><p>{long_text}</p><p>{long_text}</p></body></html>")
    assert is_probably_readerable(doc) is True
    doc2 = parse("<html><body><p>short</p></body></html>")
    assert is_probably_readerable(doc2) is False
    # p inside li is ignored
    doc3 = parse(f"<html><body><ul><li><p>{long_text}</p><p>{long_text}</p></li></ul></body></html>")
    assert is_probably_readerable(doc3) is False
    # visibility checker injection
    doc4 = parse(f"<html><body><p>{long_text}</p><p>{long_text}</p></body></html>")
    assert is_probably_readerable(doc4, visibility_checker=lambda n: False) is False


def test_fresh_extractor_required_per_doc():
    ex = Extractor()
    r1 = ex.parse(ARTICLE, "http://host/x.html")
    assert r1 is not None
    # state is per-instance: a second instance gives identical output
    r2 = Extractor().parse(ARTICLE, "http://host/x.html")
    assert r1["textContent"] == r2["textContent"]


def test_dir_detection():
    html = ARTICLE.replace('<div class="content-main">', '<div class="content-main" dir="rtl">')
    r = extract(html)
    assert r["dir"] == "rtl"


def test_excerpt_falls_back_to_first_p():
    r = extract(ARTICLE)
    assert r["excerpt"].startswith("This paragraph has plenty")


def test_xml_serializer_mode():
    """serializer="xml" self-closes void elements (useXMLSerializer parity,
    Readability.swift:451-666)."""
    from swift_readability_ray import ExtractOptions, extract

    html = (
        '<html><body><div class="article-content">'
        + "<p>First line.<br>Second line, with commas, and more, text here.</p>" * 10
        + '<p><img src="http://x/пic.png" alt="a"></p></div></body></html>'
    )
    r_html = extract(html, "http://x/", ExtractOptions(serializer="html"))
    r_xml = extract(html, "http://x/", ExtractOptions(serializer="xml"))
    assert "<br>" in r_html["content"]
    assert "<br />" in r_xml["content"]
    assert "<img" in r_xml["content"] and "/>" in r_xml["content"]
    # same text either way
    assert r_html["textContent"] == r_xml["textContent"]


def test_live_document_pipeline_mutates_caller_dom():
    """Entry point 2 (Readability(document:), SURVEY.md §3.2): extraction
    operates destructively on the caller's Document — no reparse — and
    produces the same result as the string pipeline."""
    from swift_readability_ray import extract, extract_document
    from swift_readability_ray.dom import parse

    html = (
        '<html><head><title>Live Doc | Site</title><script>x()</script></head>'
        '<body><div class="article-content">'
        + "<p>Sentence one, with commas, continues on. More text follows here.</p>" * 8
        + "</div></body></html>"
    )
    doc = parse(html, "http://x.com/a.html")
    n_scripts_before = len(doc.get_elements_by_tag_name("script"))
    assert n_scripts_before == 1

    r_live = extract_document(doc, "http://x.com/a.html")
    r_str = extract(html, "http://x.com/a.html")

    assert r_live is not None and r_str is not None
    assert r_live["textContent"] == r_str["textContent"]
    assert r_live["title"] == r_str["title"]
    # destructive: caller's DOM was mutated (scripts removed in place)
    assert len(doc.get_elements_by_tag_name("script")) == 0


def test_phase_timings_collector():
    """Per-phase timing labels mirror the reference's TimingSink
    (Timing.swift; labels parseDocument/readerable/metadata/preprocess/
    grab/postprocess/serialize)."""
    from swift_readability_ray import Extractor

    html = (
        "<html><head><title>T</title></head><body><div>"
        + "<p>Some content with, commas, and length enough to score well.</p>" * 10
        + "</div></body></html>"
    )
    ex = Extractor()
    ex.timings = {}
    r = ex.parse(html, "http://x.com/")
    assert r is not None
    for label in ("parseDocument", "readerable", "preprocess", "metadata",
                  "grab", "postprocess", "serialize"):
        assert label in ex.timings and ex.timings[label] >= 0.0, label


def test_disable_jsonld_option():
    """disableJSONLD toggle (ParitySupplementaryTests analog): with JSON-LD
    disabled, metadata falls back to meta tags / title element."""
    from swift_readability_ray import ExtractOptions, extract

    html = (
        '<html><head><title>Tag Title</title>'
        '<script type="application/ld+json">'
        '{"@context":"https://schema.org","@type":"Article",'
        '"headline":"LD Title","author":{"name":"LD Author"}}</script>'
        '</head><body><div class="article-content">'
        + "<p>Body text, long enough, with commas, to extract properly.</p>" * 8
        + "</div></body></html>"
    )
    r_on = extract(html, "http://x.com/")
    r_off = extract(html, "http://x.com/", ExtractOptions(disable_jsonld=True))
    assert r_on["title"] == "LD Title" and r_on["byline"] == "LD Author"
    assert r_off["title"] == "Tag Title" and r_off["byline"] is None


def test_char_threshold_retry_fallback():
    """Short articles trigger the grab retry ladder; a tiny char_threshold
    accepts the first attempt (Readability.js charThreshold semantics)."""
    from swift_readability_ray import ExtractOptions, extract

    short = (
        "<html><body><div class='article-content'>"
        "<p>Short but real content, with commas, here.</p>"
        "</div></body></html>"
    )
    r_small = extract(short, options=ExtractOptions(char_threshold=10))
    assert r_small is not None and r_small["length"] > 0
    # default 500-char threshold still returns the best attempt (never None
    # just for being short — the 4-attempt ladder keeps the longest)
    r_default = extract(short)
    assert r_default is not None
    assert r_default["textContent"].strip() == r_small["textContent"].strip()


def test_link_density_modifier_spares_linky_blocks():
    """Positive linkDensityModifier raises the removal threshold so linky
    (but legitimate) blocks survive cleanConditionally."""
    from swift_readability_ray import ExtractOptions, extract

    linky_list = (
        "<div><ul>"
        + "".join(f"<li><a href='/{i}'>link {i} text</a> tail</li>" for i in range(12))
        + "</ul></div>"
    )
    html = (
        "<html><body><div class='article-content'>"
        + "<p>Real content paragraph, with commas, and enough length to score.</p>" * 6
        + linky_list
        + "</div></body></html>"
    )
    r_strict = extract(html)
    r_lenient = extract(html, options=ExtractOptions(link_density_modifier=1.0))
    assert ("link 3 text" in r_lenient["textContent"]) >= (
        "link 3 text" in r_strict["textContent"]
    )
    assert "link 3 text" in r_lenient["textContent"]


# ------------------------------------------------- extension surface (round 2)


def _page(body: str) -> str:
    filler = "<p>" + ("Real article text, with commas, and length. " * 20) + "</p>"
    return (
        "<html><head><title>T</title></head><body>"
        f'<div class="article-content">{filler}{body}{filler}</div>'
        "</body></html>"
    )


def test_regex_override_unlikely_candidates():
    """A regex_overrides entry replaces the table pattern (RegExUtil.swift:45-58)."""
    from swift_readability_ray import ExtractOptions, extract

    html = _page('<div class="zzcustomzz"><p>Sidebar-ish text to prune or keep.</p></div>')
    base = extract(html, "http://x/")
    assert "Sidebar-ish" in base["textContent"]
    # with the override, the custom class becomes an unlikely candidate
    opts = ExtractOptions(
        regex_overrides=(("unlikely_candidates", "zzcustomzz"),)
    )
    overridden = extract(html, "http://x/", options=opts)
    assert "Sidebar-ish" not in overridden["textContent"]


def test_regex_override_unknown_name_raises():
    import pytest as _pytest

    from swift_readability_ray import ExtractOptions, Extractor

    with _pytest.raises(ValueError, match="unknown regex_overrides"):
        Extractor(ExtractOptions(regex_overrides=(("nope", "x"),)))


def test_debug_option_logs(caplog):
    import logging

    from swift_readability_ray import ExtractOptions, extract

    html = _page("")
    with caplog.at_level(logging.DEBUG, logger="swift_readability_ray.readability"):
        extract(html, "http://x/", options=ExtractOptions(debug=False))
        assert not caplog.records
        extract(html, "http://x/", options=ExtractOptions(debug=True))
        assert caplog.records


def test_xml_serializer_boolean_attr_forms():
    """XML mode preserves the source's explicit attr="attr" vs bare-attr
    forms — the behavior the reference reconstructs via source regexes
    (Readability.swift:501-666); our parser keeps the value end-to-end, so
    explicit forms round-trip and bare booleans serialize as attr=""."""
    from swift_readability_ray import ExtractOptions, extract

    html = _page(
        '<p itemscope="itemscope" itemprop="a">Alpha block, with text, '
        "and more words here to survive cleaning.</p>"
        '<p itemscope itemprop="b">Beta block, with text, '
        "and more words here to survive cleaning.</p>"
    )
    out = extract(html, "http://x/", options=ExtractOptions(serializer="xml"))
    content = out["content"]
    assert 'itemscope="itemscope"' in content  # explicit form promoted/kept
    assert 'itemscope=""' in content  # bare boolean stays empty-valued


def test_readerable_thresholds_plumbed_through_options():
    from swift_readability_ray import ExtractOptions, extract

    html = _page("")
    assert extract(html, "http://x/")["readerable"] is True
    strict = ExtractOptions(readerable_min_score=10_000.0)
    assert extract(html, "http://x/", options=strict)["readerable"] is False


def test_custom_serializer_closure():
    """parse(serializer:) overload — a callable receives the article element
    and its return value becomes the content field."""
    from swift_readability_ray import Extractor

    html = _page("")
    r = Extractor().parse(html, "http://x/", serializer=lambda el: f"<custom>{el.tag}</custom>")
    assert r["content"] == "<custom>div</custom>"
    # named modes unaffected
    r2 = Extractor().parse(html, "http://x/")
    assert r2["content"].startswith("<div")


def test_xml_boolean_attr_forms_round_trip():
    """The reference reconstructs literal attr="attr" boolean forms from
    source regexes before XML emission (Readability.swift:501-666) because
    SwiftSoup canonicalizes boolean attributes to valueless form.  Our DOM
    stores attribute values verbatim, so BOTH source forms round-trip
    byte-faithfully through every serializer mode by construction — this
    test pins that equivalence (the mechanism's whole observable effect).
    """
    from swift_readability_ray import ExtractOptions, extract

    html = (
        '<html><head><title>T</title></head><body>'
        '<div class="article-content">'
        + "".join(f"<p>word{i} text here and more prose of value.</p>" for i in range(30))
        + '<video id="v1" src="http://x/v.mp4" controls="controls" loop></video>'
        '</div></body></html>'
    )
    for mode in ("xml", "html"):
        r = extract(html, "http://fakehost/p", ExtractOptions(serializer=mode))
        assert r is not None
        # literal source form survives literally; bare source form stays bare
        assert 'controls="controls"' in r["content"]
        assert 'loop="loop"' not in r["content"]


@pytest.mark.parametrize("tag", ["div", "span", "del"])
def test_deeply_nested_document_extracts(tag):
    """A chain far deeper than the recursion limit extracts: every walk over
    the tree (style and class cleanup, the phrasing and block predicates,
    span emission) is iterative."""
    from swift_readability_ray.stages.extract import ReadabilityExtractor

    depth = 3000
    html = (f"<html><body><p>{LONG * 2}</p>" + f"<{tag}>" * depth
            + "deep text marker" + f"</{tag}>" * depth + "</body></html>")
    row = ReadabilityExtractor().extract_one(
        "deep", [{"kind": "text", "text": html, "media_ref": "", "offset": 0}])
    assert row["error"] is None
    assert any("deep text marker" in s["text"] for s in row["spans"])

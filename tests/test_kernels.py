import pytest

from swift_readability_ray.dom import parse
from swift_readability_ray.functions.kernels import (
    comma_segments,
    get_inner_text,
    get_link_density,
    is_url,
    js_word_count,
    resolve_url,
    text_similarity,
    unescape_html_entities,
)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("hello world", "hello world", 1.0),
        ("hello world", "goodbye moon", 0.0),
        ("", "x", 0.0),
        ("x", "", 0.0),
        ("The Quick Brown Fox", "the quick brown fox", 1.0),
    ],
)
def test_text_similarity_basic(a, b, expected):
    assert text_similarity(a, b) == pytest.approx(expected)


def test_text_similarity_partial():
    # B tokens: [one, two, three]; unique to B: [three] → 1 - 5/13
    sim = text_similarity("one two", "one two three")
    assert sim == pytest.approx(1 - len("three") / len("one two three"))


def test_text_similarity_cjk_ascii_tokenizer():
    # JS /\W+/ has no unicode flag: CJK is non-word → zero tokens → 0.0
    assert text_similarity("标题文字", "标题") == 0.0
    # but ASCII within CJK still tokenizes
    assert text_similarity("DeepMind 新闻", "DeepMind") == 1.0


@pytest.mark.parametrize(
    "src,expected",
    [
        ("a &amp; b", "a & b"),
        ("&lt;tag&gt;", "<tag>"),
        ("&quot;q&quot; &apos;a&apos;", "\"q\" 'a'"),
        ("&#65;&#x42;", "AB"),
        ("&#x1F600;", "\U0001F600"),
        ("&#0;", "�"),
        ("&#xD800;", "�"),
        ("&#1114112;", "�"),
        (None, None),
        ("", ""),
    ],
)
def test_unescape_entities(src, expected):
    assert unescape_html_entities(src) == expected


def test_comma_segments():
    assert comma_segments("a,b,c") == 3
    assert comma_segments("no commas") == 1
    assert comma_segments("中文，逗号，测试") == 3  # fullwidth comma
    assert comma_segments("a، b") == 2  # Arabic comma
    # counted per character, it equals the split on the whole COMMAS class
    from swift_readability_ray import regexps as R

    every = R.COMMAS.pattern[1:-1]
    for s in (every, "x".join(every), every + every, ",,a" + every[::-1]):
        assert comma_segments(s) == len(R.COMMAS.split(s))


def test_js_word_count():
    assert js_word_count("one two three") == 3
    assert js_word_count(" leading") == 2  # JS split counts the empty piece


@pytest.mark.parametrize(
    "s,expected",
    [
        ("http://example.com/x", True),
        ("https://example.com", True),
        ("mailto:a@b.c", True),
        ("not a url", False),
        ("/relative/path", False),
        ("example.com", False),
    ],
)
def test_is_url(s, expected):
    assert is_url(s) is expected


@pytest.mark.parametrize(
    "uri,base,expected",
    [
        ("b.html", "http://x.com/a/page.html", "http://x.com/a/b.html"),
        ("/root.html", "http://x.com/a/page.html", "http://x.com/root.html"),
        ("//cdn.com/i.png", "https://x.com/a", "https://cdn.com/i.png"),
        ("http://y.com", "http://x.com/", "http://y.com/"),
        ("data:image/png;base64,AAA", "http://x.com/", "data:image/png;base64,AAA"),
        ("../up.html", "http://x.com/a/b/page.html", "http://x.com/a/up.html"),
        # WHATWG corner cases (SURVEY.md §7.3 #5; caught by full-attr parity)
        ("a.html   ", "http://x.com/d/p.html", "http://x.com/d/a.html"),
        ("  http://y.com/q  ", "http://x.com/", "http://y.com/q"),
        ("http://www.TeAra.Govt.NZ/en/x", "http://x.com/", "http://www.teara.govt.nz/en/x"),
        ("HTTP://Y.com/Path/Keep", "http://x.com/", "http://y.com/Path/Keep"),
        ("file:///C|/dir/f.gif", "http://x.com/", "file:///C:/dir/f.gif"),
        ("https://u:p@HOST.com/x", "http://x.com/", "https://u:p@host.com/x"),
        # urljoin collapses "//" in merged paths; new URL() keeps it
        ("\u200bhttps://y.com/z", "http://x.com/d/p.html",
         "http://x.com/d/\u200bhttps://y.com/z"),
        ("http://y.com/a?", "http://x.com/", "http://y.com/a?"),
        ("http://y.com/a#", "http://x.com/", "http://y.com/a#"),
        ("http://y.com/a;2", "http://x.com/", "http://y.com/a;2"),
        ("q?x=1", "http://x.com/d/p.html?old=1", "http://x.com/d/q?x=1"),
        ("", "http://x.com/d/p.html?old=1", "http://x.com/d/p.html?old=1"),
    ],
)
def test_resolve_url(uri, base, expected):
    assert resolve_url(uri, base) == expected


def test_get_inner_text_normalizes():
    doc = parse("<body><div>  a \n\n  b\t c  </div></body>")
    assert get_inner_text(doc.body.first_element_child) == "a b c"
    assert get_inner_text(doc.body.first_element_child, False) == "a \n\n  b\t c"


def test_link_density():
    doc = parse('<body><div><a href="/x">12345</a>67890</div></body>')
    assert get_link_density(doc.body.first_element_child) == pytest.approx(0.5)
    doc = parse('<body><div><a href="#frag">12345</a>67890</div></body>')
    assert get_link_density(doc.body.first_element_child) == pytest.approx(0.15)
    doc = parse("<body><div></div></body>")
    assert get_link_density(doc.body.first_element_child) == 0.0


def test_pii_scrub_kernel():
    from swift_readability_ray.functions.text_stats import pii_scrub

    clean, n_e, n_i = pii_scrub(
        "Contact john.doe+x@example.co.uk or admin@test.io from 192.168.1.100 now"
    )
    assert n_e == 2 and n_i == 1
    assert "<EMAIL>" in clean and "<IP>" in clean
    assert "example.co.uk" not in clean and "192.168" not in clean

    clean, n_e, n_i = pii_scrub("no pii here, just text 1.2 and 3.4")
    assert (n_e, n_i) == (0, 0)
    assert clean == "no pii here, just text 1.2 and 3.4"


def test_doc_chunks_math():
    from swift_readability_ray.functions.text_stats import ws_token_count

    # 300 tokens -> chunks of 128/128/44
    text = " ".join(f"w{i}" for i in range(300))
    assert ws_token_count(text) == 300

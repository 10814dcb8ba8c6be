from hypothesis import given, settings
from hypothesis import strategies as st

from swift_readability_ray import regexps as R
from swift_readability_ray.dom import Element, TextNode, parse, parse_fragment
from swift_readability_ray.functions.kernels import get_inner_text, get_link_density


def test_basic_structure():
    doc = parse("<html><head><title>T</title></head><body><p>hi</p></body></html>")
    assert doc.document_element.tag == "html"
    assert doc.head is not None
    assert doc.body is not None
    assert doc.title == "T"
    assert doc.body.first_element_child.tag == "p"


def test_skeleton_synthesis():
    doc = parse("<p>bare paragraph</p>")
    assert doc.body is not None
    assert doc.body.first_element_child.tag == "p"
    doc = parse("just text")
    assert doc.body.text_content == "just text"


def test_head_content_routing():
    doc = parse("<meta charset='utf-8'><title>X</title><div>body content</div>")
    assert doc.head.get_elements_by_tag_name("meta")
    assert doc.body.first_element_child.tag == "div"


def test_implied_p_close():
    doc = parse("<body><p>one<p>two<div>three</div></body>")
    body = doc.body
    tags = [c.tag for c in body.children]
    assert tags == ["p", "p", "div"]
    assert body.children[0].text_content == "one"


def test_implied_li_close():
    doc = parse("<ul><li>a<li>b<li>c</ul>")
    ul = doc.body.first_element_child
    assert [li.text_content for li in ul.children] == ["a", "b", "c"]


def test_nested_list_li_not_closed():
    doc = parse("<ul><li>a<ul><li>a1</li></ul></li><li>b</li></ul>")
    ul = doc.body.first_element_child
    assert len(ul.children) == 2
    assert ul.children[0].get_elements_by_tag_name("li")[0].text_content == "a1"


def test_implicit_tbody():
    doc = parse("<table><tr><td>x</td><td>y</td></tr></table>")
    table = doc.body.first_element_child
    assert table.tag == "table"
    tbody = table.first_element_child
    assert tbody.tag == "tbody"
    assert tbody.first_element_child.tag == "tr"
    assert [td.text_content for td in tbody.first_element_child.children] == ["x", "y"]


def test_void_elements():
    doc = parse("<body><p>a<br>b<img src='x.png'>c</p></body>")
    p = doc.body.first_element_child
    assert [c.tag for c in p.children] == ["br", "img"]
    assert p.text_content == "abc"


def test_script_raw_text():
    doc = parse("<head><script>if (a < b) { x = '<p>'; }</script></head><body></body>")
    script = doc.get_elements_by_tag_name("script")[0]
    assert "<p>" in script.text_content


def test_attributes():
    doc = parse('<body><div id="main" class="a b" data-x="1" hidden></div></body>')
    div = doc.body.first_element_child
    assert div.id == "main"
    assert div.class_name == "a b"
    assert div.get_attribute("data-x") == "1"
    assert div.has_attribute("hidden")


def test_serialization_roundtrip():
    html = '<div id="a"><p>x &amp; y</p><img src="u.png"><!--c--></div>'
    doc = parse(f"<body>{html}</body>")
    out = doc.body.inner_html
    doc2 = parse(f"<body>{out}</body>")
    assert doc2.body.inner_html == out
    assert "&amp;" in out


def test_tree_edits():
    doc = parse("<body><div><p>a</p><p>b</p></div></body>")
    div = doc.body.first_element_child
    p1, p2 = div.children
    assert p1.next_element_sibling is p2
    new = Element("span")
    div.replace_child(new, p1)
    assert div.children[0] is new
    assert p1.parent is None
    div.insert_before(TextNode("t"), new)
    assert isinstance(div.child_nodes[0], TextNode)


def test_set_inner_html():
    doc = parse("<body><div>old</div></body>")
    doc.body.set_inner_html("<p>new</p><p>er</p>")
    assert [c.tag for c in doc.body.children] == ["p", "p"]


def test_parse_fragment():
    nodes = parse_fragment("text <b>bold</b> tail")
    assert len(nodes) == 3
    assert isinstance(nodes[0], TextNode)
    assert nodes[1].tag == "b"


def test_comment_inside_script():
    doc = parse("<body><script><!-- <div>not real</div> --></script><p>real</p></body>")
    assert len(doc.body.get_elements_by_tag_name("div")) == 0
    assert doc.body.get_elements_by_tag_name("p")[0].text_content == "real"


def test_mismatched_end_tags():
    doc = parse("<body><div><p>a</div></b></body>")
    assert doc.body.first_element_child.tag == "div"


def test_serialize_deep_nesting_no_recursion_error():
    """Iterative serializer handles DOMs deeper than the recursion limit."""
    from swift_readability_ray.dom import Element, TextNode

    root = Element("div")
    cur = root
    for _ in range(5000):
        child = Element("div")
        cur.append_child(child)
        cur = child
    cur.append_child(TextNode("deep"))
    html = root.outer_html
    assert html.startswith("<div><div>") and html.endswith("</div></div>")
    assert "deep" in html


def test_fast_feed_matches_stdlib_feed():
    """The one-shot tokenizer must be byte-identical to stdlib-driven
    parsing (decisions are stdlib's parse_* helpers; only goahead's
    bookkeeping is skipped). Differential over fixtures + fuzz."""
    import os
    import random
    from html.parser import HTMLParser

    import swift_readability_ray.dom as dom

    class StdBuilder(dom._TreeBuilder):
        feed = HTMLParser.feed  # restore the stdlib incremental path

    def std_parse(html):
        doc = dom.Document("about:blank")
        b = StdBuilder(doc, fragment=False)
        try:
            b.feed(html)
            b.close()
        except Exception:
            pass
        de = doc.document_element
        if de is None or de.tag != "html":
            html_el = dom.Element("html")
            for c in list(doc.child_nodes):
                doc.remove_child(c)
                html_el.append_child(c)
            doc.append_child(html_el)
            de = html_el
        if doc.head is None:
            de.insert_before(dom.Element("head"), de.first_child)
        if doc.body is None:
            de.append_child(dom.Element("body"))
        return doc

    fix = "/root/reference/tmp-readability/test/test-pages"
    if os.path.isdir(fix):
        for n in sorted(os.listdir(fix))[:25]:
            with open(os.path.join(fix, n, "source.html"), encoding="utf-8",
                      errors="replace") as f:
                src = f.read()
            assert dom.parse(src).outer_html == std_parse(src).outer_html, n

    rng = random.Random(11)
    toks = ["<div>", "</div>", "<p a=1 b='2'>", "</p", "<br/>", "<!--x-->",
            "<!-- open", "<script>if(a<b){}</script>", "<script>open",
            "text&amp;more", "&#65;&bogus;", "<a href=x?y=1&z=2>", "<", "<>",
            "< p>", "</>", "<!doctype html>", "<?pi?>", "<![CDATA[raw]]>",
            "<title>T<i>t</title>", "&", "&am", "plain ", "é€𝄞"]
    for _ in range(400):
        s = "".join(rng.choice(toks) for _ in range(rng.randint(1, 25)))
        assert dom.parse(s).outer_html == std_parse(s).outer_html, repr(s)


# ---------------------------------------------------------------- HTML5 fixups


def _tree(html):
    from swift_readability_ray.dom import parse

    return parse(html)


def _shape(node):
    """(tag, [children]) skeleton; text nodes as their stripped data."""
    from swift_readability_ray.dom import Element

    if isinstance(node, Element):
        return (node.tag, [_shape(c) for c in node.child_nodes
                           if _shape(c) is not None])
    data = getattr(node, "data", "")
    return data.strip() or None if node.node_type == 3 else None


def test_table_text_is_foster_parented():
    """<table>text<td> — the text must move BEFORE the table (browser
    foster parenting), not vanish inside the table element."""
    doc = _tree("<body><table>stray words<td>cell</td></table></body>")
    body = doc.get_elements_by_tag_name("body")[0]
    shape = _shape(body)
    assert shape == (
        "body",
        ["stray words",
         ("table", [("tbody", [("tr", [("td", ["cell"])])])])],
    )


def test_table_element_is_foster_parented():
    """Non-table elements opened in table context foster before the table;
    later table-structure tags snap the insertion point back."""
    doc = _tree("<body><table><div>d</div><tr><td>c</td></tr></table></body>")
    body = doc.get_elements_by_tag_name("body")[0]
    assert _shape(body) == (
        "body",
        [("div", ["d"]),
         ("table", [("tbody", [("tr", [("td", ["c"])])])])],
    )


def test_nested_table_becomes_sibling():
    doc = _tree("<body><table><tr><td>a</td></tr><table><tr><td>b</td></tr></table></body>")
    body = doc.get_elements_by_tag_name("body")[0]
    tables = [c for c in body.children if c.tag == "table"]
    assert len(tables) == 2


def test_table_inside_cell_stays_nested():
    doc = _tree("<body><table><tr><td><table><tr><td>x</td></tr></table></td></tr></table></body>")
    body = doc.get_elements_by_tag_name("body")[0]
    outer = [c for c in body.children if c.tag == "table"]
    assert len(outer) == 1
    inner = outer[0].get_elements_by_tag_name("table")
    assert len(inner) == 1  # nested, not hoisted


def test_misnested_formatting_keeps_block_open():
    """<b>1<p>2</b>3</p> — '3' must land inside the still-open <p> (the
    adoption-agency text placement), not at body level."""
    doc = _tree("<body><b>1<p>2</b>3</p></body>")
    p = doc.get_elements_by_tag_name("p")[0]
    assert "3" in p.text_content
    body = doc.get_elements_by_tag_name("body")[0]
    direct_text = "".join(
        c.data for c in body.child_nodes if c.node_type == 3
    )
    assert "3" not in direct_text


def test_hidden_input_stays_in_table():
    doc = _tree('<body><table><input type="hidden" name="t"><tr><td>c</td></tr></table></body>')
    table = doc.get_elements_by_tag_name("table")[0]
    assert table.get_elements_by_tag_name("input")
    body = doc.get_elements_by_tag_name("body")[0]
    assert not [c for c in body.children if c.tag == "input"]


def test_stray_table_structure_tags_ignored():
    """HTML5 'in body': td/tr/tbody/caption start tags with no open table
    are ignored — their content flows as ordinary body content."""
    doc = _tree("<body><td>stray cell text</td><p>after</p></body>")
    body = doc.get_elements_by_tag_name("body")[0]
    assert not doc.get_elements_by_tag_name("td")
    assert "stray cell text" in body.text_content
    # fragment mode keeps the old permissive behavior (cell fragments)
    from swift_readability_ray.dom import parse_fragment

    frag = parse_fragment("<td>x</td>")
    assert frag and frag[0].tag == "td"


def test_adoption_agency_single_block():
    """<b>1<p>2</b>3</p> — full AAA: p moves out of b, '2' re-wrapped in a
    b clone inside p, '3' unbolded (html5lib canonical shape)."""
    doc = _tree("<body><b>1<p>2</b>3</p></body>")
    body = doc.get_elements_by_tag_name("body")[0]
    assert body.inner_html == "<b>1</b><p><b>2</b>3</p>"


def test_adoption_agency_formatting_chain():
    """Formatting intermediates are cloned around the furthest block."""
    doc = _tree("<body><b><i>1<p>2</b>3</p></body>")
    body = doc.get_elements_by_tag_name("body")[0]
    assert body.inner_html == "<b><i>1</i></b><i><p><b>2</b>3</p></i>"


def test_adoption_agency_outer_loop_rewraps_nested_blocks():
    """The spec's outer loop re-wraps every nested block in its own clone
    of the formatting element (the classic misnested-<a> example)."""
    doc = _tree('<body><a href="x">1<div>2<div>3</a>4</div></div></body>')
    body = doc.get_elements_by_tag_name("body")[0]
    assert body.inner_html == (
        '<a href="x">1</a><div><a href="x">2</a>'
        '<div><a href="x">3</a>4</div></div>'
    )


# ---------------------------------------------------------------------------
# Cache and navigation coherence under random edit sequences
# ---------------------------------------------------------------------------

_EDITS = ("append", "insert_before", "remove", "replace", "set_href",
          "remove_href", "remove_absent", "set_same")


def _universe():
    """Two small trees plus a detached subtree, each element with one text."""
    roots = [Element("div"), Element("section"), Element("div")]
    elements = list(roots)
    texts = []
    words = ("alpha ", "  beta", "gamma  delta", "", "e\n f", "zeta", "eta", "th eta", " iota")
    for i, word in enumerate(words):
        el = Element(("a", "p", "span")[i % 3])
        if el.tag == "a":
            el.set_attribute("href", "#top")
        parent = roots[i % 3] if i < 6 else elements[i - 3]
        parent.append_child(el)
        elements.append(el)
        texts.append(el.append_child(TextNode(word)))
    return elements, texts


def _is_ancestor_or_self(node, el):
    while el is not None:
        if el is node:
            return True
        el = el.parent
    return False


def _oracle_text(el):
    parts, stack = [], list(reversed(el.child_nodes))
    while stack:
        n = stack.pop()
        if isinstance(n, TextNode):
            parts.append(n.data)
        elif isinstance(n, Element):
            stack.extend(reversed(n.child_nodes))
    return "".join(parts)


def _oracle_inner(el):
    return R.NORMALIZE.sub(" ", _oracle_text(el).strip())


def _oracle_link_density(el):
    total = len(_oracle_inner(el))
    if total == 0:
        return 0.0
    links = 0.0
    for a in el.get_elements_by_tag_name("a"):
        href = a.attrs.get("href")
        links += len(_oracle_inner(a)) * (0.3 if href and R.HASH_URL.match(href) else 1.0)
    return links / total


def _check(nodes, elements):
    for n in nodes:
        sibs = [] if n.parent is None else n.parent.child_nodes
        idx = next((i for i, s in enumerate(sibs) if s is n), None)
        if idx is None:
            want = (None, None, None, None)
        else:
            after, before = sibs[idx + 1:], sibs[:idx][::-1]
            want = (
                after[0] if after else None,
                before[0] if before else None,
                next((s for s in after if isinstance(s, Element)), None),
                next((s for s in before if isinstance(s, Element)), None),
            )
        got = (n.next_sibling, n.previous_sibling,
               n.next_element_sibling, n.previous_element_sibling)
        assert all(g is w for g, w in zip(got, want)), (n, got, want)
    for el in elements:
        assert el.text_content == _oracle_text(el)
        assert get_inner_text(el) == _oracle_inner(el)
        assert get_link_density(el) == _oracle_link_density(el)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_edits_keep_siblings_and_caches_coherent(data):
    elements, texts = _universe()
    nodes = elements + texts
    _check(nodes, elements)  # fills every cache before the first edit
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(_EDITS))
        el = data.draw(st.sampled_from(elements))
        node = data.draw(st.sampled_from(nodes))
        if op in ("append", "insert_before", "replace"):
            if _is_ancestor_or_self(node, el):
                continue  # would make a cycle
            if op == "append":
                el.append_child(node)
            elif op == "insert_before":
                ref = data.draw(st.sampled_from(el.child_nodes + [None]))
                if ref is not node:
                    el.insert_before(node, ref)
            elif el.child_nodes:
                old = data.draw(st.sampled_from(el.child_nodes))
                if old is not node:
                    el.replace_child(node, old)
        elif op == "remove":
            node.remove()
        elif op == "set_href":
            el.set_attribute("href", data.draw(st.sampled_from(["#top", "/page", ""])))
        elif op == "remove_href":
            el.remove_attribute("href")
        elif op == "remove_absent":
            el.remove_attribute("data-absent")
        elif "href" in el.attrs:  # set_same: rewrite the current value
            el.set_attribute("href", el.attrs["href"])
        _check(nodes, elements)


def test_unlisted_node_has_no_siblings():
    parent = Element("div")
    a, b = Element("p"), Element("p")
    parent.append_child(a)
    parent.append_child(b)
    stray = Element("span")
    stray.parent = parent  # claims a parent that does not list it
    assert stray.next_sibling is None and stray.previous_sibling is None
    assert stray.next_element_sibling is None and stray.previous_element_sibling is None
    assert a.next_sibling is b and b.previous_sibling is a


def _normalize_ws_re(text: str) -> str:
    import re

    return re.sub(r"\s+", " ", text).strip()


def test_normalize_ws_equals_regex_form_for_every_code_point():
    from swift_readability_ray.dom import normalize_ws

    for cp in range(0x110000):
        c = chr(cp)
        for s in ("a" + c + "b", c + c, " " + c, c + "x" + c):
            assert normalize_ws(s) == _normalize_ws_re(s), hex(cp)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u200b"
         "\u2028\u2029\u202f\u205f\u3000\ufeffab,\u00e9"))) | st.text())
def test_normalize_ws_equals_regex_form(s):
    from swift_readability_ray.dom import normalize_ws

    assert normalize_ws(s) == _normalize_ws_re(s)

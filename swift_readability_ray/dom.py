"""Minimal HTML5-ish DOM used by the extraction engine.

Stdlib-only (``html.parser``) because no third-party HTML parser is available
in the target environment.  The tree model intentionally mirrors the subset of
the WHATWG DOM that Mozilla Readability.js relies on (studied at
/root/reference/tmp-readability/Readability.js — behavior reference only, no
code reuse): elements with ``tagName``-style identity, text nodes, attribute
maps, ``textContent``, ``innerHTML`` and sibling/child navigation.

The parser is a pragmatic HTML5 tree builder: void elements, implied end tags
(``p``/``li``/``dt``/``dd``/``tr``/``td``/``th``/``option``…), implicit
``html``/``head``/``body`` synthesis, implicit ``tbody`` insertion, foster
parenting of non-table content out of table contexts (``_foster_insert``)
and the full WHATWG adoption-agency algorithm for mis-nested formatting
elements (``_adoption_agency``: active-formatting-elements list with
Noah's-Ark clamping, furthest-block search, the inner reconstruction loop
and bookmark reinsertion).

Navigation and edits are O(1) per step.  Every node keeps a hint at its
index in its parent's child list (``Node._pos``, checked by identity, so a
stale hint only costs a C-level ``list.index``), and every element keeps a
cache version (``Element._ver``) that the text, inner-text and link-density
caches are keyed on.  Invariant: every change to structure, text or an
``href`` goes through the edit methods (``append_child``, ``insert_before``,
``remove_child``, ``replace_child``, ``set_attribute``, ``remove_attribute``),
which advance the version of each element on the ancestor path.  Only the
tree builder writes ``child_nodes`` and ``TextNode.data`` directly, before
any cache over the tree exists (``clone_node`` likewise builds a fresh tree).

Designed for use inside Ray Data ``map_batches`` actor UDFs: a parser instance
is cheap, holds no global state, and every document's tree is private to one
row (see SURVEY.md §1.2 — per-row transient state never crosses rows).
"""

from __future__ import annotations

import re
from html import escape
from html import unescape as _unescape
from html.parser import HTMLParser

try:  # stdlib's own "<letter" start-tag opener regex (tokenizer parity)
    from html.parser import starttagopen as _STARTTAGOPEN
except ImportError:  # pragma: no cover
    import re as _re_stop

    _STARTTAGOPEN = _re_stop.compile("<[a-zA-Z]")

# Fast-path start-tag scanner: the common case (ASCII tag name, attributes
# with quoted or simple unquoted values containing no entity refs, '<', or
# '=') tokenizes in one regex match instead of stdlib parse_starttag's
# per-attribute machinery.  Char classes are strictly narrower than
# stdlib's tolerant ones, so any input the fast regex matches is parsed
# IDENTICALLY by stdlib (no '&' → unescape is identity); everything else
# falls back to stdlib verbatim.  tests/test_dom.py's differential suite
# (fixtures + fuzz vs the stdlib-driven parse) guards the equivalence.
_FAST_VALUE = r'"[^"&<]*"|\'[^\'&<]*\'|[\-a-zA-Z0-9_./:%+;,#~?!]+'
_FAST_STARTTAG = re.compile(
    r"<([a-zA-Z][a-zA-Z0-9]*)"
    r"((?:\s+[a-zA-Z_:][\-a-zA-Z0-9_:.]*(?:\s*=\s*(?:" + _FAST_VALUE + r"))?)*)"
    r"\s*(/?)>"
)
_FAST_ATTR = re.compile(
    r"\s+([a-zA-Z_:][\-a-zA-Z0-9_:.]*)(?:\s*=\s*(" + _FAST_VALUE + r"))?"
)
# simple end tags: stdlib parse_endtag reaches handle_endtag(name.lower())
# for exactly this shape; anything else (attributes, '<', bare '</>')
# falls back to stdlib
_FAST_ENDTAG = re.compile(r"</([a-zA-Z][a-zA-Z0-9]*)\s*>")

# ---------------------------------------------------------------------------
# Tag categories (HTML5)
# ---------------------------------------------------------------------------

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

RAW_TEXT_ELEMENTS = frozenset(("script", "style"))

# Start tags that implicitly close an open <p> (HTML5 "closes a p element").
_P_CLOSERS = frozenset(
    """address article aside blockquote center details dialog dir div dl dd dt
    fieldset figcaption figure footer form h1 h2 h3 h4 h5 h6 header hgroup hr
    listing main menu nav ol p plaintext pre section summary table ul""".split()
)

# Tags whose arrival implicitly closes same-named (or sibling-kind) open tags.
_IMPLIED_END = {
    "li": frozenset(["li"]),
    "dt": frozenset(["dt", "dd"]),
    "dd": frozenset(["dt", "dd"]),
    "tr": frozenset(["tr", "td", "th"]),
    "td": frozenset(["td", "th"]),
    "th": frozenset(["td", "th"]),
    "thead": frozenset(["thead", "tbody", "tfoot", "tr", "td", "th"]),
    "tbody": frozenset(["thead", "tbody", "tfoot", "tr", "td", "th"]),
    "tfoot": frozenset(["thead", "tbody", "tfoot", "tr", "td", "th"]),
    "option": frozenset(["option"]),
    "optgroup": frozenset(["option", "optgroup"]),
    "caption": frozenset(["caption"]),
    "colgroup": frozenset(["colgroup"]),
}

# Scope barriers: when auto-closing an implied-end tag we stop the upward
# search at these boundaries so e.g. an <li> inside a nested <ul> doesn't
# close the outer <li>.
_SCOPE_BARRIERS = {
    "li": frozenset(["ul", "ol"]),
    "dt": frozenset(["dl"]),
    "dd": frozenset(["dl"]),
    "tr": frozenset(["table", "thead", "tbody", "tfoot"]),
    "td": frozenset(["table", "tr"]),
    "th": frozenset(["table", "tr"]),
    "thead": frozenset(["table"]),
    "tbody": frozenset(["table"]),
    "tfoot": frozenset(["table"]),
    "option": frozenset(["select", "datalist"]),
    "optgroup": frozenset(["select"]),
    "caption": frozenset(["table"]),
    "colgroup": frozenset(["table"]),
}

_HEAD_TAGS = frozenset("base basefont bgsound link meta noscript script style template title".split())

# HTML5 "in table" insertion mode (tree construction §13.2.6.4.9): the
# elements whose content model the table engine manages directly...
_TABLE_CONTEXT = frozenset(("table", "tbody", "thead", "tfoot", "tr"))
# ...the start tags allowed to be inserted inside them...
_TABLE_ALLOWED = frozenset(
    "caption colgroup col thead tbody tfoot tr td th script style template form".split()
)
# ...table-structure tags that snap the insertion point back into the table
# (past any foster-parented open elements)
_TABLE_STRUCTURE = frozenset(
    "caption colgroup col thead tbody tfoot tr td th".split()
)

# Formatting elements subject to the adoption-agency rule (HTML5 §13.2.6.4.7
# "in body", any other end tag): an end tag for one of these arriving while
# elements are still open above it restructures the tree instead of closing
# those elements — see _adoption_agency.
_FORMATTING = frozenset("a b big code em font i nobr s small strike strong tt u".split())

# The spec's "special" element category (HTML5 §13.2.4.2), the candidates
# for the adoption agency's furthest block (foreign-content tags omitted —
# this parser never enters foreign content)
_SPECIAL = frozenset(
    "address applet area article aside base basefont bgsound blockquote body "
    "br button caption center col colgroup dd details dir div dl dt embed "
    "fieldset figcaption figure footer form frame frameset h1 h2 h3 h4 h5 h6 "
    "head header hgroup hr html iframe img input keygen li link listing main "
    "marquee menu meta nav noembed noframes noscript object ol p param "
    "plaintext pre script section select source style summary table tbody td "
    "template textarea tfoot th thead title tr track ul wbr xmp".split()
)

_WS_RE = re.compile(r"\s+")


# ---------------------------------------------------------------------------
# Node classes
# ---------------------------------------------------------------------------


def _bump(el: "Element | None") -> None:
    """Advance the cache version of ``el`` and of every ancestor: the text
    and link-density of each of them may have changed."""
    while el is not None:
        el._ver += 1
        el = el.parent


class Node:
    """Base DOM node.

    ``_pos`` is a hint at this node's index in ``parent.child_nodes``.  It is
    trusted only after an identity check, so a stale hint costs one C-level
    ``list.index`` scan (which refreshes it), never a wrong answer; a node
    its parent does not list has no siblings.
    """

    __slots__ = ("parent", "_pos")

    ELEMENT_NODE = 1
    TEXT_NODE = 3
    COMMENT_NODE = 8

    node_type: int = 0

    def __init__(self) -> None:
        self.parent: Element | None = None
        self._pos = 0

    def _index_in(self, sibs: list["Node"]) -> int:
        """This node's index in ``sibs`` through the hint; ValueError when
        ``sibs`` does not list it."""
        i = self._pos
        if i < len(sibs) and sibs[i] is self:
            return i
        i = sibs.index(self)
        self._pos = i
        return i

    # -- navigation (each step O(1) on a valid hint; the returned neighbour's
    # hint is refreshed, so walking a sibling list never scans it) ----------
    @property
    def next_sibling(self) -> "Node | None":
        p = self.parent
        if p is None:
            return None
        sibs = p.child_nodes
        try:
            i = self._index_in(sibs) + 1
        except ValueError:
            return None
        if i < len(sibs):
            n = sibs[i]
            n._pos = i
            return n
        return None

    @property
    def previous_sibling(self) -> "Node | None":
        p = self.parent
        if p is None:
            return None
        sibs = p.child_nodes
        try:
            i = self._index_in(sibs) - 1
        except ValueError:
            return None
        if i >= 0:
            n = sibs[i]
            n._pos = i
            return n
        return None

    @property
    def next_element_sibling(self) -> "Element | None":
        p = self.parent
        if p is None:
            return None
        sibs = p.child_nodes
        try:
            i = self._index_in(sibs) + 1
        except ValueError:
            return None
        for i in range(i, len(sibs)):
            n = sibs[i]
            if isinstance(n, Element):
                n._pos = i
                return n
        return None

    @property
    def previous_element_sibling(self) -> "Element | None":
        p = self.parent
        if p is None:
            return None
        sibs = p.child_nodes
        try:
            i = self._index_in(sibs) - 1
        except ValueError:
            return None
        for i in range(i, -1, -1):
            n = sibs[i]
            if isinstance(n, Element):
                n._pos = i
                return n
        return None

    def remove(self) -> None:
        if self.parent is not None:
            self.parent.remove_child(self)

    # -- content ------------------------------------------------------------
    @property
    def text_content(self) -> str:  # pragma: no cover - overridden
        return ""


class TextNode(Node):
    # ``data`` is written directly only by the tree builder, before any cache
    # over the tree exists; everything after parsing treats it as immutable.
    __slots__ = ("data",)
    node_type = Node.TEXT_NODE

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    @property
    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover
        return f"#text({self.data[:30]!r})"


class Comment(Node):
    __slots__ = ("data",)
    node_type = Node.COMMENT_NODE

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    @property
    def text_content(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover
        return f"#comment({self.data[:30]!r})"


class Element(Node):
    # ``_ver`` is this element's cache version: every edit that changes the
    # structure, the text or an ``href`` inside its subtree advances it (see
    # ``_bump``).  The text_content, inner-text and link-density caches store
    # the version they were computed at, so an edit elsewhere in the
    # document leaves them valid.
    __slots__ = ("tag", "attrs", "child_nodes", "readability",
                 "readability_data_table", "_ver", "_tc_ver", "_tc_val",
                 "_it_ver", "_it_val", "_ld_ver", "_ld_val")
    node_type = Node.ELEMENT_NODE

    def __init__(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        super().__init__()
        self._ver = 0
        self.tag = tag  # lowercase
        self.attrs: dict[str, str] = attrs if attrs is not None else {}
        self.child_nodes: list[Node] = []
        # per-document algorithm state (contentScore); never crosses rows
        self.readability: float | None = None
        self.readability_data_table: bool | None = None

    # -- identity -----------------------------------------------------------
    @property
    def class_name(self) -> str:
        return self.attrs.get("class", "")

    @class_name.setter
    def class_name(self, value: str) -> None:
        self.attrs["class"] = value

    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    @id.setter
    def id(self, value: str) -> None:
        self.attrs["id"] = value

    # -- attributes (an ``href`` change bumps: link density reads hrefs) ----
    def get_attribute(self, name: str) -> str | None:
        return self.attrs.get(name)

    def set_attribute(self, name: str, value: str) -> None:
        if self.attrs.get(name) != value:
            self.attrs[name] = value
            if name == "href":
                _bump(self)

    def remove_attribute(self, name: str) -> None:
        if self.attrs.pop(name, None) is not None and name == "href":
            _bump(self)

    def has_attribute(self, name: str) -> bool:
        return name in self.attrs

    # -- tree edits (each bumps the versions of the parents it changes) -----
    def append_child(self, node: Node) -> Node:
        if node.parent is not None:
            node.parent.remove_child(node)
        node.parent = self
        node._pos = len(self.child_nodes)
        self.child_nodes.append(node)
        _bump(self)
        return node

    def insert_before(self, node: Node, reference: Node | None) -> Node:
        if node.parent is not None:
            node.parent.remove_child(node)
        if reference is None:
            return self.append_child(node)
        idx = reference._index_in(self.child_nodes)
        node.parent = self
        node._pos = idx
        self.child_nodes.insert(idx, node)
        _bump(self)
        return node

    def remove_child(self, node: Node) -> Node:
        del self.child_nodes[node._index_in(self.child_nodes)]
        node.parent = None
        _bump(self)
        return node

    def replace_child(self, new: Node, old: Node) -> Node:
        if new.parent is not None:
            new.parent.remove_child(new)
        idx = old._index_in(self.child_nodes)
        old.parent = None
        new.parent = self
        new._pos = idx
        self.child_nodes[idx] = new
        _bump(self)
        return old

    # -- navigation ---------------------------------------------------------
    @property
    def first_child(self) -> Node | None:
        return self.child_nodes[0] if self.child_nodes else None

    @property
    def last_child(self) -> Node | None:
        return self.child_nodes[-1] if self.child_nodes else None

    @property
    def children(self) -> list["Element"]:
        return [c for c in self.child_nodes if isinstance(c, Element)]

    @property
    def first_element_child(self) -> "Element | None":
        for c in self.child_nodes:
            if isinstance(c, Element):
                return c
        return None

    # -- queries ------------------------------------------------------------
    def iter_descendants(self):
        """Depth-first, document order, excluding self."""
        stack = list(reversed(self.child_nodes))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element) and node.child_nodes:
                stack.extend(reversed(node.child_nodes))

    def iter_elements(self):
        # Hot path: direct stack walk (single generator frame, one
        # isinstance per node) — these scans dominate extraction profiles.
        stack = list(reversed(self.child_nodes))
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                yield node
                cn = node.child_nodes
                if cn:
                    stack.extend(reversed(cn))

    def get_elements_by_tag_name(self, tag: str) -> list["Element"]:
        # hottest walk in extraction profiles: exact-class test (children are
        # never Document) + bound locals measurably beat isinstance here
        tag = tag.lower()
        star = tag == "*"
        out: list[Element] = []
        append = out.append
        stack = self.child_nodes[::-1]
        pop = stack.pop
        extend = stack.extend
        elem = Element
        while stack:
            node = pop()
            if node.__class__ is elem:
                if star or node.tag == tag:
                    append(node)
                cn = node.child_nodes
                if cn:
                    extend(cn[::-1])
        return out

    def get_all_nodes_with_tag(self, tags) -> list["Element"]:
        wanted = frozenset(t.lower() for t in tags)
        out: list[Element] = []
        stack = list(reversed(self.child_nodes))
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                if node.tag in wanted:
                    out.append(node)
                cn = node.child_nodes
                if cn:
                    stack.extend(reversed(cn))
        return out

    # -- content ------------------------------------------------------------
    @property
    def text_content(self) -> str:
        # version-cached: the scoring phases recompute text over the same
        # unmutated subtrees many times (link density, length checks)
        try:
            if self._tc_ver == self._ver:
                return self._tc_val
        except AttributeError:
            pass
        parts: list[str] = []
        stack = list(reversed(self.child_nodes))
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                parts.append(node.data)
            elif isinstance(node, Element):
                stack.extend(reversed(node.child_nodes))
        val = "".join(parts)
        self._tc_ver = self._ver
        self._tc_val = val
        return val

    @property
    def inner_html(self) -> str:
        out: list[str] = []
        for c in self.child_nodes:
            _serialize(c, out)
        return "".join(out)

    def inner_xml(self) -> str:
        """XML-serializer mode (reference: useXMLSerializer)."""
        out: list[str] = []
        for c in self.child_nodes:
            _serialize(c, out, xml=True)
        return "".join(out)

    @property
    def outer_html(self) -> str:
        out: list[str] = []
        _serialize(self, out)
        return "".join(out)

    def set_inner_html(self, html: str) -> None:
        for c in list(self.child_nodes):
            self.remove_child(c)
        for node in parse_fragment(html):
            self.append_child(node)

    def __repr__(self) -> str:  # pragma: no cover
        ident = ("#" + self.id) if self.id else ""
        cls = ("." + ".".join(self.class_name.split())) if self.class_name else ""
        return f"<{self.tag}{ident}{cls}>"


class Document(Element):
    """Root document node; behaves as an element with tag ``#document``."""

    __slots__ = ("document_uri",)

    def __init__(self, document_uri: str = "about:blank") -> None:
        super().__init__("#document")
        self.document_uri = document_uri

    @property
    def document_element(self) -> Element | None:
        for c in self.children:
            if c.tag == "html":
                return c
        return self.first_element_child

    @property
    def head(self) -> Element | None:
        de = self.document_element
        if de is None:
            return None
        for c in de.children:
            if c.tag == "head":
                return c
        return None

    @property
    def body(self) -> Element | None:
        de = self.document_element
        if de is None:
            return None
        for c in de.children:
            if c.tag == "body":
                return c
        return None

    @property
    def title(self) -> str:
        for el in self.iter_elements():
            if el.tag == "title":
                return el.text_content
        return ""

    def create_element(self, tag: str) -> Element:
        return Element(tag.lower())

    def create_text_node(self, data: str) -> TextNode:
        return TextNode(data)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _serialize(node: Node, out: list[str], xml: bool = False) -> None:
    """HTML serialization; ``xml=True`` mirrors the reference's XML
    serializer mode (Readability.swift:451-666 / useXMLSerializer): void
    elements self-close (``<br />``) and raw-text content is escaped.

    Iterative (explicit stack): depth-proportional, not recursion-limited —
    pathological 1000+-deep documents serialize instead of RecursionError.
    """
    stack: list = [node]
    while stack:
        item = stack.pop()
        if type(item) is str:  # pending close tag
            out.append(item)
            continue
        if isinstance(item, TextNode):
            parent = item.parent
            if not xml and parent is not None and parent.tag in RAW_TEXT_ELEMENTS:
                out.append(item.data)
            else:
                out.append(escape(item.data, quote=False))
            continue
        if isinstance(item, Comment):
            out.append(f"<!--{item.data}-->")
            continue
        el = item
        assert isinstance(el, Element)
        if el.tag == "#document":
            stack.extend(reversed(el.child_nodes))
            continue
        out.append("<")
        out.append(el.tag)
        for name, value in el.attrs.items():
            out.append(" ")
            out.append(name)
            if value != "":
                out.append('="')
                out.append(escape(value, quote=True))
                out.append('"')
            else:
                out.append('=""')
        if el.tag in VOID_ELEMENTS:
            out.append(" />" if xml else ">")
            continue
        out.append(">")
        stack.append(f"</{el.tag}>")
        stack.extend(reversed(el.child_nodes))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _attach(parent: Element, node: Node) -> None:
    """Append a fresh node without a version bump: the shortcut of the tree
    builder and ``clone_node``, valid because no cache over a tree under
    construction exists."""
    node.parent = parent
    node._pos = len(parent.child_nodes)
    parent.child_nodes.append(node)


class _TreeBuilder(HTMLParser):
    """HTML5-ish tree builder on top of stdlib HTMLParser."""

    def __init__(self, root: Element, fragment: bool = False) -> None:
        super().__init__(convert_charrefs=True)
        self.root = root
        self.stack: list[Element] = [root]
        self.fragment = fragment
        # document-mode structural state
        self._saw_html = fragment
        self._in_head: Element | None = None
        self._saw_body = fragment

    # -- structure synthesis -------------------------------------------------
    def _ensure_context(self, tag: str, for_text: bool = False) -> None:
        """Synthesize html/head/body as needed (document mode only)."""
        if self.fragment:
            return
        top = self.stack[-1]
        if top is self.root:  # at document level
            if tag == "html":
                return
            html = self._open("html", {})
            top = html
        if self.stack[-1].tag == "html":
            if tag in ("head", "body"):
                return
            if not for_text and tag in _HEAD_TAGS and not self._saw_body:
                if self._in_head is None:
                    self._in_head = self._open("head", {})
                return
            # anything else → body
            if self._in_head is not None and self.stack[-1] is self._in_head:
                self._pop()
            if not self._saw_body:
                self._open("body", {})
                self._saw_body = True
        elif (
            self.stack[-1].tag == "head"
            and tag not in _HEAD_TAGS
            and tag != "head"
        ):
            # non-head content (elements OR non-whitespace text, matching a
            # browser's "in head" anything-else reprocessing) while in head —
            # explicit or synthesized — closes head and opens body
            self._pop()
            if not self._saw_body:
                self._open("body", {})
                self._saw_body = True

    def _open(self, tag: str, attrs: dict[str, str]) -> Element:
        el = Element(tag, attrs)
        _attach(self.stack[-1], el)
        self.stack.append(el)
        if tag == "head":
            self._in_head = el
        if tag == "body":
            self._saw_body = True
        if tag == "html":
            self._saw_html = True
        return el

    def _pop(self) -> None:
        if len(self.stack) > 1:
            self.stack.pop()

    def _close_implied(self, tag: str) -> None:
        closers = _IMPLIED_END.get(tag)
        if closers:
            barriers = _SCOPE_BARRIERS.get(tag, frozenset())
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t in barriers:
                    break
                if t in closers:
                    del self.stack[i:]
                    break
        if tag in _P_CLOSERS:
            # close an open <p> unless separated by a special boundary
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t == "p":
                    del self.stack[i:]
                    break
                if t in ("html", "body", "table", "td", "th", "caption", "#document"):
                    break

    # -- HTMLParser hooks ----------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        tag = tag.lower()
        attr_map: dict[str, str] = {}
        for name, value in attrs:
            name = name.lower()
            if name not in attr_map:
                attr_map[name] = value if value is not None else ""
        if tag == "html" and self._saw_html and not self.fragment:
            # merge attributes onto existing html element
            de = self.root.children[0] if self.root.children else None
            if de is not None and de.tag == "html":
                for k, v in attr_map.items():
                    de.attrs.setdefault(k, v)
            return
        if tag in ("head", "body") and not self.fragment:
            existing = None
            for el in self.stack[1:]:
                if el.tag == tag:
                    existing = el
            if existing is None and tag == "body" and self._saw_body:
                # find body under html
                html = self.root.children[0] if self.root.children else None
                if html is not None:
                    for c in html.children:
                        if c.tag == "body":
                            existing = c
            if existing is not None:
                for k, v in attr_map.items():
                    existing.attrs.setdefault(k, v)
                if existing not in self.stack:
                    self.stack.append(existing)
                return
        self._ensure_context(tag)
        # -- HTML5 "in table" fixups ----------------------------------------
        if tag == "table":
            # <table> while a table is open (and not inside a cell) acts as
            # </table> then reopens as a sibling (spec: unexpected table)
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t in ("td", "th", "caption"):
                    break
                if t == "table":
                    del self.stack[i:]
                    break
        elif tag in _TABLE_STRUCTURE:
            # snap the insertion point back to the nearest table context,
            # past any foster-parented elements still open
            in_table = False
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t == "table" or t in _TABLE_CONTEXT or t in ("td", "th", "caption"):
                    del self.stack[i + 1:]
                    in_table = True
                    break
            if not in_table and not self.fragment:
                # stray table-structure start tag with no open table: the
                # HTML5 "in body" mode ignores the token (its content flows
                # as ordinary body content)
                return
        if (
            self.stack[-1].tag in _TABLE_CONTEXT
            and tag not in _TABLE_ALLOWED
            and tag != "table"
            and not (tag == "input" and attr_map.get("type", "").lower() == "hidden")
        ):
            # foster parenting: non-table content opened in table context is
            # inserted immediately before the table (hidden inputs stay)
            el = Element(tag, attr_map)
            self._foster_insert(el)
            if tag not in VOID_ELEMENTS:
                self.stack.append(el)
            return
        self._close_implied(tag)
        # implicit tbody: tr directly under table
        if tag == "tr" and self.stack[-1].tag == "table":
            self._open("tbody", {})
        # td/th directly under table → synthesize tbody>tr
        if tag in ("td", "th"):
            if self.stack[-1].tag == "table":
                self._open("tbody", {})
            if self.stack[-1].tag in ("tbody", "thead", "tfoot"):
                self._open("tr", {})
        el = self._open(tag, attr_map)
        if tag in VOID_ELEMENTS:
            self.stack.pop()

    def _adoption_agency(self, i: int) -> None:
        """HTML5 adoption agency (§13.2.6.4.7) for a formatting end tag at
        stack index ``i`` with elements still open above it.

        Produces the spec algorithm's NET tree and stack — the state after
        its outer loop has run to completion — directly:

        - no furthest block (no special element above the formatting
          element): the spec pops everything above and relies on the active
          formatting list to reconstruct it around later content; with no
          active-formatting list, keeping the inner elements open in place
          yields the same rendered text placement, so that's what we do;
        - furthest block FB present: formatting intermediates between the
          formatting element and FB become a clone chain wrapping FB
          (spec inner loop), FB moves to the common ancestor (foster-
          parented when that is a table context), FB's children are wrapped
          in a clone of the formatting element, and the open-elements stack
          becomes [...common ancestor, clone chain, FB] — the spec's
          follow-up outer iterations immediately pop the formatting clone
          and anything below FB, so neither is left open.

        The spec's outer loop runs one furthest-block restructure per
        iteration (capped at 8, like the spec): each round leaves the
        formatting clone open in the stack immediately below FB, and the
        next round re-runs with the clone as the formatting element —
        which is how ``<a>1<div>2<div>3</a>4`` ends up re-wrapping every
        nested block in its own ``<a>``.

        Browser-checked shapes (html5lib test data):
        ``<b>1<p>2</b>3</p>`` → ``<b>1</b><p><b>2</b>3</p>``;
        ``<b><i>1<p>2</b>3`` → ``<b><i>1</i></b><i><p><b>2</b>3</p></i>``;
        ``<a>1<div>2<div>3</a>4`` →
        ``<a>1</a><div><a>2</a><div><a>3</a>4</div></div>``.
        """
        for _ in range(8):
            fmt = self.stack[i]
            j = next(
                (k for k in range(i + 1, len(self.stack))
                 if self.stack[k].tag in _SPECIAL),
                None,
            )
            if j is None:
                # no furthest block: the spec pops everything above the
                # formatting element and reconstructs it from the active
                # formatting list around later content; with no active
                # list, keeping the inner elements open in place yields
                # the same rendered text placement
                del self.stack[i]
                return
            fb = self.stack[j]
            ca = self.stack[i - 1]

            # spec inner loop: walk from just above FB toward the
            # formatting element; formatting intermediates are cloned
            # around the growing chain, everything else is dropped from
            # the stack (its subtree keeps its DOM position)
            last: Element = fb
            clones: list[Element] = []
            for k in range(j - 1, i, -1):
                el = self.stack[k]
                if el.tag in _FORMATTING:
                    clone = Element(el.tag, dict(el.attrs))
                    clone.append_child(last)  # detaches last
                    clones.append(clone)
                    last = clone

            # move the chain (or bare FB) to the common ancestor,
            # foster-parented when the common ancestor is table context
            if ca.tag in _TABLE_CONTEXT or ca.tag == "table":
                self._foster_insert(last)
            elif last.parent is not ca:
                ca.append_child(last)

            # wrap FB's children in a clone of the formatting element;
            # the clone stays open immediately below FB (spec step 19)
            fmt_clone = Element(fmt.tag, dict(fmt.attrs))
            for child in list(fb.child_nodes):
                fmt_clone.append_child(child)
            fb.append_child(fmt_clone)

            rest = self.stack[j + 1:]
            self.stack[i:] = [*reversed(clones), fb, fmt_clone, *rest]
            i += len(clones) + 1  # index of fmt_clone for the next round

    def _foster_insert(self, node: Node) -> None:
        """Insert before the deepest open table (HTML5 foster parenting);
        adjacent fostered text merges with a preceding fostered text node."""
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == "table":
                tbl = self.stack[i]
                parent = tbl.parent
                if parent is not None:
                    prev = tbl.previous_sibling
                    if isinstance(node, TextNode) and isinstance(prev, TextNode):
                        prev.data += node.data
                        return
                    parent.insert_before(node, tbl)
                    return
                break
        self.stack[-1].append_child(node)

    def handle_startendtag(self, tag: str, attrs) -> None:
        tag = tag.lower()
        self.handle_starttag(tag, attrs)
        if tag not in VOID_ELEMENTS:
            # self-closing non-void: treat as empty element
            if self.stack[-1].tag == tag:
                self.stack.pop()

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag in VOID_ELEMENTS:
            return
        if tag in ("html", "body", "head") and not self.fragment:
            # pop down to it if open, but never below body
            for i in range(len(self.stack) - 1, 0, -1):
                if self.stack[i].tag == tag:
                    del self.stack[i:]
                    return
            return
        for i in range(len(self.stack) - 1, 0, -1):
            t = self.stack[i].tag
            if t == tag:
                if tag in _FORMATTING and i < len(self.stack) - 1:
                    self._adoption_agency(i)
                else:
                    del self.stack[i:]
                return
            if t in ("body", "html"):
                return
        # unmatched end tag: ignore

    def handle_data(self, data: str) -> None:
        if not data:
            return
        top = self.stack[-1]
        if not self.fragment and (
            top is self.root
            or top.tag == "html"
            or (top.tag == "head" and data.strip())
        ):
            if not data.strip():
                return
            self._ensure_context("#text", for_text=True)
            top = self.stack[-1]
        if top.tag in _TABLE_CONTEXT and data.strip():
            # non-whitespace text in table context is foster-parented before
            # the table (whitespace-only stays, per spec)
            self._foster_insert(TextNode(data))
            return
        last = top.child_nodes[-1] if top.child_nodes else None
        if isinstance(last, TextNode):
            last.data += data
        else:
            _attach(top, TextNode(data))

    def handle_comment(self, data: str) -> None:
        _attach(self.stack[-1], Comment(data))

    def handle_decl(self, decl: str) -> None:
        pass

    def unknown_decl(self, data: str) -> None:
        # CDATA sections etc: keep content as text inside raw-text elements
        if data.startswith("CDATA["):
            self.handle_data(data[6:])

    # -- fast one-shot tokenizer --------------------------------------------
    def feed(self, data: str) -> None:  # type: ignore[override]
        """One-shot replacement for HTMLParser.feed+goahead.

        Tokenization DECISIONS are stdlib's own — parse_starttag /
        parse_endtag / parse_comment / parse_pi / parse_html_declaration are
        reused verbatim, so attribute/charref/CDATA semantics are identical.
        What's dropped is goahead's incremental-feed bookkeeping and
        line/column tracking (updatepos), which profiling shows is ~35% of
        parse time and which a whole-document parse never needs.
        Behavioral equivalence is asserted by the differential test in
        tests/test_dom.py (fixture corpus + fuzz vs stdlib-driven parse).
        """
        self.rawdata = data  # stdlib parse_* helpers index into this
        n = len(data)
        i = 0
        handle_data = self.handle_data
        handle_starttag = self.handle_starttag
        startswith = data.startswith
        find = data.find
        starttag_match = _STARTTAGOPEN.match
        fast_start = _FAST_STARTTAG.match
        fast_attrs = _FAST_ATTR.finditer
        fast_end = _FAST_ENDTAG.match
        while i < n:
            if self.cdata_elem is None:
                j = find("<", i)
                if j < 0:
                    j = n
                if i < j:
                    chunk = data[i:j]
                    handle_data(_unescape(chunk) if "&" in chunk else chunk)
                i = j
                if i == n:
                    break
            else:  # raw-text (script/style): scan for the matching close tag
                match = self.interesting.search(data, i)
                if match is None:
                    # EOF inside raw text: stdlib goahead drops it (waits for
                    # more data that never comes) — mirror that
                    break
                j = match.start()
                if i < j:
                    handle_data(data[i:j])
                i = j
            # at '<'
            m = fast_start(data, i)
            if m is not None:
                # fast path for plain start tags (ASCII name, quoted/simple
                # values with no entity refs): same decisions stdlib
                # parse_starttag would make, without its per-attribute regex
                # machinery; anything unusual falls through to stdlib below.
                # Equivalence is guarded by the differential tests.
                tag = m.group(1).lower()
                attrs = []
                raw_attrs = m.group(2)
                if raw_attrs:
                    for am in fast_attrs(raw_attrs):
                        v = am.group(2)
                        if v is not None and (v[0] == '"' or v[0] == "'"):
                            v = v[1:-1]
                        attrs.append((am.group(1).lower(), v))
                if m.group(3):  # '/>' XHTML-style empty tag
                    self.handle_startendtag(tag, attrs)
                else:
                    handle_starttag(tag, attrs)
                    if tag in RAW_TEXT_ELEMENTS:
                        self.set_cdata_mode(tag)
                i = m.end()
                continue
            if starttag_match(data, i):
                k = self.parse_starttag(i)
            elif startswith("</", i):
                # fast path only outside raw-text mode: stdlib parse_endtag
                # also clears cdata mode / re-checks the cdata elem there
                if self.cdata_elem is None:
                    em = fast_end(data, i)
                    if em is not None:
                        self.handle_endtag(em.group(1).lower())
                        i = em.end()
                        continue
                k = self.parse_endtag(i)
            elif startswith("<!--", i):
                k = self.parse_comment(i)
            elif startswith("<?", i):
                k = self.parse_pi(i)
            elif startswith("<!", i):
                k = self.parse_html_declaration(i)
            else:
                handle_data("<")
                k = i + 1
            if k < 0:  # incomplete construct at EOF (goahead end=1 path)
                k = find(">", i + 1)
                if k < 0:
                    k = find("<", i + 1)
                    if k < 0:
                        k = i + 1
                else:
                    k += 1
                chunk = data[i:k]
                if self.cdata_elem is None and "&" in chunk:
                    chunk = _unescape(chunk)
                handle_data(chunk)
            i = k
        self.rawdata = ""


def parse(html: str, document_uri: str = "about:blank") -> Document:
    """Parse an HTML document string into a :class:`Document`.

    Always produces an ``html > (head, body)`` skeleton like a browser.
    """
    doc = Document(document_uri)
    builder = _TreeBuilder(doc, fragment=False)
    try:
        builder.feed(html)
        builder.close()
    except Exception:
        # html.parser is robust, but guard against pathological inputs:
        # whatever tree was built so far is kept.
        pass
    # guarantee skeleton
    de = doc.document_element
    if de is None or de.tag != "html":
        html_el = Element("html")
        for c in list(doc.child_nodes):
            doc.remove_child(c)
            html_el.append_child(c)
        doc.append_child(html_el)
        de = html_el
    if doc.head is None:
        de.insert_before(Element("head"), de.first_child)
    if doc.body is None:
        de.append_child(Element("body"))
    return doc


def parse_fragment(html: str) -> list[Node]:
    """Parse an HTML fragment; returns the top-level node list (detached)."""
    root = Element("#fragment")
    builder = _TreeBuilder(root, fragment=True)
    try:
        builder.feed(html)
        builder.close()
    except Exception:
        pass
    nodes = list(root.child_nodes)
    for n in nodes:
        root.remove_child(n)
    return nodes


def clone_node(node: Node) -> Node:
    """Deep structural clone: fresh Element/TextNode/Comment objects with
    copied tag/attrs/data.  Readability scoring state is NOT copied — a
    restored tree starts clean, exactly like the serialize+reparse cycle
    this replaces in the grab-retry path (but ~4× cheaper: no tokenizer).
    Iterative, so kilonode-deep pathological documents clone without
    RecursionError."""
    if isinstance(node, TextNode):
        return TextNode(node.data)
    if isinstance(node, Comment):
        return Comment(node.data)
    assert isinstance(node, Element)
    root = Element(node.tag, dict(node.attrs))
    stack: list[tuple[Element, Element]] = [(node, root)]
    # _attach, not append_child: fresh nodes can't be in another tree, and a
    # fresh tree has no caches to invalidate
    while stack:
        src, dst = stack.pop()
        for c in src.child_nodes:
            if isinstance(c, TextNode):
                cc: Node = TextNode(c.data)
            elif isinstance(c, Comment):
                cc = Comment(c.data)
            else:
                cc = Element(c.tag, dict(c.attrs))
                stack.append((c, cc))
            _attach(dst, cc)
    return root


def normalize_ws(text: str) -> str:
    """Collapse all whitespace runs to single spaces and trim."""
    return _WS_RE.sub(" ", text).strip()

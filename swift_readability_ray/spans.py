"""Span model: interleaved (kind, text, media_ref, offset) sequences.

Deterministic mapping (SURVEY.md §1.2, FIXTURES.md §1):

* **Reassembly** (input spans → HTML): concatenate spans in ``offset`` order;
  a text span contributes ``span.text`` verbatim; a media span contributes
  ``<img src="{media_ref}"/>`` with the ref attribute-escaped, so it parses
  back to exactly ``media_ref``.
* **Emission** (extracted article DOM → output spans): walk the article
  element in document order; contiguous text runs become ``kind="text"``
  spans (whitespace-normalized, empty runs skipped); retained media elements
  (``img``, ``video``, ``audio``, ``source`` — the set Readability preserves
  and fixRelativeUris rewrites, reference Postprocessor.swift:227-256) become
  ``kind="media"`` spans with ``media_ref`` = resolved ``src`` (falling back
  to ``poster`` then first ``srcset`` URL).  ``offset`` is the 0-based
  emission index.
"""

from __future__ import annotations

from html import escape

from .dom import Element, TextNode, normalize_ws
from .regexps import SRCSET_URL

MEDIA_TAGS = frozenset(("img", "video", "audio", "source"))

# Elements whose text joins the enclosing run (inline/phrasing); everything
# else is a block boundary that closes the current text span.
PHRASING_CONTAINER_TAGS = frozenset(
    (
        "a", "abbr", "b", "bdo", "cite", "code", "data", "del", "dfn", "em",
        "i", "ins", "kbd", "label", "mark", "meter", "output", "q", "ruby",
        "samp", "small", "span", "strong", "sub", "sup", "time", "u", "var",
        "wbr", "br", "picture", "figcaption",
    )
)


def spans_to_html(spans: list[dict]) -> str:
    """Reassemble one document's HTML from its ordered spans."""
    parts: list[str] = []
    for span in sorted(spans, key=lambda s: s["offset"]):
        if span["kind"] == "media":
            parts.append(f'<img src="{escape(span["media_ref"], quote=True)}"/>')
        else:
            parts.append(span["text"] or "")
    return "".join(parts)


def _media_ref(el: Element) -> str:
    src = el.get_attribute("src")
    if src:
        return src
    poster = el.get_attribute("poster")
    if poster:
        return poster
    srcset = el.get_attribute("srcset") or ""
    m = SRCSET_URL.search(srcset)
    return m.group(1) if m else ""


def emit_spans(article: Element) -> list[dict]:
    """Walk the extracted article DOM emitting ordered text/media spans."""
    spans: list[dict] = []
    buf: list[str] = []

    def flush() -> None:
        if buf:
            text = normalize_ws("".join(buf))
            if text:
                spans.append(
                    {"kind": "text", "text": text, "media_ref": "", "offset": len(spans)}
                )
            buf.clear()

    # iterative walk, so deep nesting cannot overflow the stack; a None
    # entry closes the text run of the block element it was pushed for
    stack: list = list(reversed(article.child_nodes))
    while stack:
        node = stack.pop()
        if node is None:
            flush()
            continue
        if isinstance(node, TextNode):
            buf.append(node.data)
            continue
        if not isinstance(node, Element):
            continue
        if node.tag in MEDIA_TAGS:
            flush()
            ref = _media_ref(node)
            spans.append(
                {"kind": "media", "text": "", "media_ref": ref, "offset": len(spans)}
            )
            continue
        # Block-level boundary → close the current text run so spans are
        # paragraph-granular (phrasing content stays inside one run).
        if node.tag not in PHRASING_CONTAINER_TAGS:
            flush()
            stack.append(None)
        stack.extend(reversed(node.child_nodes))
    flush()
    return spans

"""Main-content extraction core (grabArticle + prepArticle + postprocess).

A from-scratch Python implementation of the Readability main-content
extraction semantics (Mozilla Readability.js v0.6.0, public Apache-2.0 —
behavior reference only: /root/reference/tmp-readability/Readability.js;
parity pitfalls documented by the reference port in
Sources/SwiftReadability/ArticleGrabber.swift / Postprocessor.swift).

Phases (SURVEY.md §2.2): parse & gate → metadata → preprocess → node prep →
scoring → top-candidate + sibling join → prepArticle cleanup → postprocess →
serialize.  Everything here is per-document transient state designed to run
inside a Ray Data ``map_batches`` actor UDF: one ``Extractor`` per actor
(holds the compiled regex table via module import), one ``extract()`` call
per row.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from time import perf_counter as _now

from .. import regexps as R
from ..dom import Comment, Document, Element, Node, TextNode, clone_node, parse
from ..functions.kernels import (
    get_inner_text,
    get_link_density,
    resolve_url,
    text_similarity,
)
from . import metadata as M
from .readerable import is_probably_readerable

FLAG_STRIP_UNLIKELYS = 0x1
FLAG_WEIGHT_CLASSES = 0x2
FLAG_CLEAN_CONDITIONALLY = 0x4


@dataclass(frozen=True)
class ExtractOptions:
    """Extraction knobs (reference: Models.swift:4-46 / Readability.js ctor).

    Frozen so it can be broadcast once per actor via ``fn_constructor_kwargs``.
    """

    max_elems_to_parse: int = 0
    nb_top_candidates: int = 5
    char_threshold: int = 500
    classes_to_preserve: tuple[str, ...] = ()
    keep_classes: bool = False
    disable_jsonld: bool = False
    allowed_video_regex: str | None = None
    link_density_modifier: float = 0.0
    serializer: str = "html"  # "html" | "xml" | "text" (named modes, not closures)
    # per-run overrides for the pattern table, mirroring the reference's
    # RegExUtil init params (RegExUtil.swift:45-58): tuple of (name, pattern)
    # pairs so the dataclass stays frozen/hashable for fn_constructor_kwargs.
    # Overridable names: unlikely_candidates, ok_maybe_its_a_candidate,
    # positive, negative, byline, videos, share_elements, whitespace,
    # has_content.  (normalize/next_link/prev_link/extraneous/replace_fonts
    # exist in the reference table but are never consulted by the v0.6
    # algorithm core, so overriding them would be dead config.)
    regex_overrides: tuple[tuple[str, str], ...] = ()
    # verbose per-phase logging (reference: Models.swift:13 `debug`)
    debug: bool = False
    # isProbablyReaderable thresholds (reference ReaderableOptions,
    # Readability.swift:210-222) — plumbed so pipeline stages can tune the
    # readerable gate without a custom checker
    readerable_min_content_length: int = 140
    readerable_min_score: float = 20.0


_logger = logging.getLogger("swift_readability_ray.readability")




class MaxElemsExceeded(Exception):
    pass


class Extractor:
    """One extraction run over one document. Do not reuse across documents."""

    #: override names accepted by ExtractOptions.regex_overrides
    OVERRIDABLE_PATTERNS = frozenset(
        ("unlikely_candidates", "ok_maybe_its_a_candidate", "positive",
         "negative", "byline", "videos", "share_elements", "whitespace",
         "has_content")
    )

    def __init__(self, options: ExtractOptions | None = None) -> None:
        self.opts = options or ExtractOptions()
        ov = dict(self.opts.regex_overrides)
        unknown = set(ov) - self.OVERRIDABLE_PATTERNS
        if unknown:
            raise ValueError(f"unknown regex_overrides: {sorted(unknown)}")

        def rx(name: str, default: re.Pattern, flags: int = re.I) -> re.Pattern:
            return re.compile(ov[name], flags) if name in ov else default

        self._rx_unlikely = rx("unlikely_candidates", R.UNLIKELY_CANDIDATES)
        self._rx_ok_maybe = rx("ok_maybe_its_a_candidate", R.OK_MAYBE_ITS_A_CANDIDATE)
        self._rx_positive = rx("positive", R.POSITIVE)
        self._rx_negative = rx("negative", R.NEGATIVE)
        self._rx_byline = rx("byline", R.BYLINE)
        self._rx_share = rx("share_elements", R.SHARE_ELEMENTS)
        # reference compiles whitespace/hasContent without case-insensitivity
        self._rx_whitespace = rx("whitespace", R.WHITESPACE, 0)
        self._rx_has_content = rx("has_content", R.HAS_CONTENT, 0)
        # priority mirrors RegExUtil.init: allowedVideoRegex ?? videos pattern
        self._allowed_video_regex = (
            re.compile(self.opts.allowed_video_regex, re.I)
            if self.opts.allowed_video_regex
            else rx("videos", R.VIDEOS)
        )
        self._flags = FLAG_STRIP_UNLIKELYS | FLAG_WEIGHT_CLASSES | FLAG_CLEAN_CONDITIONALLY
        self._article_title: str | None = None
        self._article_byline: str | None = None
        self._article_dir: str | None = None
        self._article_lang: str | None = None
        self._attempts: list[tuple[Element, int]] = []
        self._metadata: dict = {}
        self.doc: Document | None = None
        # work counter for the metrics contract (north rule: candidates
        # scored per partition); accumulates across grab-retry attempts
        self.candidates_scored = 0
        # per-phase wall seconds, mirroring the reference's TimingSink
        # labels (Timing.swift / Readability.swift:141-175); None disables
        self.timings: dict[str, float] | None = None

    def _tick(self, label: str, start: float) -> None:
        if self.timings is not None:
            self.timings[label] = self.timings.get(label, 0.0) + (_now() - start)

    def _log(self, *args) -> None:
        """Verbose phase logging, gated on options.debug (Models.swift:13 /
        Readability.js this.log); a logger, not print, so pipeline workers
        stay quiet unless the deployment enables the logger."""
        if self.opts.debug:
            _logger.debug(" ".join(str(a) for a in args))

    # ------------------------------------------------------------------ flags
    def _flag_is_active(self, flag: int) -> bool:
        return (self._flags & flag) > 0

    def _remove_flag(self, flag: int) -> None:
        self._flags &= ~flag

    # -------------------------------------------------------------- traversal
    @staticmethod
    def _get_next_node(node: Element, ignore_self_and_kids: bool = False) -> Element | None:
        if not ignore_self_and_kids:
            fec = node.first_element_child
            if fec is not None:
                return fec
        nes = node.next_element_sibling
        if nes is not None:
            return nes
        cur: Element | None = node
        while True:
            cur = cur.parent
            if cur is None:
                return None
            nes = cur.next_element_sibling
            if nes is not None:
                return nes

    def _remove_and_get_next(self, node: Element) -> Element | None:
        next_node = self._get_next_node(node, True)
        node.remove()
        return next_node

    @staticmethod
    def _get_node_ancestors(node: Element, max_depth: int = 0) -> list[Element]:
        i, ancestors = 0, []
        cur = node
        while cur.parent is not None:
            ancestors.append(cur.parent)
            i += 1
            if max_depth and i == max_depth:
                break
            cur = cur.parent
        return ancestors

    @staticmethod
    def _has_ancestor_tag(node: Element, tag: str, max_depth: int = 3, filter_fn=None) -> bool:
        depth = 0
        cur = node
        while cur.parent is not None:
            if max_depth > 0 and depth > max_depth:
                return False
            parent = cur.parent
            if (
                isinstance(parent, Element)
                and parent.tag == tag
                and (filter_fn is None or filter_fn(parent))
            ):
                return True
            cur = parent
            depth += 1
        return False

    # ------------------------------------------------------------- predicates
    @staticmethod
    def _is_whitespace(node: Node) -> bool:
        return (isinstance(node, TextNode) and not node.data.strip()) or (
            isinstance(node, Element) and node.tag == "br"
        )

    @staticmethod
    def _is_phrasing_content(node: Node) -> bool:
        # a/del/ins are phrasing when all their children are (iterative, so
        # deep nesting cannot overflow the stack)
        stack = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, TextNode):
                continue
            if not isinstance(n, Element):
                return False
            if n.tag in R.PHRASING_ELEMS:
                continue
            if n.tag not in ("a", "del", "ins"):
                return False
            stack.extend(n.child_nodes)
        return True

    @staticmethod
    def _is_element_without_content(node: Element) -> bool:
        # One walk: early-exit on any non-ws text; count br/hr descendants
        # (upstream compares descendant br+hr count to DIRECT child count).
        br_hr = 0
        stack = list(reversed(node.child_nodes))
        while stack:
            n = stack.pop()
            if isinstance(n, TextNode):
                if n.data.strip():
                    return False
            elif isinstance(n, Element):
                if n.tag == "br" or n.tag == "hr":
                    br_hr += 1
                if n.child_nodes:
                    stack.extend(reversed(n.child_nodes))
        return len(node.children) == br_hr

    def _has_single_tag_inside_element(self, element: Element, tag: str) -> bool:
        children = element.children
        if len(children) != 1 or children[0].tag != tag:
            return False
        return not any(
            isinstance(n, TextNode) and self._rx_has_content.search(n.data)
            for n in element.child_nodes
        )

    @staticmethod
    def _has_child_block_element(element: Element) -> bool:
        stack = list(element.child_nodes)
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                if node.tag in R.DIV_TO_P_ELEMS:
                    return True
                stack.extend(node.child_nodes)
        return False

    @staticmethod
    def _is_probably_visible(node: Element) -> bool:
        style = node.get_attribute("style") or ""
        if style and (R.DISPLAY_NONE.search(style) or R.VISIBILITY_HIDDEN.search(style)):
            return False
        if node.has_attribute("hidden"):
            return False
        if (
            node.has_attribute("aria-hidden")
            and node.get_attribute("aria-hidden") == "true"
            and "fallback-image" not in node.class_name
        ):
            return False
        return True

    def _is_valid_byline(self, node: Element, match_string: str) -> bool:
        # cheap predicates first; text walk only when one matches
        # (upstream order: _checkByline tests rel/itemprop/regex, THEN text)
        rel = node.get_attribute("rel")
        itemprop = node.get_attribute("itemprop")
        if not (
            rel == "author"
            or (itemprop is not None and "author" in itemprop)
            or self._rx_byline.search(match_string)
        ):
            return False
        byline_length = len(node.text_content.strip())
        return 0 < byline_length < 100

    def _header_duplicates_title(self, node: Element) -> bool:
        if node.tag not in ("h1", "h2"):
            return False
        heading = get_inner_text(node, False)
        return text_similarity(self._article_title or "", heading) > 0.75

    # ---------------------------------------------------------------- helpers
    def _set_node_tag(self, node: Element, tag: str) -> Element:
        tag = tag.lower()
        replacement = Element(tag)
        parent = node.parent
        assert parent is not None
        for c in list(node.child_nodes):
            replacement.append_child(c)
        parent.replace_child(replacement, node)
        replacement.readability = node.readability
        for k, v in node.attrs.items():
            replacement.attrs[k] = v
        return replacement

    def _get_class_weight(self, e: Element) -> int:
        if not self._flag_is_active(FLAG_WEIGHT_CLASSES):
            return 0
        weight = 0
        cn = e.class_name
        if cn:
            if self._rx_negative.search(cn):
                weight -= 25
            if self._rx_positive.search(cn):
                weight += 25
        eid = e.id
        if eid:
            if self._rx_negative.search(eid):
                weight -= 25
            if self._rx_positive.search(eid):
                weight += 25
        return weight

    def _initialize_node(self, node: Element) -> None:
        score = 0.0
        tag = node.tag
        if tag == "div":
            score += 5
        elif tag in ("pre", "td", "blockquote"):
            score += 3
        elif tag in ("address", "ol", "ul", "dl", "dd", "dt", "li", "form"):
            score -= 3
        elif tag in ("h1", "h2", "h3", "h4", "h5", "h6", "th"):
            score -= 5
        score += self._get_class_weight(node)
        node.readability = score

    def _get_char_count(self, e: Element, s: str = ",") -> int:
        return get_inner_text(e).count(s)

    def _get_text_density(self, e: Element, tags) -> float:
        text_length = len(get_inner_text(e, True))
        if text_length == 0:
            return 0.0
        children_length = sum(
            len(get_inner_text(child, True)) for child in e.get_all_nodes_with_tag(tags)
        )
        return children_length / text_length

    # ========================================================= Phase C: prep
    def _unwrap_noscript_images(self, doc: Document) -> None:
        for img in list(doc.get_elements_by_tag_name("img")):
            keep = False
            for name, value in img.attrs.items():
                if name in ("src", "srcset", "data-src", "data-srcset"):
                    keep = True
                    break
                if R.IMG_EXT.search(value):
                    keep = True
                    break
            if not keep:
                img.remove()

        for noscript in list(doc.get_elements_by_tag_name("noscript")):
            if not self._is_single_image(noscript):
                continue
            tmp = doc.create_element("div")
            tmp.set_inner_html(noscript.inner_html)
            prev_element = noscript.previous_element_sibling
            if prev_element is not None and self._is_single_image(prev_element):
                prev_img = prev_element
                if prev_img.tag != "img":
                    imgs = prev_element.get_elements_by_tag_name("img")
                    if not imgs:
                        continue
                    prev_img = imgs[0]
                new_imgs = tmp.get_elements_by_tag_name("img")
                if not new_imgs:
                    continue
                new_img = new_imgs[0]
                for name, value in list(prev_img.attrs.items()):
                    if value == "":
                        continue
                    if name in ("src", "srcset") or R.IMG_EXT.search(value):
                        if new_img.get_attribute(name) == value:
                            continue
                        attr_name = name
                        if new_img.has_attribute(attr_name):
                            attr_name = "data-old-" + attr_name
                        new_img.set_attribute(attr_name, value)
                first = tmp.first_element_child
                if first is not None and noscript.parent is not None and prev_element.parent is not None:
                    prev_element.parent.replace_child(first, prev_element)

    @staticmethod
    def _is_single_image(node: Element | None) -> bool:
        while node is not None:
            if node.tag == "img":
                return True
            children = node.children
            if len(children) != 1 or node.text_content.strip() != "":
                return False
            node = children[0]
        return False

    def _remove_scripts(self, doc: Document) -> None:
        for el in list(doc.get_all_nodes_with_tag(["script", "noscript"])):
            el.remove()

    def _remove_comments(self, doc: Document) -> None:
        stack: list[Node] = list(doc.child_nodes)
        to_remove = []
        while stack:
            node = stack.pop()
            if isinstance(node, Comment):
                to_remove.append(node)
            elif isinstance(node, Element):
                stack.extend(node.child_nodes)
        for c in to_remove:
            c.remove()

    def _next_node_skip_ws(self, node: Node | None) -> Node | None:
        """Next sibling skipping whitespace-only text (Readability _nextNode)."""
        nxt = node
        while (
            nxt is not None
            and not isinstance(nxt, Element)
            and self._rx_whitespace.match(nxt.text_content or "")
        ):
            nxt = nxt.next_sibling
        return nxt

    def _replace_brs(self, elem: Element, doc: Document) -> None:
        for br in list(elem.get_elements_by_tag_name("br")):
            if br.parent is None:
                continue
            nxt: Node | None = br.next_sibling
            replaced = False
            while True:
                nxt = self._next_node_skip_ws(nxt)
                if nxt is None or not (isinstance(nxt, Element) and nxt.tag == "br"):
                    break
                replaced = True
                br_sibling = nxt.next_sibling
                nxt.remove()
                nxt = br_sibling

            if replaced:
                p = doc.create_element("p")
                br.parent.replace_child(p, br)
                nxt = p.next_sibling
                while nxt is not None:
                    if isinstance(nxt, Element) and nxt.tag == "br":
                        next_elem = self._next_node_skip_ws(nxt.next_sibling)
                        if isinstance(next_elem, Element) and next_elem.tag == "br":
                            break
                    if not self._is_phrasing_content(nxt):
                        break
                    sibling = nxt.next_sibling
                    p.append_child(nxt)
                    nxt = sibling
                while p.last_child is not None and self._is_whitespace(p.last_child):
                    p.last_child.remove()
                if p.parent is not None and p.parent.tag == "p":
                    self._set_node_tag(p.parent, "div")

    def _prep_document(self, doc: Document) -> None:
        for style in list(doc.get_elements_by_tag_name("style")):
            style.remove()
        body = doc.body
        if body is not None:
            self._replace_brs(body, doc)
        for font in list(doc.get_elements_by_tag_name("font")):
            self._set_node_tag(font, "span")

    # ==================================================== Phases D-F: grab
    def _grab_article(self, doc: Document) -> Element | None:
        page = doc.body
        if page is None:
            return None

        # pristine copy for grab retries: a deep clone is semantically the
        # serialize+reparse the algorithm used to do (both yield a clean,
        # unscored tree) at ~1/4 the cost — no tokenizer pass per attempt
        page_cache_nodes = [clone_node(c) for c in page.child_nodes]

        while True:
            _t_prep = _now()
            strip_unlikely_candidates = self._flag_is_active(FLAG_STRIP_UNLIKELYS)

            elements_to_score: list[Element] = []
            node: Element | None = doc.document_element
            should_remove_title_header = True

            while node is not None:
                if node.tag == "html":
                    self._article_lang = node.get_attribute("lang")

                match_string = node.class_name + " " + node.id

                if not self._is_probably_visible(node):
                    node = self._remove_and_get_next(node)
                    continue

                if (
                    node.get_attribute("aria-modal") == "true"
                    and node.get_attribute("role") == "dialog"
                ):
                    node = self._remove_and_get_next(node)
                    continue

                if (
                    not self._article_byline
                    and not self._metadata.get("byline")
                    and self._is_valid_byline(node, match_string)
                ):
                    end_of_search = self._get_next_node(node, True)
                    nxt = self._get_next_node(node)
                    itemprop_name_node = None
                    while nxt is not None and nxt is not end_of_search:
                        itemprop = nxt.get_attribute("itemprop")
                        if itemprop and "name" in itemprop:
                            itemprop_name_node = nxt
                            break
                        nxt = self._get_next_node(nxt)
                    source = itemprop_name_node if itemprop_name_node is not None else node
                    self._article_byline = source.text_content.strip()
                    node = self._remove_and_get_next(node)
                    continue

                if should_remove_title_header and self._header_duplicates_title(node):
                    should_remove_title_header = False
                    node = self._remove_and_get_next(node)
                    continue

                if strip_unlikely_candidates:
                    if (
                        self._rx_unlikely.search(match_string)
                        and not self._rx_ok_maybe.search(match_string)
                        and not self._has_ancestor_tag(node, "table")
                        and not self._has_ancestor_tag(node, "code")
                        and node.tag != "body"
                        and node.tag != "a"
                    ):
                        node = self._remove_and_get_next(node)
                        continue

                    if (node.get_attribute("role") or "") in R.UNLIKELY_ROLES:
                        node = self._remove_and_get_next(node)
                        continue

                if node.tag in (
                    "div", "section", "header", "h1", "h2", "h3", "h4", "h5", "h6",
                ) and self._is_element_without_content(node):
                    node = self._remove_and_get_next(node)
                    continue

                if node.tag in R.DEFAULT_TAGS_TO_SCORE:
                    elements_to_score.append(node)

                if node.tag == "div":
                    # Put phrasing content into paragraphs.
                    child_node: Node | None = node.first_child
                    while child_node is not None:
                        next_sibling = child_node.next_sibling
                        if self._is_phrasing_content(child_node):
                            run: list[Node] = []
                            while child_node is not None and self._is_phrasing_content(child_node):
                                next_sibling = child_node.next_sibling
                                run.append(child_node)
                                child_node = next_sibling
                            while run and self._is_whitespace(run[0]):
                                run.pop(0).remove()
                            while run and self._is_whitespace(run[-1]):
                                run.pop().remove()
                            if run:
                                p = doc.create_element("p")
                                node.insert_before(p, next_sibling)
                                for r in run:
                                    p.append_child(r)
                        child_node = next_sibling

                    if self._has_single_tag_inside_element(node, "p") and get_link_density(node) < 0.25:
                        new_node = node.children[0]
                        assert node.parent is not None
                        node.parent.replace_child(new_node, node)
                        node = new_node
                        elements_to_score.append(node)
                    elif not self._has_child_block_element(node):
                        node = self._set_node_tag(node, "p")
                        elements_to_score.append(node)

                node = self._get_next_node(node)

            self._tick("grab.prepareNodes", _t_prep)
            # ------------------------------------------------ Phase E: scoring
            _t_score = _now()
            candidates: list[Element] = []
            for element_to_score in elements_to_score:
                if element_to_score.parent is None or not isinstance(
                    element_to_score.parent, Element
                ):
                    continue
                inner_text = get_inner_text(element_to_score)
                if len(inner_text) < 25:
                    continue
                ancestors = self._get_node_ancestors(element_to_score, 5)
                if not ancestors:
                    continue

                content_score = 0.0
                content_score += 1
                content_score += len(R.COMMAS.split(inner_text))
                content_score += min(len(inner_text) // 100, 3)
                self.candidates_scored += 1

                for level, ancestor in enumerate(ancestors):
                    # Skip the document and <html> (whose parent is the
                    # document): matches upstream's tagName-undefined guards.
                    if (
                        ancestor.tag == "#document"
                        or ancestor.parent is None
                        or not isinstance(ancestor.parent, Element)
                        or ancestor.parent.tag == "#document"
                    ):
                        continue
                    if ancestor.readability is None:
                        self._initialize_node(ancestor)
                        candidates.append(ancestor)
                    if level == 0:
                        score_divider = 1
                    elif level == 1:
                        score_divider = 2
                    else:
                        score_divider = level * 3
                    assert ancestor.readability is not None
                    ancestor.readability += content_score / score_divider

            self._tick("grab.scoreElements", _t_score)
            # ------------------------------------- Phase F: top candidates
            _t_top = _now()
            top_candidates: list[Element] = []
            for candidate in candidates:
                candidate_score = (candidate.readability or 0.0) * (
                    1 - get_link_density(candidate)
                )
                candidate.readability = candidate_score
                for t in range(self.opts.nb_top_candidates):
                    a_top_candidate = top_candidates[t] if t < len(top_candidates) else None
                    if a_top_candidate is None or candidate_score > (
                        a_top_candidate.readability or 0.0
                    ):
                        top_candidates.insert(t, candidate)
                        if len(top_candidates) > self.opts.nb_top_candidates:
                            top_candidates.pop()
                        break

            top_candidate = top_candidates[0] if top_candidates else None
            needed_to_create_top_candidate = False
            parent_of_top_candidate: Element | None = None
            if top_candidate is not None:
                self._log(
                    "Top candidate:", top_candidate.tag,
                    top_candidate.class_name, top_candidate.readability,
                )

            if top_candidate is None or top_candidate.tag == "body":
                top_candidate = doc.create_element("div")
                needed_to_create_top_candidate = True
                while page.first_child is not None:
                    top_candidate.append_child(page.first_child)
                page.append_child(top_candidate)
                self._initialize_node(top_candidate)
            else:
                alternative_candidate_ancestors = []
                for i in range(1, len(top_candidates)):
                    if (top_candidates[i].readability or 0.0) / (
                        top_candidate.readability or 1e-12
                    ) >= 0.75:
                        alternative_candidate_ancestors.append(
                            self._get_node_ancestors(top_candidates[i])
                        )
                MINIMUM_TOPCANDIDATES = 3
                if len(alternative_candidate_ancestors) >= MINIMUM_TOPCANDIDATES:
                    parent_of_top_candidate = top_candidate.parent
                    while (
                        parent_of_top_candidate is not None
                        and parent_of_top_candidate.tag != "body"
                    ):
                        lists_containing = 0
                        for ancestor_list in alternative_candidate_ancestors:
                            if lists_containing >= MINIMUM_TOPCANDIDATES:
                                break
                            if parent_of_top_candidate in ancestor_list:
                                lists_containing += 1
                        if lists_containing >= MINIMUM_TOPCANDIDATES:
                            top_candidate = parent_of_top_candidate
                            break
                        parent_of_top_candidate = parent_of_top_candidate.parent
                if top_candidate.readability is None:
                    self._initialize_node(top_candidate)

                parent_of_top_candidate = top_candidate.parent
                last_score = top_candidate.readability or 0.0
                score_threshold = last_score / 3
                while (
                    parent_of_top_candidate is not None
                    and parent_of_top_candidate.tag != "body"
                    and isinstance(parent_of_top_candidate, Element)
                ):
                    if parent_of_top_candidate.readability is None:
                        parent_of_top_candidate = parent_of_top_candidate.parent
                        continue
                    parent_score = parent_of_top_candidate.readability
                    if parent_score < score_threshold:
                        break
                    if parent_score > last_score:
                        top_candidate = parent_of_top_candidate
                        break
                    last_score = parent_of_top_candidate.readability
                    parent_of_top_candidate = parent_of_top_candidate.parent

                parent_of_top_candidate = top_candidate.parent
                while (
                    parent_of_top_candidate is not None
                    and parent_of_top_candidate.tag != "body"
                    and len(parent_of_top_candidate.children) == 1
                ):
                    top_candidate = parent_of_top_candidate
                    parent_of_top_candidate = top_candidate.parent
                if top_candidate.readability is None:
                    self._initialize_node(top_candidate)

            # ------------------------------------------- sibling joining
            article_content = doc.create_element("div")
            sibling_score_threshold = max(10.0, (top_candidate.readability or 0.0) * 0.2)
            parent_of_top_candidate = top_candidate.parent
            assert parent_of_top_candidate is not None
            # one snapshot: appending a sibling only removes it from the parent
            for sibling in parent_of_top_candidate.children:
                append = False

                if sibling is top_candidate:
                    append = True
                else:
                    content_bonus = 0.0
                    if (
                        sibling.class_name == top_candidate.class_name
                        and top_candidate.class_name != ""
                    ):
                        content_bonus += (top_candidate.readability or 0.0) * 0.2
                    if (
                        sibling.readability is not None
                        and sibling.readability + content_bonus >= sibling_score_threshold
                    ):
                        append = True
                    elif sibling.tag == "p":
                        link_density = get_link_density(sibling)
                        node_content = get_inner_text(sibling)
                        node_length = len(node_content)
                        if node_length > 80 and link_density < 0.25:
                            append = True
                        elif (
                            node_length < 80
                            and node_length > 0
                            and link_density == 0
                            and R.SENTENCE_DOT.search(node_content)
                        ):
                            append = True

                if append:
                    if sibling.tag not in R.ALTER_TO_DIV_EXCEPTIONS:
                        sibling = self._set_node_tag(sibling, "div")
                    article_content.append_child(sibling)

            self._tick("grab.topCandidate", _t_top)
            _t_pa = _now()
            self._prep_article(article_content, doc)
            self._tick("grab.prepArticle", _t_pa)

            if needed_to_create_top_candidate:
                top_candidate.id = "readability-page-1"
                top_candidate.class_name = "page"
            else:
                div = doc.create_element("div")
                div.id = "readability-page-1"
                div.class_name = "page"
                while article_content.first_child is not None:
                    div.append_child(article_content.first_child)
                article_content.append_child(div)

            parse_successful = True
            text_length = len(get_inner_text(article_content, True))
            if text_length < self.opts.char_threshold:
                parse_successful = False
                self._log(
                    "Article too short", text_length, "— retrying with relaxed flags",
                )
                for c in list(page.child_nodes):
                    page.remove_child(c)
                for c in page_cache_nodes:
                    page.append_child(clone_node(c))
                self._attempts.append((article_content, text_length))
                if self._flag_is_active(FLAG_STRIP_UNLIKELYS):
                    self._remove_flag(FLAG_STRIP_UNLIKELYS)
                elif self._flag_is_active(FLAG_WEIGHT_CLASSES):
                    self._remove_flag(FLAG_WEIGHT_CLASSES)
                elif self._flag_is_active(FLAG_CLEAN_CONDITIONALLY):
                    self._remove_flag(FLAG_CLEAN_CONDITIONALLY)
                else:
                    self._attempts.sort(key=lambda a: -a[1])
                    if not self._attempts[0][1]:
                        return None
                    article_content = self._attempts[0][0]
                    parse_successful = True

            if parse_successful:
                ancestors = [parent_of_top_candidate, top_candidate] + self._get_node_ancestors(
                    parent_of_top_candidate
                )
                for ancestor in ancestors:
                    if not isinstance(ancestor, Element) or ancestor.tag == "#document":
                        continue
                    article_dir = ancestor.get_attribute("dir")
                    if article_dir:
                        self._article_dir = article_dir
                        break
                return article_content

    # ====================================================== Phase G: prep
    def _prep_article(self, article_content: Element, doc: Document) -> None:
        # One tag census up front: the per-tag walks below are skipped for
        # tags the article lacks.  Exact, because up to the last of them this
        # method creates only img elements (lazy images); the h2, p and div
        # it makes come later.
        present = {el.tag for el in article_content.get_elements_by_tag_name("*")}

        def clean(*tags: str) -> None:
            for tag in tags:
                if tag in present:
                    self._clean(article_content, tag)

        def clean_conditionally(*tags: str) -> None:
            for tag in tags:
                if tag in present:
                    self._clean_conditionally(article_content, tag)

        self._clean_styles(article_content)
        if "table" in present:
            self._mark_data_tables(article_content)
        self._fix_lazy_images(article_content, doc)

        clean_conditionally("form", "fieldset")
        clean("object", "embed", "footer", "link", "aside")

        share_element_threshold = 500  # DEFAULT_CHAR_THRESHOLD
        for top_candidate in article_content.children:
            self._clean_matched_nodes(
                top_candidate,
                lambda n, ms: bool(self._rx_share.search(ms))
                and len(n.text_content) < share_element_threshold,
            )

        clean("iframe", "input", "textarea", "select", "button")
        self._clean_headers(article_content)

        clean_conditionally("table", "ul", "div")

        for h1 in list(article_content.get_elements_by_tag_name("h1")):
            self._set_node_tag(h1, "h2")

        for paragraph in list(article_content.get_elements_by_tag_name("p")):
            # the cached text test first: most paragraphs have text
            if not get_inner_text(paragraph, False) and not paragraph.get_all_nodes_with_tag(
                ["img", "embed", "object", "iframe"]
            ):
                paragraph.remove()

        for br in list(article_content.get_elements_by_tag_name("br")):
            nxt = self._next_node_skip_ws(br.next_sibling)
            if isinstance(nxt, Element) and nxt.tag == "p":
                br.remove()

        for table in list(article_content.get_elements_by_tag_name("table")):
            tbody = (
                table.first_element_child
                if self._has_single_tag_inside_element(table, "tbody")
                else table
            )
            if tbody is not None and self._has_single_tag_inside_element(tbody, "tr"):
                row = tbody.first_element_child
                if row is not None and self._has_single_tag_inside_element(row, "td"):
                    cell = row.first_element_child
                    assert cell is not None
                    new_tag = (
                        "p"
                        if all(self._is_phrasing_content(c) for c in cell.child_nodes)
                        else "div"
                    )
                    cell = self._set_node_tag(cell, new_tag)
                    if table.parent is not None:
                        table.parent.replace_child(cell, table)

    @staticmethod
    def _clean_styles(root: Element) -> None:
        # removes only the attributes an element has; svg subtrees are kept
        stack = [root]
        while stack:
            e = stack.pop()
            if e.tag == "svg":
                continue
            sized = e.tag in R.DEPRECATED_SIZE_ATTRIBUTE_ELEMS
            for attr in [a for a in e.attrs if a in R.PRESENTATIONAL_ATTRIBUTES
                         or (sized and a in ("width", "height"))]:
                e.remove_attribute(attr)
            stack.extend(e.children)

    @staticmethod
    def _get_row_and_column_count(table: Element) -> tuple[int, int]:
        rows = 0
        columns = 0
        for tr in table.get_elements_by_tag_name("tr"):
            rowspan_attr = tr.get_attribute("rowspan") or "0"
            try:
                rowspan = int(rowspan_attr)
            except ValueError:
                rowspan = 0
            rows += rowspan or 1
            columns_in_row = 0
            for cell in tr.get_elements_by_tag_name("td"):
                colspan_attr = cell.get_attribute("colspan") or "0"
                try:
                    colspan = int(colspan_attr)
                except ValueError:
                    colspan = 0
                columns_in_row += colspan or 1
            columns = max(columns, columns_in_row)
        return rows, columns

    def _mark_data_tables(self, root: Element) -> None:
        for table in root.get_elements_by_tag_name("table"):
            if table.get_attribute("role") == "presentation":
                table.readability_data_table = False
                continue
            if table.get_attribute("datatable") == "0":
                table.readability_data_table = False
                continue
            if table.get_attribute("summary"):
                table.readability_data_table = True
                continue
            captions = table.get_elements_by_tag_name("caption")
            if captions and captions[0].child_nodes:
                table.readability_data_table = True
                continue
            if any(
                table.get_elements_by_tag_name(t)
                for t in ("col", "colgroup", "tfoot", "thead", "th")
            ):
                table.readability_data_table = True
                continue
            if table.get_elements_by_tag_name("table"):
                table.readability_data_table = False
                continue
            rows, columns = self._get_row_and_column_count(table)
            if columns == 1 or rows == 1:
                table.readability_data_table = False
                continue
            if rows >= 10 or columns > 4:
                table.readability_data_table = True
                continue
            table.readability_data_table = rows * columns > 10

    def _fix_lazy_images(self, root: Element, doc: Document) -> None:
        for elem in root.get_all_nodes_with_tag(["img", "picture", "figure"]):
            src = elem.get_attribute("src") or ""
            if src and R.B64_DATA_URL.match(src):
                parts = R.B64_DATA_URL.match(src)
                assert parts is not None
                if parts.group(1) == "image/svg+xml":
                    continue
                src_could_be_removed = False
                for name, value in elem.attrs.items():
                    if name == "src":
                        continue
                    if R.IMG_EXT.search(value):
                        src_could_be_removed = True
                        break
                if src_could_be_removed:
                    b64_starts = parts.end()
                    b64_length = len(src) - b64_starts
                    if b64_length < 133:
                        elem.remove_attribute("src")

            src = elem.get_attribute("src") or ""
            srcset = elem.get_attribute("srcset") or ""
            if (src or (srcset and srcset != "null")) and "lazy" not in elem.class_name.lower():
                continue

            for name, value in list(elem.attrs.items()):
                if name in ("src", "srcset", "alt"):
                    continue
                copy_to = None
                if R.IMG_EXT_SRCSET.search(value):
                    copy_to = "srcset"
                elif R.IMG_EXT_SRC.match(value):
                    copy_to = "src"
                if copy_to:
                    if elem.tag in ("img", "picture"):
                        elem.set_attribute(copy_to, value)
                    elif elem.tag == "figure" and not elem.get_all_nodes_with_tag(
                        ["img", "picture"]
                    ):
                        img = doc.create_element("img")
                        img.set_attribute(copy_to, value)
                        elem.append_child(img)

    def _clean(self, e: Element, tag: str) -> None:
        is_embed = tag in ("object", "embed", "iframe")
        for element in reversed(e.get_elements_by_tag_name(tag)):
            if element.parent is None:
                continue
            if is_embed:
                spared = any(
                    self._allowed_video_regex.search(v) for v in element.attrs.values()
                )
                if not spared and element.tag == "object" and self._allowed_video_regex.search(
                    element.inner_html
                ):
                    spared = True
                if spared:
                    continue
            element.remove()

    def _clean_matched_nodes(self, e: Element, filter_fn) -> None:
        end_of_search = self._get_next_node(e, True)
        nxt = self._get_next_node(e)
        while nxt is not None and nxt is not end_of_search:
            if filter_fn(nxt, nxt.class_name + " " + nxt.id):
                nxt = self._remove_and_get_next(nxt)
            else:
                nxt = self._get_next_node(nxt)

    def _clean_headers(self, e: Element) -> None:
        for node in reversed(e.get_all_nodes_with_tag(["h1", "h2"])):
            if node.parent is None:
                continue
            if self._get_class_weight(node) < 0:
                node.remove()

    def _clean_conditionally(self, e: Element, tag: str) -> None:
        if not self._flag_is_active(FLAG_CLEAN_CONDITIONALLY):
            return

        def is_data_table(t: Element) -> bool:
            return bool(t.readability_data_table)

        for node in reversed(e.get_elements_by_tag_name(tag)):
            if node.parent is None:
                continue
            if self._should_clean_conditionally(node, tag, is_data_table):
                node.remove()

    def _should_clean_conditionally(self, node: Element, tag: str, is_data_table) -> bool:
        # one fused subtree walk for every tag census this predicate needs
        tag_counts: dict[str, int] = {}
        embeds: list[Element] = []
        tables: list[Element] = []
        lists: list[Element] = []
        stack = list(reversed(node.child_nodes))
        while stack:
            n = stack.pop()
            if isinstance(n, Element):
                t = n.tag
                tag_counts[t] = tag_counts.get(t, 0) + 1
                if t in ("object", "embed", "iframe"):
                    embeds.append(n)
                elif t == "table":
                    tables.append(n)
                elif t in ("ul", "ol"):
                    lists.append(n)
                if n.child_nodes:
                    stack.extend(reversed(n.child_nodes))

        is_list = tag in ("ul", "ol")
        if not is_list:
            list_length = sum(len(get_inner_text(lst)) for lst in lists)
            total = len(get_inner_text(node))
            is_list = total > 0 and list_length / total > 0.9

        if tag == "table" and is_data_table(node):
            return False
        if self._has_ancestor_tag(node, "table", -1, is_data_table):
            return False
        if self._has_ancestor_tag(node, "code"):
            return False
        if any(is_data_table(t) for t in tables):
            return False

        weight = self._get_class_weight(node)
        if weight < 0:
            return True

        if self._get_char_count(node, ",") < 10:
            p = tag_counts.get("p", 0)
            img = tag_counts.get("img", 0)
            li = tag_counts.get("li", 0) - 100
            input_count = tag_counts.get("input", 0)
            heading_density = self._get_text_density(
                node, ["h1", "h2", "h3", "h4", "h5", "h6"]
            )

            embed_count = 0
            for embed in embeds:
                for value in embed.attrs.values():
                    if self._allowed_video_regex.search(value):
                        return False
                if embed.tag == "object" and self._allowed_video_regex.search(
                    embed.inner_html
                ):
                    return False
                embed_count += 1

            inner_text = get_inner_text(node)
            if R.AD_WORDS.search(inner_text) or R.LOADING_WORDS.search(inner_text):
                return True

            content_length = len(inner_text)
            link_density = get_link_density(node)
            textish_tags = ["span", "li", "td"] + list(R.DIV_TO_P_ELEMS)
            text_density = self._get_text_density(node, textish_tags)
            is_figure_child = self._has_ancestor_tag(node, "figure")

            def should_remove_node() -> bool:
                errs = 0
                if not is_figure_child and img > 1 and p / img < 0.5:
                    errs += 1
                if not is_list and li > p:
                    errs += 1
                if input_count > p // 3:
                    errs += 1
                if (
                    not is_list
                    and not is_figure_child
                    and heading_density < 0.9
                    and content_length < 25
                    and (img == 0 or img > 2)
                    and link_density > 0
                ):
                    errs += 1
                if not is_list and weight < 25 and link_density > 0.2 + self.opts.link_density_modifier:
                    errs += 1
                if weight >= 25 and link_density > 0.5 + self.opts.link_density_modifier:
                    errs += 1
                if (embed_count == 1 and content_length < 75) or embed_count > 1:
                    errs += 1
                if img == 0 and text_density == 0:
                    errs += 1
                return errs > 0

            have_to_remove = should_remove_node()

            if is_list and have_to_remove:
                for child in node.children:
                    if len(child.children) > 1:
                        return have_to_remove
                li_count = len(node.get_elements_by_tag_name("li"))
                if img == li_count:
                    return False
            return have_to_remove
        return False

    # ==================================================== Phase H: postproc
    def _post_process_content(self, article_content: Element, base_uri: str, document_uri: str) -> None:
        self._fix_relative_uris(article_content, base_uri, document_uri)
        self._simplify_nested_elements(article_content)
        if not self.opts.keep_classes:
            self._clean_classes(article_content)

    def _fix_relative_uris(self, article_content: Element, base_uri: str, document_uri: str) -> None:
        def to_absolute_uri(uri: str) -> str:
            if base_uri == document_uri and uri.startswith("#"):
                return uri
            return resolve_url(uri, base_uri)

        for link in list(article_content.get_elements_by_tag_name("a")):
            href = link.get_attribute("href")
            if not href:
                continue
            if href.startswith("javascript:"):
                if len(link.child_nodes) == 1 and isinstance(link.child_nodes[0], TextNode):
                    text = TextNode(link.text_content)
                    assert link.parent is not None
                    link.parent.replace_child(text, link)
                else:
                    container = Element("span")
                    while link.first_child is not None:
                        container.append_child(link.first_child)
                    assert link.parent is not None
                    link.parent.replace_child(container, link)
            else:
                link.set_attribute("href", to_absolute_uri(href))

        for media in article_content.get_all_nodes_with_tag(
            ["img", "picture", "figure", "video", "audio", "source"]
        ):
            src = media.get_attribute("src")
            poster = media.get_attribute("poster")
            srcset = media.get_attribute("srcset")
            if src:
                media.set_attribute("src", to_absolute_uri(src))
            if poster:
                media.set_attribute("poster", to_absolute_uri(poster))
            if srcset:
                new_srcset = R.SRCSET_URL.sub(
                    lambda m: to_absolute_uri(m.group(1)) + (m.group(2) or "") + m.group(3),
                    srcset,
                )
                media.set_attribute("srcset", new_srcset)

    def _simplify_nested_elements(self, article_content: Element) -> None:
        node: Element | None = article_content
        while node is not None:
            if (
                node.parent is not None
                and node.tag in ("div", "section")
                and not node.id.startswith("readability")
            ):
                if self._is_element_without_content(node):
                    node = self._remove_and_get_next(node)
                    continue
                if self._has_single_tag_inside_element(
                    node, "div"
                ) or self._has_single_tag_inside_element(node, "section"):
                    child = node.children[0]
                    # upstream setAttributeNode REPLACES: parent attr wins
                    # (Readability.js _simplifyNestedElements)
                    for k, v in node.attrs.items():
                        child.attrs[k] = v
                    assert node.parent is not None
                    node.parent.replace_child(child, node)
                    node = child
                    continue
            node = self._get_next_node(node)

    def _clean_classes(self, root: Element) -> None:
        preserve = set(R.CLASSES_TO_PRESERVE) | set(self.opts.classes_to_preserve)
        stack = [root]
        while stack:
            node = stack.pop()
            class_name = " ".join(
                cls for cls in (node.class_name or "").split() if cls in preserve
            )
            if class_name:
                node.class_name = class_name
            else:
                node.remove_attribute("class")
            stack.extend(node.children)

    # ================================================================= parse
    def parse(self, html: str, url: str = "about:blank",
              serializer=None) -> dict | None:
        """Run the full extraction pipeline over one HTML document string.

        Returns a flat result dict (SURVEY.md §1.1 output table) or None when
        no article could be extracted.  Raises MaxElemsExceeded if the
        document exceeds ``max_elems_to_parse``.

        ``serializer`` is the reference's closure overload
        (``parse(serializer:)``, Readability.swift:177-194): a callable
        ``(Element) -> str`` applied to the article element for the
        ``content`` field, overriding the named ``options.serializer`` mode.
        Process-local API — distributed stages use the named modes, which
        broadcast as frozen config.
        """
        t0 = _now()
        doc = parse(html, url)
        self._tick("parseDocument", t0)
        return self.parse_document(doc, url, serializer=serializer)

    def parse_document(self, doc: Document, url: str = "about:blank",
                       serializer=None) -> dict | None:
        """Live-document pipeline (reference entry point 2, SURVEY.md §3.2 /
        Readability.swift:81-85): operates DESTRUCTIVELY on the caller's
        Document — no reparse; the tree is mutated in place exactly as the
        string pipeline would mutate its own parse.  Not used across workers
        (a DOM is not Arrow-serializable); exists for API parity and for
        callers that already hold a parsed Document.
        """
        self.doc = doc

        if self.opts.max_elems_to_parse > 0:
            num_tags = sum(1 for _ in doc.iter_elements())
            if num_tags > self.opts.max_elems_to_parse:
                raise MaxElemsExceeded(f"{num_tags} elements found")

        # readerable heuristic (non-destructive; computed before any mutation)
        t0 = _now()
        readerable = is_probably_readerable(
            doc,
            min_content_length=self.opts.readerable_min_content_length,
            min_score=self.opts.readerable_min_score,
        )
        self._tick("readerable", t0)

        # base URI from <base href>, resolved against the document URI
        base_uri = url
        for base in doc.get_elements_by_tag_name("base"):
            href = base.get_attribute("href")
            if href:
                base_uri = resolve_url(href, url)
                break

        t0 = _now()
        self._unwrap_noscript_images(doc)
        jsonld = {} if self.opts.disable_jsonld else M.get_jsonld(doc)
        self._remove_scripts(doc)
        self._remove_comments(doc)
        self._prep_document(doc)
        self._tick("preprocess", t0)

        t0 = _now()
        metadata = M.get_article_metadata(doc, jsonld)
        self._tick("metadata", t0)
        self._metadata = metadata
        self._article_title = metadata.get("title")

        t0 = _now()
        article_content = self._grab_article(doc)
        self._tick("grab", t0)
        if article_content is None:
            return None

        t0 = _now()
        self._post_process_content(article_content, base_uri, url)
        self._tick("postprocess", t0)

        if not metadata.get("excerpt"):
            paragraphs = article_content.get_elements_by_tag_name("p")
            if paragraphs:
                metadata["excerpt"] = paragraphs[0].text_content.strip()

        t0 = _now()
        text_content = article_content.text_content
        if serializer is not None:
            # closure overload (Readability.swift:177-194 parse(serializer:))
            result_content = serializer(article_content)
        else:
            # NOTE on the reference's normalizeBooleanAttributes
            # (Readability.swift:501-666): SwiftSoup canonicalizes boolean
            # attributes (controls="controls" parses to a valueless
            # BooleanAttribute), so the reference must reconstruct the
            # literal form from source regexes before XML emission.  Our
            # DOM stores attribute values verbatim — literal and bare forms
            # both round-trip byte-faithfully through every serializer mode
            # by construction (pinned by
            # test_xml_boolean_attr_forms_round_trip) — so that mechanism
            # has no work to do here.
            result_content = (
                article_content.inner_html
                if self.opts.serializer == "html"
                else article_content.inner_xml()
                if self.opts.serializer == "xml"
                else text_content
            )
        self._tick("serialize", t0)
        return {
            "title": self._article_title,
            "byline": metadata.get("byline") or self._article_byline,
            "dir": self._article_dir,
            "lang": self._article_lang,
            "content": result_content,
            "article_element": article_content,
            "textContent": text_content,
            "length": len(text_content),
            "excerpt": metadata.get("excerpt"),
            "siteName": metadata.get("siteName"),
            "publishedTime": metadata.get("publishedTime"),
            "readerable": readerable,
        }


def extract(html: str, url: str = "about:blank", options: ExtractOptions | None = None) -> dict | None:
    """Convenience one-shot extraction (fresh Extractor per document)."""
    return Extractor(options).parse(html, url)


def extract_document(
    doc: Document, url: str = "about:blank", options: ExtractOptions | None = None
) -> dict | None:
    """One-shot live-document extraction — mutates the caller's ``doc``
    (reference: Readability(document:), Readability.swift:81-85)."""
    return Extractor(options).parse_document(doc, url)

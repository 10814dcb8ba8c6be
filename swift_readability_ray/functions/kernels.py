"""Reusable scalar kernels (SURVEY.md §2.8).

Pure functions over strings / DOM nodes; unit-tested table-driven. Semantics
follow Mozilla Readability.js v0.6.0 (behavior reference:
/root/reference/tmp-readability/Readability.js, and the reference port's
ProcessorBase.swift:49-56 / ArticleGrabber.swift:667-703).
"""

from __future__ import annotations

from urllib.parse import urljoin, urlparse

from .. import regexps as R
from ..dom import Element


def get_inner_text(el: Element, normalize_spaces: bool = True) -> str:
    """textContent trimmed; optionally collapse 2+ whitespace to one space.

    The normalized form is cached on the element, keyed on its cache version
    like text_content — link-density scoring recomputes it over unmutated
    subtrees constantly.
    """
    if normalize_spaces:
        try:
            if el._it_ver == el._ver:
                return el._it_val
        except AttributeError:
            pass
        val = R.NORMALIZE.sub(" ", el.text_content.strip())
        el._it_ver = el._ver
        el._it_val = val
        return val
    return el.text_content.strip()


def text_similarity(text_a: str, text_b: str) -> float:
    """1 - (length of B-tokens unique to B / length of all B tokens).

    Token split on non-word runs, lowercased (Readability.js _textSimilarity).
    """
    tokens_a = [t for t in R.TOKENIZE.split(text_a.lower()) if t]
    tokens_b = [t for t in R.TOKENIZE.split(text_b.lower()) if t]
    if not tokens_a or not tokens_b:
        return 0.0
    set_a = set(tokens_a)
    uniq_b = [t for t in tokens_b if t not in set_a]
    distance_b = len(" ".join(uniq_b)) / len(" ".join(tokens_b))
    return 1.0 - distance_b


def unescape_html_entities(s: str | None) -> str | None:
    """Named (quot/amp/apos/lt/gt) + numeric entities; invalid → U+FFFD."""
    if not s:
        return s

    def named(m):
        return R.HTML_ESCAPE_MAP[m.group(1)]

    def numeric(m):
        hex_part, dec_part = m.group(1), m.group(2)
        num = int(hex_part, 16) if hex_part else int(dec_part)
        if num == 0 or num > 0x10FFFF or (0xD800 <= num <= 0xDFFF):
            num = 0xFFFD
        return chr(num)

    return R.ENTITY_NUMERIC.sub(numeric, R.ENTITY_NAMED.sub(named, s))


def comma_segments(text: str) -> int:
    """Number of segments when splitting on the multi-script comma class.

    (= comma count + 1; Readability.js scores `split(commas).length`.)
    """
    return len(R.COMMAS.split(text))


def js_word_count(s: str) -> int:
    """JS `str.split(/\\s+/).length` — counts empty leading/trailing pieces."""
    import re

    return len(re.split(r"\s+", s))


def is_url(s: str) -> bool:
    """True when the string parses as an absolute URL (JS `new URL(str)`)."""
    try:
        p = urlparse(s)
    except ValueError:
        return False
    if not p.scheme:
        return False
    if p.netloc:
        return True
    return p.scheme in ("data", "mailto", "javascript", "about", "file", "tel", "urn")


_DRIVE_BAR = None  # compiled lazily


def _clean_url_input(uri: str) -> str:
    """WHATWG pre-parse: strip leading/trailing C0/space, drop \\t \\n \\r."""
    uri = uri.strip("".join(chr(c) for c in range(0x21)))
    if "\t" in uri or "\n" in uri or "\r" in uri:
        uri = uri.replace("\t", "").replace("\n", "").replace("\r", "")
    return uri


def _lower_host(netloc: str) -> str:
    """Lowercase only the host portion of an authority."""
    userinfo, sep, hostport = netloc.rpartition("@")
    return userinfo + sep + hostport.lower()


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 — preserves empty segments (urljoin collapses "//",
    which diverges from `new URL(...)`)."""
    out: list[str] = []
    while path:
        if path.startswith("../"):
            path = path[3:]
        elif path.startswith("./"):
            path = path[2:]
        elif path.startswith("/./"):
            path = "/" + path[3:]
        elif path == "/.":
            path = "/"
        elif path.startswith("/../"):
            path = "/" + path[4:]
            if out:
                out.pop()
        elif path == "/..":
            path = "/"
            if out:
                out.pop()
        elif path in (".", ".."):
            path = ""
        else:
            i = path.find("/", 1)
            seg, path = (path[:i], path[i:]) if i != -1 else (path, "")
            out.append(seg)
    return "".join(out)


def resolve_url(uri: str, base: str) -> str:
    """WHATWG-ish URL resolution (JS `new URL(uri, base).href`).

    Divergences from urllib patched (SURVEY.md §7.3 #5): input whitespace
    cleaning, "//" preserved in merged paths, lowercased scheme/host,
    origin-only URLs gain a "/" path, `file:///C|/` → `C:/`, absolute
    non-hierarchical schemes pass through untouched.
    """
    try:
        uri = _clean_url_input(uri)
        p = urlparse(uri)
        if p.scheme == "file" or (not p.scheme and uri.startswith("file:")):
            global _DRIVE_BAR
            if _DRIVE_BAR is None:
                import re as _re

                _DRIVE_BAR = _re.compile(r"^(file:///)([A-Za-z])\|(/|$)")
            return _DRIVE_BAR.sub(r"\1\2:\3", uri)
        if p.scheme and p.scheme not in ("http", "https", "ftp"):
            return uri  # data:, mailto:, javascript:, … pass through
        if p.scheme and p.netloc:
            # already absolute: normalize scheme/host case and empty path,
            # keep path?query#fragment byte-for-byte (`;params`, empty "?"/"#")
            scheme, after = uri.split(":", 1)
            assert after.startswith("//")
            after = after[2:]
            cut = len(after)
            for ch in "/?#":
                i = after.find(ch)
                if i != -1:
                    cut = min(cut, i)
            netloc, rest = after[:cut], after[cut:]
            if rest == "" or rest[0] in "?#":
                rest = "/" + rest
            return f"{scheme.lower()}://{_lower_host(netloc)}{rest}"
        bp = urlparse(base)
        if not bp.scheme or not bp.netloc:
            return urljoin(base, uri)
        if uri.startswith("//"):
            return resolve_url(bp.scheme + ":" + uri, base)
        rest = uri
        frag = query = ""
        has_frag = "#" in rest
        if has_frag:
            rest, frag = rest.split("#", 1)
        has_query = "?" in rest
        if has_query:
            rest, query = rest.split("?", 1)
        if rest == "" and not has_query:
            path, query = bp.path, bp.query
            has_query = bool(bp.query)
        elif rest.startswith("/"):
            path = _remove_dot_segments(rest)
        elif rest == "":
            path = bp.path
        else:
            bdir = bp.path[: bp.path.rfind("/") + 1] or "/"
            path = _remove_dot_segments(bdir + rest)
        out = f"{bp.scheme.lower()}://{_lower_host(bp.netloc)}{path or '/'}"
        if has_query:
            out += "?" + query
        if has_frag:
            out += "#" + frag
        return out
    except ValueError:
        return uri


def get_link_density(element: Element) -> float:
    """Σ(linkText·coeff)/textLen; coeff 0.3 for in-page `#…` hrefs.

    Cached per element, keyed on its cache version (the reference versions
    this cache the same way, ArticleGrabber.swift:173-176 /
    Helpers.swift:22-25)."""
    try:
        if element._ld_ver == element._ver:
            return element._ld_val
    except AttributeError:
        pass
    text_length = len(get_inner_text(element))
    if text_length == 0:
        val = 0.0
    else:
        link_length = 0.0
        for link in element.get_elements_by_tag_name("a"):
            href = link.get_attribute("href")
            coefficient = 0.3 if (href and R.HASH_URL.match(href)) else 1.0
            link_length += len(get_inner_text(link)) * coefficient
        val = link_length / text_length
    element._ld_ver = element._ver
    element._ld_val = val
    return val

"""Precompiled regular-expression table for the extraction algorithm.

Semantics follow Mozilla Readability.js v0.6.0 (public, Apache-2.0; vendored
read-only in the reference repo at tmp-readability/Readability.js:140-200 and
mirrored by the reference's RegExUtil — Sources/SwiftReadability/RegExUtil.swift).
Compiled once per worker process (SURVEY.md §2.3): importing this module is
the "stateful setup" of the extraction stage.
"""

from __future__ import annotations

import re

UNLIKELY_CANDIDATES = re.compile(
    r"-ad-|ai2html|banner|breadcrumbs|combx|comment|community|cover-wrap|disqus|"
    r"extra|footer|gdpr|header|legends|menu|related|remark|replies|rss|shoutbox|"
    r"sidebar|skyscraper|social|sponsor|supplemental|ad-break|agegate|pagination|"
    r"pager|popup|yom-remote",
    re.I,
)

OK_MAYBE_ITS_A_CANDIDATE = re.compile(
    r"and|article|body|column|content|main|mathjax|shadow", re.I
)

POSITIVE = re.compile(
    r"article|body|content|entry|hentry|h-entry|main|page|pagination|post|text|"
    r"blog|story",
    re.I,
)

NEGATIVE = re.compile(
    r"-ad-|hidden|^hid$| hid$| hid |^hid |banner|combx|comment|com-|contact|"
    r"footer|gdpr|masthead|media|meta|outbrain|promo|related|scroll|share|"
    r"shoutbox|sidebar|skyscraper|sponsor|shopping|tags|widget",
    re.I,
)

BYLINE = re.compile(r"byline|author|dateline|writtenby|p-author", re.I)

# runs of 2+ whitespace; spelled \s\s+ rather than \s{2,} (same matches)
# because sre scans it ~1.6x faster, and inner text of whole articles runs
# through it
NORMALIZE = re.compile(r"\s\s+")

VIDEOS = re.compile(
    r"//(www\.)?((dailymotion|youtube|youtube-nocookie|player\.vimeo|v\.qq|"
    r"bilibili|live\.bilibili)\.com|(archive|upload\.wikimedia)\.org|"
    r"player\.twitch\.tv)",
    re.I,
)

SHARE_ELEMENTS = re.compile(r"(\b|_)(share|sharedaddy)(\b|_)", re.I)

# JS /\W+/ without the unicode flag: word chars are ASCII [A-Za-z0-9_] only,
# so CJK text tokenizes to nothing — parity matters for _textSimilarity.
TOKENIZE = re.compile(r"[^A-Za-z0-9_]+")

WHITESPACE = re.compile(r"^\s*$")

HAS_CONTENT = re.compile(r"\S$")

HASH_URL = re.compile(r"^#.+")

SRCSET_URL = re.compile(r"(\S+)(\s+[\d.]+[xw])?(\s*(?:,|$))")

B64_DATA_URL = re.compile(r"^data:\s*([^\s;,]+)\s*;\s*base64\s*,", re.I)

# Commas as used in Latin, Sindhi, Chinese and various other scripts.
COMMAS = re.compile("[,،﹐︐︑⹁⸴⸲，]")

JSONLD_ARTICLE_TYPES = re.compile(
    r"^Article|AdvertiserContentArticle|NewsArticle|AnalysisNewsArticle|"
    r"AskPublicNewsArticle|BackgroundNewsArticle|OpinionNewsArticle|"
    r"ReportageNewsArticle|ReviewNewsArticle|Report|SatiricalArticle|"
    r"ScholarlyArticle|MedicalScholarlyArticle|SocialMediaPosting|BlogPosting|"
    r"LiveBlogPosting|DiscussionForumPosting|TechArticle|APIReference$"
)

AD_WORDS = re.compile(
    r"^(ad(vertising|vertisement)?|pub(licité)?|werb(ung)?|广告|Реклама|Anuncio)$",
    re.I | re.U,
)

LOADING_WORDS = re.compile(
    r"^((loading|正在加载|Загрузка|chargement|cargando)(…|\.\.\.)?)$", re.I | re.U
)

SCHEMA_DOT_ORG = re.compile(r"^https?://schema\.org/?$")

CDATA_MARKERS = re.compile(r"^\s*<!\[CDATA\[|\]\]>\s*$")

DISPLAY_NONE = re.compile(r"display\s*:\s*none", re.I)
VISIBILITY_HIDDEN = re.compile(r"visibility\s*:\s*hidden", re.I)

# metadata <meta> patterns (Readability.js _getArticleMetadata)
META_PROPERTY = re.compile(
    r"\s*(article|dc|dcterm|og|twitter)\s*:\s*"
    r"(author|creator|description|published_time|title|site_name)\s*",
    re.I,
)
META_NAME = re.compile(
    r"^\s*(?:(dc|dcterm|og|twitter|parsely|weibo:(article|webpage))\s*[-\.:]\s*)?"
    r"(author|creator|pub-date|description|title|site_name)\s*$",
    re.I,
)

TITLE_SEPARATORS = r"\|\-–—\\/>»"
TITLE_SEP_TEST = re.compile(r"\s[" + TITLE_SEPARATORS + r"]\s")
TITLE_HIERARCHICAL = re.compile(r"\s[\\/>»]\s")
TITLE_LEADING = re.compile(r"^[^" + TITLE_SEPARATORS + r"]*[" + TITLE_SEPARATORS + r"]", re.I)

IMG_EXT = re.compile(r"\.(jpg|jpeg|png|webp)", re.I)
IMG_EXT_SRCSET = re.compile(r"\.(jpg|jpeg|png|webp)\s+\d")
IMG_EXT_SRC = re.compile(r"^\s*\S+\.(jpg|jpeg|png|webp)\S*\s*$")

SENTENCE_DOT = re.compile(r"\.( |$)")

ENTITY_NAMED = re.compile(r"&(quot|amp|apos|lt|gt);")
ENTITY_NUMERIC = re.compile(r"&#(?:x([0-9a-f]+)|([0-9]+));", re.I)

UNLIKELY_ROLES = frozenset(
    ("menu", "menubar", "complementary", "navigation", "alert", "alertdialog", "dialog")
)

DEFAULT_TAGS_TO_SCORE = frozenset(
    ("section", "h2", "h3", "h4", "h5", "h6", "p", "td", "pre")
)

DIV_TO_P_ELEMS = frozenset(
    ("blockquote", "dl", "div", "img", "ol", "p", "pre", "table", "ul")
)

ALTER_TO_DIV_EXCEPTIONS = frozenset(("div", "article", "section", "p", "ol", "ul"))

PRESENTATIONAL_ATTRIBUTES = frozenset((
    "align", "background", "bgcolor", "border", "cellpadding", "cellspacing",
    "frame", "hspace", "rules", "style", "valign", "vspace",
))

DEPRECATED_SIZE_ATTRIBUTE_ELEMS = frozenset(("table", "th", "td", "hr", "pre"))

PHRASING_ELEMS = frozenset(
    (
        "abbr", "audio", "b", "bdo", "br", "button", "cite", "code", "data",
        "datalist", "dfn", "em", "embed", "i", "img", "input", "kbd", "label",
        "mark", "math", "meter", "noscript", "object", "output", "progress",
        "q", "ruby", "samp", "script", "select", "small", "span", "strong",
        "sub", "sup", "textarea", "time", "var", "wbr",
    )
)

CLASSES_TO_PRESERVE = ("page",)

HTML_ESCAPE_MAP = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

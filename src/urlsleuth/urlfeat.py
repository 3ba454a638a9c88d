"""Lexical URL decomposition and the fixed 78-feature vector.

Everything here is computed from the URL string alone: no DNS, no fetches,
no public-suffix data.  ``parse_url`` is the one decomposition: features
are computed from the URL text and the host, path, query and their parts
that ``parse_url`` returns.  The feature roster is frozen per catalog
version so that feature matrices stay comparable across runs;
``catalog()`` returns the active version and ``catalog_manifest()`` its
machine-readable form.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

CATALOG_VERSION = "lex78-v1"

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+\-.]*)://")
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
_DIGIT_RUN_RE = re.compile(r"[0-9]+")
_LETTER_RUN_RE = re.compile(r"[A-Za-z]+")
_ENCODED_RE = re.compile(r"%[0-9A-Fa-f]{2}")

_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)
_UPPER = frozenset(string.ascii_uppercase)
_VOWELS = frozenset("aeiouAEIOU")

# One count feature per character, in this order.
SPECIAL_CHAR_FEATURES: tuple[tuple[str, str], ...] = (
    (";", "count_semicolon"),
    ("_", "count_underscore"),
    ("?", "count_question"),
    ("=", "count_equals"),
    ("&", "count_ampersand"),
    ("#", "count_hash"),
    ("@", "count_at"),
    ("$", "count_dollar"),
    ("!", "count_exclamation"),
    ("+", "count_plus"),
    ("%", "count_percent"),
    ("~", "count_tilde"),
    (",", "count_comma"),
    ("*", "count_asterisk"),
    ("'", "count_single_quote"),
    ('"', "count_double_quote"),
    ("(", "count_open_paren"),
    (")", "count_close_paren"),
    ("[", "count_open_bracket"),
    ("]", "count_close_bracket"),
    ("-", "count_hyphen"),
    (".", "count_dot"),
    ("/", "count_slash"),
    (":", "count_colon"),
)


@dataclass(frozen=True)
class UrlParts:
    """Best-effort lexical decomposition of a URL string."""

    scheme: str | None
    host: str
    port: int | None
    path: str
    path_segments: tuple[str, ...]
    query: str | None  # None when the URL has no '?'
    query_pairs: tuple[tuple[str, str], ...]
    fragment: str | None
    tld: str | None
    is_ip_host: bool


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    category: str  # one of: length, count, ratio, boolean, entropy, token
    description: str


@dataclass(frozen=True)
class FeatureCatalog:
    version: str
    entries: tuple[CatalogEntry, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _is_dotted_quad(host: str) -> bool:
    parts = host.split(".")
    if len(parts) != 4:
        return False
    for p in parts:
        if not (p.isascii() and p.isdigit() and len(p) <= 3):
            return False
        if int(p) > 255:
            return False
    return True


def _host_tld(host: str) -> tuple[bool, str | None]:
    """(is the host a dotted-quad IP, its last label as TLD or None).

    The TLD needs two or more labels and a non-IP host; no public-suffix
    list is consulted.
    """
    if _is_dotted_quad(host):
        return True, None
    labels = host.split(".")
    if len(labels) >= 2 and labels[-1]:
        return False, labels[-1]
    return False, None


def _split(url: str) -> tuple[str | None, str, int | None, str, str | None, str | None]:
    """Split a URL into (scheme, host, port, path, query, fragment).

    ``query`` and ``fragment`` are None when their separator is absent.

    Total: pathological inputs still come back as parts.  An input with no
    scheme that starts with '/', '?' or '#' is treated as host-only.
    """
    scheme = None
    rest = url
    m = _SCHEME_RE.match(url)
    if m:
        scheme = m.group(1).lower()
        rest = url[m.end():]
    elif url[:1] in ("/", "?", "#"):
        return None, url, None, "", None, None

    cut = len(rest)
    for ch in "/?#":
        pos = rest.find(ch)
        if pos != -1 and pos < cut:
            cut = pos
    netloc, tail = rest[:cut], rest[cut:]

    fragment: str | None = None
    if "#" in tail:
        tail, fragment = tail.split("#", 1)
    query: str | None = None
    if "?" in tail:
        tail, query = tail.split("?", 1)
    path = tail

    host_port = netloc.rsplit("@", 1)[-1]
    port: int | None = None
    host = host_port
    if ":" in host_port:
        maybe_host, maybe_port = host_port.rsplit(":", 1)
        if maybe_port.isascii() and maybe_port.isdigit():
            host, port = maybe_host, int(maybe_port)
    return scheme, host, port, path, query, fragment


def parse_url(url: str) -> UrlParts:
    """Lexically decompose ``url``; never raises.

    Scheme-less inputs (``google.com``) parse with an absent scheme; the
    TLD and IP-host flag come from ``_host_tld``.
    """
    scheme, host, port, path, query, fragment = _split(url)
    segments = tuple(s for s in path.split("/") if s)
    pairs: list[tuple[str, str]] = []
    for part in (query or "").split("&"):
        if not part:
            continue
        if "=" in part:
            k, v = part.split("=", 1)
            pairs.append((k, v))
        else:
            pairs.append((part, ""))
    is_ip, tld = _host_tld(host)
    return UrlParts(
        scheme=scheme,
        host=host,
        port=port,
        path=path,
        path_segments=segments,
        query=query,
        query_pairs=tuple(pairs),
        fragment=fragment,
        tld=tld,
        is_ip_host=is_ip,
    )


def entropy(text: str) -> float:
    """Shannon entropy (base 2) of the character frequency distribution."""
    if not text:
        return 0.0
    return _entropy_from_counts(Counter(text).values(), len(text))


def _entropy_from_counts(counts, total: int) -> float:
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return h


def _feature_dict(url: str) -> dict[str, float]:
    parts = parse_url(url)
    scheme, host, path, segments = parts.scheme, parts.host, parts.path, parts.path_segments
    query = parts.query or ""
    n = len(url)
    counter = Counter(url)

    digits = letters = upper = vowels = 0
    for ch, c in counter.items():
        if ch in _DIGITS:
            digits += c
        elif ch in _LETTERS:
            letters += c
            if ch in _UPPER:
                upper += c
            if ch in _VOWELS:
                vowels += c
    specials = n - digits - letters

    tokens = _TOKEN_RE.findall(url)
    digit_runs = _DIGIT_RUN_RE.findall(url)
    letter_runs = _LETTER_RUN_RE.findall(url)

    host_labels = [l for l in host.split(".") if l]

    after_scheme = url[len(scheme) + 3:] if scheme else url

    f: dict[str, float] = {}
    # lengths
    f["url_length"] = n
    f["host_length"] = len(host)
    f["path_length"] = len(path)
    f["query_length"] = len(query)
    f["fragment_length"] = len(parts.fragment) if parts.fragment is not None else 0
    f["tld_length"] = len(parts.tld or "")
    f["scheme_length"] = len(scheme) if scheme is not None else 0
    f["longest_path_segment_length"] = max((len(s) for s in segments), default=0)
    f["longest_token_length"] = max((len(t) for t in tokens), default=0)
    f["longest_host_label_length"] = max((len(l) for l in host_labels), default=0)
    f["longest_digit_run_length"] = max((len(r) for r in digit_runs), default=0)
    f["longest_letter_run_length"] = max((len(r) for r in letter_runs), default=0)
    # counts: one per special character
    for ch, name in SPECIAL_CHAR_FEATURES:
        f[name] = counter.get(ch, 0)
    # counts: character classes
    f["digit_count"] = digits
    f["letter_count"] = letters
    f["special_char_count"] = specials
    f["vowel_count"] = vowels
    f["uppercase_count"] = upper
    f["host_digit_count"] = sum(1 for ch in host if ch in _DIGITS)
    f["host_letter_count"] = sum(1 for ch in host if ch in _LETTERS)
    f["host_hyphen_count"] = host.count("-")
    f["host_dot_count"] = host.count(".")
    f["path_digit_count"] = sum(1 for ch in path if ch in _DIGITS)
    f["query_digit_count"] = sum(1 for ch in query if ch in _DIGITS)
    # counts: structure
    f["host_label_count"] = len(host_labels)
    f["path_segment_count"] = len(segments)
    f["query_param_count"] = len(parts.query_pairs)
    f["encoded_char_count"] = len(_ENCODED_RE.findall(url))
    # ratios
    f["digit_ratio"] = digits / n if n else 0.0
    f["letter_ratio"] = letters / n if n else 0.0
    f["special_ratio"] = specials / n if n else 0.0
    f["vowel_letter_ratio"] = vowels / letters if letters else 0.0
    f["uppercase_letter_ratio"] = upper / letters if letters else 0.0
    f["host_url_length_ratio"] = len(host) / n if n else 0.0
    # booleans
    f["has_scheme"] = 1.0 if scheme is not None else 0.0
    f["is_https"] = 1.0 if scheme == "https" else 0.0
    f["is_ip_host"] = 1.0 if parts.is_ip_host else 0.0
    f["has_port"] = 1.0 if parts.port is not None else 0.0
    f["has_at_symbol"] = 1.0 if "@" in url else 0.0
    f["has_double_slash"] = 1.0 if "//" in after_scheme else 0.0
    f["has_punycode_label"] = 1.0 if any(l.lower().startswith("xn--") for l in host_labels) else 0.0
    f["is_short_host"] = 1.0 if 0 < len(host) <= 7 else 0.0
    f["has_query"] = 1.0 if parts.query is not None else 0.0
    f["has_fragment"] = 1.0 if parts.fragment is not None else 0.0
    # entropies
    f["url_entropy"] = _entropy_from_counts(counter.values(), n) if n else 0.0
    f["host_entropy"] = entropy(host)
    f["path_entropy"] = entropy(path)
    f["query_entropy"] = entropy(query)
    # token statistics
    f["token_count"] = len(tokens)
    f["mean_token_length"] = sum(len(t) for t in tokens) / len(tokens) if tokens else 0.0
    f["host_token_count"] = len(_TOKEN_RE.findall(host))
    f["path_token_count"] = len(_TOKEN_RE.findall(path))
    f["query_token_count"] = len(_TOKEN_RE.findall(query))
    f["mean_path_segment_length"] = (
        sum(len(s) for s in segments) / len(segments) if segments else 0.0
    )
    f["mean_host_label_length"] = (
        sum(len(l) for l in host_labels) / len(host_labels) if host_labels else 0.0
    )
    return f


def _build_catalog() -> FeatureCatalog:
    entries: list[CatalogEntry] = [
        CatalogEntry("url_length", "length", "characters in the full URL"),
        CatalogEntry("host_length", "length", "characters in the host"),
        CatalogEntry("path_length", "length", "characters in the path part"),
        CatalogEntry("query_length", "length", "characters in the query string"),
        CatalogEntry("fragment_length", "length", "characters in the fragment, 0 when absent"),
        CatalogEntry("tld_length", "length", "characters in the last dot-separated host label"),
        CatalogEntry("scheme_length", "length", "characters in the scheme, 0 when absent"),
        CatalogEntry("longest_path_segment_length", "length", "length of the longest path segment"),
        CatalogEntry("longest_token_length", "length", "length of the longest alphanumeric token"),
        CatalogEntry("longest_host_label_length", "length", "length of the longest host label"),
        CatalogEntry("longest_digit_run_length", "length", "longest run of consecutive digits"),
        CatalogEntry("longest_letter_run_length", "length", "longest run of consecutive letters"),
    ]
    for ch, name in SPECIAL_CHAR_FEATURES:
        entries.append(CatalogEntry(name, "count", f"occurrences of {ch!r} in the URL"))
    entries += [
        CatalogEntry("digit_count", "count", "ASCII digits in the URL"),
        CatalogEntry("letter_count", "count", "ASCII letters in the URL"),
        CatalogEntry("special_char_count", "count", "characters that are not ASCII letters or digits"),
        CatalogEntry("vowel_count", "count", "vowels (aeiou, either case) in the URL"),
        CatalogEntry("uppercase_count", "count", "uppercase ASCII letters in the URL"),
        CatalogEntry("host_digit_count", "count", "ASCII digits in the host"),
        CatalogEntry("host_letter_count", "count", "ASCII letters in the host"),
        CatalogEntry("host_hyphen_count", "count", "hyphens in the host"),
        CatalogEntry("host_dot_count", "count", "dots in the host"),
        CatalogEntry("path_digit_count", "count", "ASCII digits in the path"),
        CatalogEntry("query_digit_count", "count", "ASCII digits in the query string"),
        CatalogEntry("host_label_count", "count", "non-empty dot-separated host labels"),
        CatalogEntry("path_segment_count", "count", "non-empty path segments"),
        CatalogEntry("query_param_count", "count", "'&'-separated query parameters"),
        CatalogEntry("encoded_char_count", "count", "percent-encoded byte escapes (%XX)"),
        CatalogEntry("digit_ratio", "ratio", "digit_count / url_length"),
        CatalogEntry("letter_ratio", "ratio", "letter_count / url_length"),
        CatalogEntry("special_ratio", "ratio", "special_char_count / url_length"),
        CatalogEntry("vowel_letter_ratio", "ratio", "vowel_count / letter_count, 0 when no letters"),
        CatalogEntry("uppercase_letter_ratio", "ratio", "uppercase_count / letter_count, 0 when no letters"),
        CatalogEntry("host_url_length_ratio", "ratio", "host_length / url_length"),
        CatalogEntry("has_scheme", "boolean", "URL carries an explicit scheme"),
        CatalogEntry("is_https", "boolean", "scheme is https"),
        CatalogEntry("is_ip_host", "boolean", "host is a dotted-quad IPv4 literal"),
        CatalogEntry("has_port", "boolean", "host carries an explicit numeric port"),
        CatalogEntry("has_at_symbol", "boolean", "URL contains '@'"),
        CatalogEntry("has_double_slash", "boolean", "'//' occurs beyond the scheme separator"),
        CatalogEntry("has_punycode_label", "boolean", "some host label starts with 'xn--'"),
        CatalogEntry("is_short_host", "boolean", "host is 7 characters or fewer (shortener heuristic)"),
        CatalogEntry("has_query", "boolean", "URL has a '?' query part, possibly empty"),
        CatalogEntry("has_fragment", "boolean", "URL has a '#' fragment part, possibly empty"),
        CatalogEntry("url_entropy", "entropy", "character entropy of the full URL, bits"),
        CatalogEntry("host_entropy", "entropy", "character entropy of the host, bits"),
        CatalogEntry("path_entropy", "entropy", "character entropy of the path, bits"),
        CatalogEntry("query_entropy", "entropy", "character entropy of the query string, bits"),
        CatalogEntry("token_count", "token", "alphanumeric tokens in the URL"),
        CatalogEntry("mean_token_length", "token", "mean alphanumeric token length"),
        CatalogEntry("host_token_count", "token", "alphanumeric tokens in the host"),
        CatalogEntry("path_token_count", "token", "alphanumeric tokens in the path"),
        CatalogEntry("query_token_count", "token", "alphanumeric tokens in the query string"),
        CatalogEntry("mean_path_segment_length", "token", "mean path segment length"),
        CatalogEntry("mean_host_label_length", "token", "mean host label length"),
    ]
    cat = FeatureCatalog(version=CATALOG_VERSION, entries=tuple(entries))
    assert len(cat.entries) == 78, f"catalog has {len(cat.entries)} entries, expected 78"
    assert len(set(cat.names)) == 78, "catalog names must be unique"
    return cat


_CATALOG = _build_catalog()
_NAMES = _CATALOG.names


def catalog() -> FeatureCatalog:
    """The active, frozen feature catalog."""
    return _CATALOG


def catalog_manifest() -> dict:
    """Machine-readable form of the active catalog."""
    return {
        "version": _CATALOG.version,
        "entries": [
            {"name": e.name, "category": e.category, "description": e.description}
            for e in _CATALOG.entries
        ],
    }


def extract_matrix(urls) -> np.ndarray:
    """Feature matrix (one row per URL) in catalog order."""
    rows = np.empty((len(urls), len(_NAMES)), dtype=np.float64)
    for i, url in enumerate(urls):
        d = _feature_dict(url)
        rows[i] = [d[name] for name in _NAMES]
    return rows

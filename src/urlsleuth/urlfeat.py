"""Lexical URL decomposition and the fixed 78-feature vector.

Everything here is computed from the URL string alone: no DNS, no fetches,
no public-suffix data.  ``_split`` is the one decomposition: it places a
URL's scheme, host, port, path, query, fragment and TLD by offset, and
both feature extractors, the blocked pass and the per-URL
``_feature_dict``, read the parts from those offsets.  The feature roster
is frozen per catalog version so that feature matrices stay comparable
across runs; ``catalog()`` returns the active version.

``extract_matrix`` works through blocks of whole URLs, about 8k
characters each (the block size of the character LM's scorer), so that
beside the matrix only one block's working set is alive.  In a block
``_split`` runs once per URL, and everything else is array passes:

* each block is decoded once to code points;
* a class table (one class per counted special character, then digits,
  four kinds of ASCII letter and everything else) and one ``bincount``
  over (URL, region, class) give every count, and with the per-URL
  offsets every length, ratio and flag;
* label changes along four rows of run kinds give the tokens, digit and
  letter runs, '/' runs, host labels, path segments and query parameters,
  each as a count and a maximum;
* per-(segment, character) counts and first positions give the four
  entropies, each term ``math.log2``'s, added in first-occurrence order
  as the scalar loop adds them.

The number of array operations per block does not grow with the number
of URLs or of features, but it is a fixed cost of about 60 operations:
a lone URL of at most ``_SCALAR_MAX_LENGTH`` characters, as a one-URL
``predict`` call sends, is faster through ``_feature_dict``, the per-URL
loop over the same parts.  That loop is also the reference: the blocked
pass must match it bit for bit.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .charlm import _blocks

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


def _split(url: str) -> tuple[str, int, int, int, int, int, int, int, int, bool]:
    """Where the parts of ``url`` lie: ``(scheme, scheme_end, host_lo,
    host_hi, path_lo, path_hi, query_lo, query_hi, tld_lo, is_ip)``.

    ``scheme`` is lowercased, "" when absent; ``scheme_end`` is the offset
    past its "://", 0 when absent.  The host is
    ``url[host_lo:host_hi]``; a numeric port follows it, after ':', when
    ``host_hi < path_lo``.  The path is ``url[path_lo:path_hi]``.  The query
    is ``url[query_lo:query_hi]`` and present (after '?') when
    ``query_lo > path_hi``; absent, both equal ``path_hi``.  A fragment
    follows '#' at ``query_hi`` when ``query_hi < len(url)``.  ``is_ip``
    tells whether the host is a dotted-quad IP; when it is not and has two
    or more dot-separated labels, the last, ``url[tld_lo:host_hi]``, is its
    TLD (empty when absent).

    Total: pathological inputs still come back as parts.  An input with no
    scheme that starts with '/', '?' or '#' is treated as host-only.
    """
    end = len(url)
    m = _SCHEME_RE.match(url)
    scheme, start = (m.group(1).lower(), m.end()) if m else ("", 0)
    if not m and url[:1] in ("/", "?", "#"):
        host_lo, host_hi = 0, end
        path_lo = path_hi = query_lo = query_hi = end
    else:
        path_lo = end  # the netloc ends at the first '/', '?' or '#'
        for ch in "/?#":
            pos = url.find(ch, start, path_lo)
            if pos != -1:
                path_lo = pos
        query_hi = url.find("#", path_lo)
        if query_hi == -1:
            query_hi = end
        mark = url.find("?", path_lo, query_hi)
        path_hi, query_lo = (mark, mark + 1) if mark != -1 else (query_hi, query_hi)
        host_lo = url.rfind("@", start, path_lo) + 1 or start
        host_hi = path_lo
        colon = url.rfind(":", host_lo, path_lo)
        if colon != -1:
            port = url[colon + 1 : path_lo]
            if port.isascii() and port.isdigit():
                host_hi = colon
    # A dotted quad has 7 to 15 characters and ends in a digit.
    is_ip = (
        7 <= host_hi - host_lo <= 15
        and url[host_hi - 1] in _DIGITS
        and _is_dotted_quad(url[host_lo:host_hi])
    )
    tld_lo = host_hi if is_ip else url.rfind(".", host_lo, host_hi) + 1 or host_hi
    return scheme, start, host_lo, host_hi, path_lo, path_hi, query_lo, query_hi, tld_lo, is_ip


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
    """The 78 features of one URL by name, one Python pass per feature
    family: the per-URL path of ``extract_matrix`` and the reference the
    blocked path must match bit for bit."""
    scheme, scheme_end, host_lo, host_hi, path_lo, path_hi, query_lo, query_hi, tld_lo, is_ip = (
        _split(url)
    )
    host = url[host_lo:host_hi]
    path = url[path_lo:path_hi]
    query = url[query_lo:query_hi]  # "" when absent
    segments = [s for s in path.split("/") if s]
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

    f: dict[str, float] = {}
    # lengths
    f["url_length"] = n
    f["host_length"] = len(host)
    f["path_length"] = len(path)
    f["query_length"] = len(query)
    f["fragment_length"] = n - query_hi - 1 if query_hi < n else 0
    f["tld_length"] = host_hi - tld_lo
    f["scheme_length"] = len(scheme)
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
    f["query_param_count"] = sum(1 for piece in query.split("&") if piece)
    f["encoded_char_count"] = len(_ENCODED_RE.findall(url))
    # ratios
    f["digit_ratio"] = digits / n if n else 0.0
    f["letter_ratio"] = letters / n if n else 0.0
    f["special_ratio"] = specials / n if n else 0.0
    f["vowel_letter_ratio"] = vowels / letters if letters else 0.0
    f["uppercase_letter_ratio"] = upper / letters if letters else 0.0
    f["host_url_length_ratio"] = len(host) / n if n else 0.0
    # booleans
    f["has_scheme"] = 1.0 if scheme_end > 0 else 0.0
    f["is_https"] = 1.0 if scheme == "https" else 0.0
    f["is_ip_host"] = 1.0 if is_ip else 0.0
    f["has_port"] = 1.0 if host_hi < path_lo else 0.0
    f["has_at_symbol"] = 1.0 if "@" in url else 0.0
    f["has_double_slash"] = 1.0 if "//" in url[scheme_end:] else 0.0
    f["has_punycode_label"] = 1.0 if any(l.lower().startswith("xn--") for l in host_labels) else 0.0
    f["is_short_host"] = 1.0 if 0 < len(host) <= 7 else 0.0
    f["has_query"] = 1.0 if query_lo > path_hi else 0.0
    f["has_fragment"] = 1.0 if query_hi < n else 0.0
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


# ---------------------------------------------------------------- extraction
#
# Character classes: one per counted special character, in
# SPECIAL_CHAR_FEATURES order, then every other character (non-ASCII ones
# included), digits, and the four kinds of ASCII letter.
_SPECIAL_CLASS = {ch: i for i, (ch, _) in enumerate(SPECIAL_CHAR_FEATURES)}
_OTHER = len(SPECIAL_CHAR_FEATURES)
_DIGIT, _UPPER_CONSONANT, _UPPER_VOWEL, _LOWER_VOWEL, _LOWER_CONSONANT = range(_OTHER + 1, _OTHER + 6)
_N_CLASSES = _OTHER + 6
_LETTER_CLASSES = (_UPPER_CONSONANT, _UPPER_VOWEL, _LOWER_VOWEL, _LOWER_CONSONANT)
_VOWEL_CLASSES = (_UPPER_VOWEL, _LOWER_VOWEL)
# Consonant, then vowel: indexed by whether a letter is a vowel.
_UPPER_CLASSES = (_UPPER_CONSONANT, _UPPER_VOWEL)
_LOWER_CLASSES = (_LOWER_CONSONANT, _LOWER_VOWEL)


def _class_table() -> np.ndarray:
    """Class of each code point, clipped to 128 (everything past ASCII)."""
    table = np.full(129, _OTHER, np.int64)
    table[[ord(ch) for ch in string.digits]] = _DIGIT
    for ch in string.ascii_letters:
        table[ord(ch)] = (_UPPER_CLASSES if ch.isupper() else _LOWER_CLASSES)[ch in _VOWELS]
    for ch, cls in _SPECIAL_CLASS.items():
        table[ord(ch)] = cls
    return table


_CLASS = _class_table()
_IS_HEX = np.array([chr(c) in string.hexdigits for c in range(129)])

# Regions: the host, the path, the query, the scheme with its "://", and
# the rest (user info, port, separators, fragment).
_REST, _HOST, _PATH, _QUERY, _SCHEME = range(5)
_N_REGIONS = 5
_N_CELLS = _N_REGIONS * _N_CLASSES  # character counts per URL, by (region, class)
_SEPARATOR = {_HOST: ".", _PATH: "/", _QUERY: "&"}

# Run kinds, the low 4 bits of a run label (0: in no run).  Each of the
# four families is one row of the run pass, where a run is a stretch of
# equal labels; the label's higher bits are the URL's index in its block.
_KIND_BITS = 4
_N_KINDS = 1 << _KIND_BITS
_TOKEN = 1  # [A-Za-z0-9]+ anywhere in the URL
_REGION_TOKEN = 2  # 2 + region: the same within the host, path or query
_DIGIT_RUN, _LETTER_RUN = 6, 7
_PIECE = 7  # 7 + region: host labels, path segments, query parameters
_SLASH_RUN = 11  # '/'+ past the scheme's "://"


def _kinds_table() -> np.ndarray:
    """The four families' kinds of each (region, class) cell."""
    table = np.zeros((_N_REGIONS, _N_CLASSES, 4), np.int64)
    alnum = [_DIGIT, *_LETTER_CLASSES]
    table[:, alnum, 0] = _TOKEN
    table[:, _DIGIT, 2] = _DIGIT_RUN
    table[:, _LETTER_CLASSES, 2] = _LETTER_RUN
    table[:_SCHEME, _SPECIAL_CLASS["/"], 2] = _SLASH_RUN
    for region, sep in _SEPARATOR.items():
        table[region, alnum, 1] = _REGION_TOKEN + region
        table[region, :, 3] = _PIECE + region
        table[region, _SPECIAL_CLASS[sep], 3] = 0
    return table.reshape(_N_CELLS, 4).T


_KINDS = _kinds_table()
_PUNYCODE = np.array([ord("x"), ord("n"), ord("-"), ord("-")])
_CASE_BIT = np.array([0x20, 0x20, 0, 0])  # folds ASCII case on x and n only

# Rows of the per-URL table: ``_split``'s offsets and IP flag, the URL's
# length, whether its scheme is https, and zeros.
(
    _SCHEME_END, _HOST_LO, _HOST_HI, _PATH_LO, _PATH_HI, _QUERY_LO, _QUERY_HI, _TLD_LO, _IP,
    _LENGTH, _IS_HTTPS, _NONE,
) = range(12)
# Each region's start and end rows, and the step the region's number
# makes there.
_REGION_BOUNDS = np.array([_NONE, _SCHEME_END, _HOST_LO, _HOST_HI, _PATH_LO, _PATH_HI, _QUERY_LO, _QUERY_HI])
_REGION_STEPS = np.array([_SCHEME, -_SCHEME, _HOST, -_HOST, _PATH, -_PATH, _QUERY, -_QUERY])

# The integer sources of a block, one column each: character counts per
# (region, class), run counts and longest runs per kind, then per-URL values.
_RUN_COUNTS = _N_CELLS
_RUN_MAX = _RUN_COUNTS + _N_KINDS
(
    _URL_LENGTH, _HOST_LENGTH, _PATH_LENGTH, _QUERY_LENGTH, _FRAGMENT_LENGTH, _SCHEME_LENGTH,
    _TLD_LENGTH, _HAS_SCHEME, _HTTPS, _HAS_PORT, _HAS_QUERY, _HAS_FRAGMENT, _IS_IP_HOST,
    _SHORT_HOST, _ENCODED, _PUNY, _ZERO,
) = range(_RUN_MAX + _N_KINDS, _RUN_MAX + _N_KINDS + 17)
_N_SOURCES = _ZERO + 1
# The per-URL columns up to _IS_IP_HOST, from differences ``d`` of two
# rows of the per-URL table: each is ``d + w * min(d, 1)`` for w <= 0 (a
# length, less the separator before it when present: 1, or 3 for "://")
# and ``min(d, 1)`` for w = 1 (a flag).
_DIFFERENCES = np.array([
    (_LENGTH, _NONE, 0),
    (_HOST_HI, _HOST_LO, 0),
    (_PATH_HI, _PATH_LO, 0),
    (_QUERY_HI, _QUERY_LO, 0),
    (_LENGTH, _QUERY_HI, -1),
    (_SCHEME_END, _NONE, -3),
    (_HOST_HI, _TLD_LO, 0),
    (_SCHEME_END, _NONE, 1),
    (_IS_HTTPS, _NONE, 0),
    (_PATH_LO, _HOST_HI, 1),
    (_QUERY_LO, _PATH_HI, 1),
    (_LENGTH, _QUERY_HI, 1),
    (_IP, _NONE, 0),
]).T
_KEEP = (_DIFFERENCES[2] <= 0)[:, None]
_WEIGHT = _DIFFERENCES[2][:, None]

_ALL = range(_N_REGIONS)


def _cells(regions, classes) -> list[int]:
    return [r * _N_CLASSES + c for r in regions for c in classes]


def _special(ch: str, regions=_ALL) -> list[int]:
    return _cells(regions, [_SPECIAL_CLASS[ch]])


def _source_columns() -> dict[str, list[int]]:
    """The source columns each feature sums.  A ratio sums its numerator
    and is divided afterwards; ``has_at_symbol`` and ``has_double_slash``
    hold the count of '@' and the longest run of '/' until they are
    compared with their thresholds."""
    digits = _cells(_ALL, [_DIGIT])
    letters = _cells(_ALL, _LETTER_CLASSES)
    cols = {
        "url_length": [_URL_LENGTH],
        "host_length": [_HOST_LENGTH],
        "path_length": [_PATH_LENGTH],
        "query_length": [_QUERY_LENGTH],
        "fragment_length": [_FRAGMENT_LENGTH],
        "tld_length": [_TLD_LENGTH],
        "scheme_length": [_SCHEME_LENGTH],
        "longest_path_segment_length": [_RUN_MAX + _PIECE + _PATH],
        "longest_token_length": [_RUN_MAX + _TOKEN],
        "longest_host_label_length": [_RUN_MAX + _PIECE + _HOST],
        "longest_digit_run_length": [_RUN_MAX + _DIGIT_RUN],
        "longest_letter_run_length": [_RUN_MAX + _LETTER_RUN],
    }
    cols.update((name, _special(ch)) for ch, name in SPECIAL_CHAR_FEATURES)
    specials = _cells(_ALL, range(_DIGIT))
    cols.update(
        digit_count=digits,
        letter_count=letters,
        special_char_count=specials,
        vowel_count=_cells(_ALL, _VOWEL_CLASSES),
        uppercase_count=_cells(_ALL, _UPPER_CLASSES),
        host_digit_count=_cells([_HOST], [_DIGIT]),
        host_letter_count=_cells([_HOST], _LETTER_CLASSES),
        host_hyphen_count=_special("-", [_HOST]),
        host_dot_count=_special(".", [_HOST]),
        path_digit_count=_cells([_PATH], [_DIGIT]),
        query_digit_count=_cells([_QUERY], [_DIGIT]),
        host_label_count=[_RUN_COUNTS + _PIECE + _HOST],
        path_segment_count=[_RUN_COUNTS + _PIECE + _PATH],
        query_param_count=[_RUN_COUNTS + _PIECE + _QUERY],
        encoded_char_count=[_ENCODED],
        digit_ratio=digits,
        letter_ratio=letters,
        special_ratio=specials,
        vowel_letter_ratio=_cells(_ALL, _VOWEL_CLASSES),
        uppercase_letter_ratio=_cells(_ALL, _UPPER_CLASSES),
        host_url_length_ratio=[_HOST_LENGTH],
        has_scheme=[_HAS_SCHEME],
        is_https=[_HTTPS],
        has_port=[_HAS_PORT],
        has_at_symbol=_special("@"),
        has_double_slash=[_RUN_MAX + _SLASH_RUN],
        has_punycode_label=[_PUNY],
        is_short_host=[_SHORT_HOST],
        has_query=[_HAS_QUERY],
        has_fragment=[_HAS_FRAGMENT],
        is_ip_host=[_IS_IP_HOST],
        token_count=[_RUN_COUNTS + _TOKEN],
        mean_token_length=digits + letters,
        host_token_count=[_RUN_COUNTS + _REGION_TOKEN + _HOST],
        path_token_count=[_RUN_COUNTS + _REGION_TOKEN + _PATH],
        query_token_count=[_RUN_COUNTS + _REGION_TOKEN + _QUERY],
        mean_path_segment_length=[c for c in _cells([_PATH], range(_N_CLASSES)) if c not in _special("/")],
        mean_host_label_length=[c for c in _cells([_HOST], range(_N_CLASSES)) if c not in _special(".")],
    )
    return cols


def _gather_plan() -> tuple[np.ndarray, np.ndarray]:
    """Source columns of every feature in catalog order, and where each
    feature's run of them starts, for one ``np.add.reduceat``; features
    set later (the entropies) sum the zero column."""
    sources = _source_columns()
    groups = [sources.get(name, [_ZERO]) for name in _NAMES]
    return np.concatenate(groups), np.cumsum([0] + [len(g) for g in groups[:-1]])


_GATHER, _GATHER_STARTS = _gather_plan()
_COLUMN = {name: i for i, name in enumerate(_NAMES)}
# Each ratio and mean, and the feature it divides by (0 when that is 0).
_RATIOS = np.array([[_COLUMN[num], _COLUMN[den]] for num, den in (
    ("digit_ratio", "url_length"),
    ("letter_ratio", "url_length"),
    ("special_ratio", "url_length"),
    ("vowel_letter_ratio", "letter_count"),
    ("uppercase_letter_ratio", "letter_count"),
    ("host_url_length_ratio", "url_length"),
    ("mean_token_length", "token_count"),
    ("mean_path_segment_length", "path_segment_count"),
    ("mean_host_label_length", "host_label_count"),
)]).T
# Flags summed as counts (of '@', of the longest run of '/'), then
# compared with the count that sets them.
_THRESHOLD_COLUMNS = [_COLUMN["has_at_symbol"], _COLUMN["has_double_slash"]]
_THRESHOLDS = np.array([1, 2])
_ENTROPY_COLUMNS = [_COLUMN[name] for name in ("url_entropy", "host_entropy", "path_entropy", "query_entropy")]
_ENTROPY_SEGMENTS = [0, 1 + _HOST, 1 + _PATH, 1 + _QUERY]  # the URL, then each region


def _entropy_terms(keys: np.ndarray) -> np.ndarray:
    """``p * math.log2(p)`` with ``p = count / total`` for each key
    ``total << 32 | count``: the scalar loop's own expression, worked out
    once per distinct key."""
    pairs, inverse = np.unique(keys, return_inverse=True)
    terms = []
    for key in pairs.tolist():
        p = (key & 0xFFFFFFFF) / (key >> 32)
        terms.append(p * math.log2(p))
    return np.array(terms, np.float64)[inverse.reshape(-1)]


def _entropies(text: str, codes, u, region, totals: np.ndarray) -> np.ndarray:
    """Character entropy of each segment: column 0 the URL, column
    1 + region each region of it, summed as the scalar loop sums them.

    Each character counts once in its URL's segment and once in its
    region's.  ``bincount`` counts each (segment, character) and
    ``minimum.at`` finds its first position; those first positions, taken
    in order, give each segment's terms in ``Counter``'s order, and a
    second ``bincount`` adds them in that order, as the loop's
    ``h -= p * math.log2(p)`` does.
    """
    n, width = totals.shape
    if text.isascii():
        alphabet = 128
    else:
        codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
        alphabet = int(codes.max()) + 1
    seg = np.concatenate((u * width, u * width + 1 + region))
    key = seg * alphabet + np.concatenate((codes, codes))
    bins = totals.size * alphabet
    if bins > 8 * key.size + 4096:  # keep the bins about as many as the keys
        key = np.unique(key, return_inverse=True)[1].reshape(-1)
        bins = int(key.max(initial=-1)) + 1
    position = np.arange(key.size)
    first = np.full(bins, key.size)
    np.minimum.at(first, key, position)
    firsts = (first[key] == position).nonzero()[0]
    seg = seg[firsts]
    count = np.bincount(key, minlength=bins)[key[firsts]]
    terms = _entropy_terms(totals.reshape(-1)[seg] << 32 | count)
    return (0.0 - np.bincount(seg, terms, totals.size)).reshape(totals.shape)


def _extract_block(urls, out: np.ndarray) -> None:
    """Features of one block of URLs into ``out``: ``_split`` places each
    URL's parts, then a fixed number of array passes over the block's
    characters, whatever the number of URLs, gives every feature.
    """
    n = len(urls)
    schemes, *offsets = zip(*map(_split, urls))
    table = np.array(
        [*offsets, list(map(len, urls)), list(map("https".__eq__, schemes)), [0] * n], np.int64
    )
    differences = table[_DIFFERENCES[0]] - table[_DIFFERENCES[1]]
    values = differences * _KEEP + np.minimum(differences, 1) * _WEIGHT
    host_len = values[_HOST_LENGTH - _URL_LENGTH]
    # Each URL's source columns from ``_URL_LENGTH`` on, and its region bounds.
    values = np.concatenate((values, [(host_len > 0) & (host_len <= 7)])).T
    bounds = table[_REGION_BOUNDS]
    text = "".join(urls)
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.int64)
    size = codes.size
    lengths = values[:, 0]
    starts = lengths.cumsum() - lengths
    u = np.arange(n).repeat(lengths)

    # Region of every character: +region where one starts, -region where
    # it ends, summed along the block.
    marks = (bounds + starts).reshape(-1)
    region = np.bincount(marks, _REGION_STEPS.repeat(n), size + 1)[:size].cumsum().astype(np.int64)
    cell = region * _N_CLASSES + _CLASS[np.minimum(codes, 128)]
    src = np.zeros((n, _N_SOURCES), np.int64)
    src[:, :_N_CELLS] = np.bincount(u * _N_CELLS + cell, minlength=n * _N_CELLS).reshape(n, -1)

    # Runs: four rows of labels between pads that are in no run; a run
    # starts wherever a row's label changes.
    labels = np.empty((4, size + 2), np.int64)
    labels[:, 0] = labels[:, -1] = n << _KIND_BITS
    shifted = u << _KIND_BITS
    for row, kinds in zip(labels, _KINDS):
        np.add(kinds.take(cell), shifted, out=row[1:-1])
    flat = labels.reshape(-1)
    edges = (flat[1:] != flat[:-1]).nonzero()[0] + 1  # the last starts the final pad
    label = flat[edges[:-1]]
    length = edges[1:] - edges[:-1]
    src[:, _RUN_COUNTS:_RUN_MAX] = np.bincount(label, minlength=(n + 1) << _KIND_BITS)[: n << _KIND_BITS].reshape(n, -1)
    longest = np.zeros((n + 1) << _KIND_BITS, np.int64)
    np.maximum.at(longest, label, length)
    src[:, _RUN_MAX:_URL_LENGTH] = longest[: n << _KIND_BITS].reshape(n, -1)

    src[:, _URL_LENGTH:_ENCODED] = values
    if "%" in text:  # %XX escapes inside one URL
        hexes = _IS_HEX[np.minimum(codes, 128)]
        escape = (codes[:-2] == ord("%")) & hexes[1:-1] & hexes[2:] & (u[:-2] == u[2:])
        src[:, _ENCODED] = np.bincount(u[:-2], escape, n)
    # Host labels of four or more characters that start with "xn--".
    label_start = ((label & (_N_KINDS - 1)) == _PIECE + _HOST) & (length >= 4)
    at = edges[:-1][label_start] - 3 * (size + 2) - 1
    head = codes[at[:, None] + np.arange(4)]
    xn = ((head | _CASE_BIT) == _PUNYCODE).all(1)
    src[:, _PUNY] = np.bincount(label[label_start] >> _KIND_BITS, xn, n) > 0

    out[:] = np.add.reduceat(src[:, _GATHER], _GATHER_STARTS, axis=1)
    region_len = src[:, :_N_CELLS].reshape(n, _N_REGIONS, _N_CLASSES).sum(2)
    totals = np.concatenate((lengths[:, None], region_len), axis=1)
    out[:, _ENTROPY_COLUMNS] = _entropies(text, codes, u, region, totals)[:, _ENTROPY_SEGMENTS]
    out[:, _RATIOS[0]] /= np.maximum(out[:, _RATIOS[1]], 1)  # 0 over 0 stays 0
    out[:, _THRESHOLD_COLUMNS] = out[:, _THRESHOLD_COLUMNS] >= _THRESHOLDS


# One URL up to this long is extracted faster by ``_feature_dict`` than by
# the blocked pass, whose fixed cost is about 60 array operations: on a
# shared 2-vCPU VM, 62 against 129 us at 48 characters, even at 400, and
# 260 against 208 us at 800.  Two short URLs are about even, three or more
# faster through the blocks.
_SCALAR_MAX_LENGTH = 400


def extract_matrix(urls) -> np.ndarray:
    """Feature matrix (one row per URL) in catalog order.

    A lone URL of at most ``_SCALAR_MAX_LENGTH`` characters goes through
    ``_feature_dict``; everything else through ``_blocked_matrix``, one
    block of whole URLs (about 4k characters, ``charlm._BLOCK_POSITIONS``)
    at a time, so that beside the matrix only one block's working set is
    alive.  Both give the same bits, and a row's bits do not depend on
    the block it is in.
    """
    if len(urls) == 1 and len(urls[0]) <= _SCALAR_MAX_LENGTH:
        features = _feature_dict(urls[0])
        return np.array([[features[name] for name in _NAMES]], dtype=np.float64)
    return _blocked_matrix(urls)


def _blocked_matrix(urls) -> np.ndarray:
    """The feature matrix by ``_extract_block`` on blocks of whole URLs,
    about ``charlm._BLOCK_POSITIONS`` characters each."""
    out = np.empty((len(urls), len(_NAMES)), dtype=np.float64)
    lengths = np.fromiter(map(len, urls), np.int64, len(urls))
    for lo, hi in _blocks(lengths + 1):
        _extract_block(urls[lo:hi], out[lo:hi])
    return out

"""Tests for URL decomposition, entropy, and the lexical feature catalog."""

from __future__ import annotations

import hashlib
import math
import random
import string
import sys
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urlsleuth import urlfeat
from urlsleuth.synth import generate_dataset
from urlsleuth.urlfeat import (
    _SCALAR_MAX_LENGTH,
    CATALOG_VERSION,
    SPECIAL_CHAR_FEATURES,
    _blocked_matrix,
    _feature_dict,
    _split,
    catalog,
    entropy,
    extract_matrix,
)

from conftest import BLOCKED_BYTES_PER_URL, bytes_beside_result

NAMES = catalog().names
IDX = {name: i for i, name in enumerate(NAMES)}


def feat(url: str) -> dict[str, float]:
    vec = extract_matrix([url])[0]
    return dict(zip(NAMES, vec.tolist()))


def random_urls(n: int, seed: int) -> list[str]:
    """Seeded messy strings: URL-ish plus outright garbage."""
    rng = random.Random(seed)
    alphabet = string.ascii_letters + string.digits + "/:?#&=.@-_%~!$,()[]'\"*+; é中"
    out = []
    for _ in range(n):
        body = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 60)))
        prefix = rng.choice(["", "http://", "https://", "ftp://", "//", "?"])
        out.append(prefix + body)
    return out


def cut(url: str) -> dict:
    """The parts that ``_split``'s offsets delimit in ``url``, as its
    docstring defines them; ``None`` for an absent query or fragment."""
    scheme, scheme_end, host_lo, host_hi, path_lo, path_hi, query_lo, query_hi, tld_lo, is_ip = (
        _split(url)
    )
    return {
        "scheme": scheme,
        "rest": url[scheme_end:],
        "host": url[host_lo:host_hi],
        "port": url[host_hi + 1 : path_lo],
        "path": url[path_lo:path_hi],
        "query": url[query_lo:query_hi] if query_lo > path_hi else None,
        "fragment": url[query_hi + 1 :] if query_hi < len(url) else None,
        "tld": url[tld_lo:host_hi],
        "is_ip": is_ip,
    }


class TestSplit:
    def test_schemeless_bare_host(self):
        assert _split("google.com") == ("", 0, 0, 10, 10, 10, 10, 10, 7, False)
        assert cut("google.com") == {
            "scheme": "", "rest": "google.com", "host": "google.com", "port": "", "path": "",
            "query": None, "fragment": None, "tld": "com", "is_ip": False,
        }

    def test_full_url(self):
        url = "https://www.google.com/a/b/c?x=1&y=2#frag"
        assert _split(url) == ("https", 8, 8, 22, 22, 28, 29, 36, 19, False)
        assert cut(url) == {
            "scheme": "https", "rest": url[8:], "host": "www.google.com", "port": "",
            "path": "/a/b/c", "query": "x=1&y=2", "fragment": "frag", "tld": "com",
            "is_ip": False,
        }
        f = feat(url)
        assert (f["path_segment_count"], f["query_param_count"]) == (3, 2)

    def test_port_and_userinfo(self):
        p = cut("http://user:pw@site.org:8080/login")
        assert (p["host"], p["port"], p["path"]) == ("site.org", "8080", "/login")
        assert feat("http://user:pw@site.org:8080/login")["path_segment_count"] == 1

    def test_non_numeric_port_is_part_of_host(self):
        p = cut("http://site.org:notaport/x")
        assert (p["host"], p["port"]) == ("site.org:notaport", "")

    @pytest.mark.parametrize("digits", [5000, 1 << 20], ids=["5000-digits", "1MB"])
    def test_overlong_port_is_cut_off(self, digits):
        p = cut("http://a.com:" + "1" * digits + "/x")
        assert (p["host"], len(p["port"]), p["path"]) == ("a.com", digits, "/x")
        assert dict(zip(NAMES, extract_matrix(["http://a.com:" + "9" * digits])[0]))["has_port"]

    @pytest.mark.parametrize(
        "url, port",
        [("a.com:0", "0"), ("a.com:00443/", "00443"), ("a.com:65535?q", "65535"),
         ("a.com:123456#f", "123456")],
    )
    def test_port_digits_follow_the_host(self, url, port):
        p = cut(url)
        assert (p["host"], p["port"]) == ("a.com", port)

    def test_ip_host_has_no_tld(self):
        p = cut("http://192.168.10.5/admin")
        assert p["is_ip"]
        assert p["tld"] == ""

    def test_over_255_octet_is_not_ip(self):
        assert not cut("http://999.168.10.5/")["is_ip"]

    def test_scheme_lowercased(self):
        assert cut("HTTPS://EXAMPLE.COM")["scheme"] == "https"

    def test_fragment_before_query_split(self):
        # '#' wins over '?' appearing after it: the query lives in the fragment.
        p = cut("http://a.com/p#frag?notquery")
        assert p["fragment"] == "frag?notquery"
        assert p["query"] is None
        assert feat("http://a.com/p#frag?notquery")["query_param_count"] == 0

    def test_valueless_query_key(self):
        assert cut("http://a.com/?flag&x=1")["query"] == "flag&x=1"
        assert feat("http://a.com/?flag&x=1")["query_param_count"] == 2
        assert _feature_dict("http://a.com/?flag&&x=1&")["query_param_count"] == 2

    def test_empty_query_is_present(self):
        # A bare '?' is an empty query, not an absent one: has_query reads 1.
        p = cut("http://a.com/p?")
        assert p["path"] == "/p"
        assert p["query"] == ""
        f = feat("http://a.com/p?")
        assert f["has_query"] == 1.0
        assert f["query_length"] == 0
        assert f["query_param_count"] == 0

    def test_single_label_host_has_no_tld(self):
        assert cut("localhost")["tld"] == ""

    @pytest.mark.parametrize(
        "junk", ["", "!!!", "/a/b", "http:///x", "?only=query", "#frag", ":::", "a" * 5000]
    )
    def test_total_on_pathological_inputs(self, junk):
        cut(junk)  # must not raise

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_total_on_arbitrary_text(self, text):
        scheme, scheme_end, host_lo, host_hi, path_lo, path_hi, query_lo, query_hi, tld_lo, _ = (
            _split(text)
        )
        # The parts lie in order, and a present query follows its '?'.
        assert 0 <= scheme_end <= host_lo <= tld_lo <= host_hi <= path_lo <= path_hi
        assert path_hi <= query_lo <= query_hi <= len(text)
        assert query_lo == path_hi or (query_lo == path_hi + 1 and text[path_hi] == "?")
        assert query_hi == len(text) or text[query_hi] == "#"
        assert len(scheme) == max(scheme_end - 3, 0)


class TestEntropy:
    def test_known_values(self):
        assert entropy("") == 0.0
        assert entropy("aaaa") == 0.0
        assert entropy("ab") == pytest.approx(1.0)
        assert entropy("aab") == pytest.approx(2 / 3 * math.log2(3 / 2) + 1 / 3 * math.log2(3))
        assert entropy("abcd") == pytest.approx(2.0)

    def test_permutation_invariant(self):
        assert entropy("abcabc") == pytest.approx(entropy("cbacba"))

    @given(st.text(min_size=1, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, text):
        h = entropy(text)
        assert 0.0 <= h <= math.log2(len(set(text))) + 1e-12


class TestCatalog:
    def test_size_and_uniqueness(self):
        c = catalog()
        assert len(c) == 78
        assert len(set(c.names)) == 78
        assert c.version == CATALOG_VERSION == "lex78-v1"

    def test_category_breakdown(self):
        counts = Counter(e.category for e in catalog().entries)
        assert counts == {
            "length": 12,
            "count": 39,
            "ratio": 6,
            "boolean": 10,
            "entropy": 4,
            "token": 7,
        }

    def test_every_entry_described(self):
        assert all(e.description for e in catalog().entries)

    def test_names_are_interned(self):
        # The one-URL path looks every name up in a dict keyed by string
        # literals; interned names match those keys by identity.
        assert all(sys.intern(name) is name for name in catalog().names)

    def test_name_without_an_extractor_raises(self, monkeypatch):
        # The blocked pass refuses a catalog name it does not compute,
        # where it would otherwise fill that column with zeros.
        names = tuple("host_dots" if n == "host_dot_count" else n for n in NAMES)
        monkeypatch.setattr(urlfeat, "_NAMES", names)
        with pytest.raises(KeyError, match="host_dots"):
            urlfeat._gather_plan()

    def test_shipped_manifest_is_frozen(self):
        # The manifest is the roster's one declaration: a new roster is a
        # new manifest file and catalog version, never an edit of this one.
        data = resources.files("urlsleuth.data").joinpath("feature_catalog_v1.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "b0496b41d866e6b168fd9c684bc5432c29007a66b55c7dacaba28737c9d63f00"
        )


class TestExtractLexical:
    def test_vector_shape_and_version(self):
        vec = extract_matrix(["http://example.com/a"])[0]
        assert vec.dtype == np.float64
        assert vec.shape == (78,)
        assert catalog().version == CATALOG_VERSION

    def test_hand_example(self):
        f = feat("https://www.google.com/a/b/c?x=1&y=2#frag")
        url = "https://www.google.com/a/b/c?x=1&y=2#frag"
        assert f["url_length"] == len(url)
        assert f["host_length"] == len("www.google.com")
        assert f["path_length"] == len("/a/b/c")
        assert f["query_length"] == len("x=1&y=2")
        assert f["fragment_length"] == 4
        assert f["tld_length"] == 3
        assert f["scheme_length"] == 5
        assert f["count_dot"] == 2
        assert f["count_slash"] == 5
        assert f["count_equals"] == 2
        assert f["count_ampersand"] == 1
        assert f["host_label_count"] == 3
        assert f["path_segment_count"] == 3
        assert f["query_param_count"] == 2
        assert f["is_https"] == 1.0
        assert f["has_query"] == 1.0
        assert f["has_fragment"] == 1.0
        assert f["has_scheme"] == 1.0
        assert f["is_ip_host"] == 0.0

    def test_digit_features(self):
        f = feat("http://ex4mple.com/1a")
        assert f["digit_count"] == 2
        assert f["host_digit_count"] == 1
        assert f["path_digit_count"] == 1
        assert f["longest_digit_run_length"] == 1

    def test_boolean_flags(self):
        f = feat("http://user@10.0.0.1:8080/a//b")
        assert f["has_at_symbol"] == 1.0
        assert f["has_port"] == 1.0
        assert f["is_ip_host"] == 1.0
        assert f["has_double_slash"] == 1.0
        assert f["is_short_host"] == 0.0
        plain = feat("a.io/x")
        assert plain["has_scheme"] == 0.0
        assert plain["has_double_slash"] == 0.0
        assert plain["is_short_host"] == 1.0

    def test_punycode_flag(self):
        assert feat("http://xn--e1afmkfd.xn--p1ai/")["has_punycode_label"] == 1.0
        assert feat("http://example.com/")["has_punycode_label"] == 0.0

    def test_encoded_chars(self):
        f = feat("http://a.com/%2e%2E/p%zz")
        assert f["encoded_char_count"] == 2

    def test_count_features_brute_force(self):
        for url in random_urls(400, seed=100):
            f = feat(url)
            for ch, name in SPECIAL_CHAR_FEATURES:
                assert f[name] == url.count(ch), (url, name)
            assert f["digit_count"] == sum(c in string.digits for c in url)
            assert f["letter_count"] == sum(c in string.ascii_letters for c in url)
            assert f["special_char_count"] == len(url) - f["digit_count"] - f["letter_count"]
            assert f["uppercase_count"] == sum(c in string.ascii_uppercase for c in url)
            assert f["vowel_count"] == sum(c in "aeiouAEIOU" for c in url)
            assert f["url_length"] == len(url)
            assert f["url_entropy"] == pytest.approx(entropy(url), abs=1e-12)

    def test_ratio_identities(self):
        for url in random_urls(200, seed=101):
            f = feat(url)
            n = len(url)
            assert f["digit_ratio"] == pytest.approx(f["digit_count"] / n)
            assert f["letter_ratio"] == pytest.approx(f["letter_count"] / n)
            assert f["special_ratio"] == pytest.approx(f["special_char_count"] / n)
            assert f["digit_ratio"] + f["letter_ratio"] + f["special_ratio"] == pytest.approx(1.0)

    def test_invariants_on_random_urls(self):
        count_like = [n for n in NAMES if catalog().entries[IDX[n]].category in ("length", "count")]
        ratio_like = [
            "digit_ratio",
            "letter_ratio",
            "special_ratio",
            "vowel_letter_ratio",
            "uppercase_letter_ratio",
            "host_url_length_ratio",
        ]
        for url in random_urls(300, seed=102):
            vec = extract_matrix([url])[0]
            assert np.all(np.isfinite(vec))
            f = dict(zip(NAMES, vec.tolist()))
            for name in count_like:
                assert f[name] >= 0 and f[name] == int(f[name]), (url, name)
            for name in ratio_like:
                assert 0.0 <= f[name] <= 1.0, (url, name)
            for name in ("url_entropy", "host_entropy", "path_entropy", "query_entropy"):
                assert f[name] >= 0.0

    def test_append_is_monotone_in_length(self):
        base = "http://example.com/page"
        f0 = feat(base)
        f1 = feat(base + "x")
        assert f1["url_length"] == f0["url_length"] + 1
        assert f1["letter_count"] == f0["letter_count"] + 1

    def test_deterministic(self):
        url = "https://odd.example/9%41?a=b#z"
        a = extract_matrix([url])[0]
        b = extract_matrix([url])[0]
        assert np.array_equal(a, b)

    def test_matrix_matches_single_extraction(self):
        urls = random_urls(50, seed=103)
        mat = extract_matrix(urls)
        assert mat.shape == (50, 78)
        for i, url in enumerate(urls):
            assert np.array_equal(mat[i], extract_matrix([url])[0])


# Edge strings for the frozen digest: empty and separator-only inputs, lone
# surrogates, non-BMP and control characters, IPv6 literals, '%' runs.
EDGE_URLS = [
    "", "/", "?", "#", "//", "?#", "#?", "://", "http://", "HTTP://A.B",
    "\ud800", "http://a\udfff.com/\udc00?\ud83d=1", "\ud83d\ude00",
    "http://\U0001f600.com/\U0001d518\U0001d52f?q=\U0001f642#\U00010348",
    "\x00", "http://a\x00b.com/\x01\x7f?\x1f=\x0b#\x85", "\t\n\r\x0c\u2028\u200b",
    "http://[::1]/", "http://[2001:db8::1]:8080/a?b=c", "[::1]:80", "http://[fe80::1%25eth0]/",
    "%%41%4", "http://a.com/%%41%4%zz%2", "%", "%2", "%20%2F%2f", "http://a.com/?%41=%4G&%",
    "http://user:pw@1.2.3.4:99/x", "http://256.1.1.1/", "1.2.3.4", "xn--p1ai.XN--e1a",
    "a..b...c", "http://a.com//b//c///", "?a&&b=&=c&", "http://a.com:/p", "http://a.com:12x/",
]


def test_extract_memory_does_not_grow_with_the_batch():
    """``extract_matrix`` holds one block's working set beside its output,
    so four times the URLs (the same 2,000, four times over, so that the
    blocks hold alike) need only a few bytes per URL more."""
    batch = [r.url for r in generate_dataset("mem", 2000, 0.3, seed=5).records]
    small = bytes_beside_result(extract_matrix, batch)
    large = bytes_beside_result(extract_matrix, batch * 4)
    assert large - small <= BLOCKED_BYTES_PER_URL * 3 * len(batch), (small, large)


def golden_urls() -> list[str]:
    synth = [r.url for r in generate_dataset("golden", 600, 0.3, seed=104).records]
    # A 32 KB query after enough URLs that it starts a new block of characters.
    pieces = [f"k{i}=v%{i % 256:02x}{'Ab9-_.' * (i % 5)}" for i in range(2600)]
    long_query = "http://long.example/p/a?" + "&".join(pieces)
    long_query = long_query[: 32 * 1024]
    return random_urls(2000, seed=105) + synth + EDGE_URLS + [long_query] + EDGE_URLS[::-1]


def test_matrix_bytes_are_frozen():
    urls = golden_urls()
    assert len(urls) == 2000 + 600 + 2 * len(EDGE_URLS) + 1
    digest = hashlib.sha256(extract_matrix(urls).tobytes()).hexdigest()
    assert digest == "5a0d22dd0fe6878f18a354471a4194e80ad38241c5f7534febefe3e35eece462"


# Any code point, lone surrogates included, plus the pieces URLs are made of.
ANY_CHAR = st.characters(exclude_categories=())
URL_PIECES = st.sampled_from([
    "http://", "https://", "HTTPS://", "ftp://", "//", "/", "?", "#", "&", "=", ".", "..", "@",
    ":", ":80", "%", "%4", "%41", "%zz", "xn--", "XN--a", "[::1]", "1.2.3.4", "10.0.0.256", "www",
    "-", "_", "a1", "Z9z", "é", "İ", "\U0001f600", "\ud800", "\x00", "\x0b", " ",
])
URLISH = st.lists(st.one_of(URL_PIECES, st.text(ANY_CHAR, max_size=6)), max_size=14).map("".join)
URLISH_BATCH = st.lists(st.one_of(URLISH, st.text(ANY_CHAR, max_size=40)), max_size=12)
# Long enough that the URLs after it are extracted in a later block.
BLOCK_FILLER = "https://fill.example/" + "seg/%41b?" * 1900


def bits(matrix: np.ndarray) -> np.ndarray:
    return matrix.view(np.int64)


def scalar_matrix(urls) -> np.ndarray:
    rows = [[d[name] for name in NAMES] for d in map(_feature_dict, urls)]
    return np.array(rows, dtype=np.float64).reshape(-1, 78)


class TestBlockedAgainstScalar:
    """The blocked pass against the per-URL ``_feature_dict``, bit for bit."""

    @given(URLISH_BATCH)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_extractor(self, urls):
        assert np.array_equal(bits(_blocked_matrix(urls)), bits(scalar_matrix(urls)))

    @given(URLISH_BATCH, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_rows_do_not_depend_on_the_batch(self, urls, rng):
        batch = [BLOCK_FILLER, *urls]
        rows = bits(extract_matrix(batch))
        for url, row in zip(batch, rows):
            assert np.array_equal(bits(extract_matrix([url]))[0], row)
        order = list(range(len(batch)))
        rng.shuffle(order)
        shuffled = bits(extract_matrix([batch[i] for i in order]))
        assert np.array_equal(shuffled, rows[order])

    def test_seeded_inputs_match_scalar_extractor(self):
        urls = golden_urls()
        assert np.array_equal(bits(_blocked_matrix(urls)), bits(scalar_matrix(urls)))

    @pytest.mark.parametrize("count, total", [(28, 31), (43, 50), (59, 61), (56, 62), (67, 71)])
    def test_entropy_terms_use_math_log2(self, count, total):
        # For these (count, total) pairs p * np.log2(p) is one ulp off
        # p * math.log2(p) with the numpy this was written against.
        url = "a" * count + string.ascii_letters[1 : 1 + total - count]
        urls = [url, "http://h.com/" + url, "http://h.com/?" + url]
        assert np.array_equal(bits(_blocked_matrix(urls)), bits(scalar_matrix(urls)))

    def test_one_short_url_takes_the_scalar_path(self, monkeypatch):
        def refuse(urls):
            raise AssertionError("blocked pass used")

        monkeypatch.setattr("urlsleuth.urlfeat._blocked_matrix", refuse)
        extract_matrix(["a" * _SCALAR_MAX_LENGTH])
        with pytest.raises(AssertionError):
            extract_matrix(["a" * (_SCALAR_MAX_LENGTH + 1)])
        with pytest.raises(AssertionError):
            extract_matrix(["a", "b"])

    def test_overlong_numeric_port_is_a_port(self):
        # int() refuses decimal strings of more than 4300 digits; the
        # extractor never converts the port.
        url = "http://a.com:" + "1" * 5000 + "/x"
        f = dict(zip(NAMES, extract_matrix([url])[0].tolist()))
        assert f["has_port"] == 1.0
        assert f["host_length"] == len("a.com")
        assert _feature_dict("http://a.com:" + "1" * 300)["has_port"] == 1.0

"""Character n-gram language models over URL strings.

Two models trained side by side (one on benign URLs, one on malicious ones)
turn a URL into a pair of normalized log-likelihood scores.  Smoothing is
plain add-k over a fixed symbol inventory, so every conditional is strictly
positive and every score is finite.

Symbol inventory: the 95 printable ASCII characters plus an end-of-string
marker and a catch-all for out-of-range characters (97 predictable symbols).
A begin-of-string marker pads contexts but is never predicted.

A model's counts (context -> symbol -> count) are its one saved form.
``LmScorePair.transform`` scores through tables derived from them on
first use.  Dense child tables, one per context position, map a seen
prefix and the next character to the longer prefix's number, and every
unseen prefix to one shared unseen number, so finding a context costs one
gather per context character.  The context's number picks its row of 97
indices into the distinct log-probabilities, so each predicted character
takes one more gather, and the log-probs are summed per URL.
``sequence_logprob`` and ``score`` keep the per-character loop and are
the tables' oracle; both give bit-identical scores.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ModelError

BEGIN = "\x02"
END = "\x03"
UNK = "\x1a"

PRINTABLE = tuple(chr(c) for c in range(0x20, 0x7F))
SYMBOLS = PRINTABLE + (END, UNK)
VOCAB_SIZE = len(SYMBOLS)  # 97

_PREDICTABLE = frozenset(SYMBOLS)
_CONTEXT_CHARS = frozenset(PRINTABLE + (UNK,))

# Table ids: printable -> 0-94, UNK 95, END 96, BEGIN 97.
_ID = {ch: i for i, ch in enumerate(PRINTABLE + (UNK, END, BEGIN))}
_UNK_ID, _END_ID, _BEGIN_ID = _ID[UNK], _ID[END], _ID[BEGIN]
_N_IDS = len(_ID)  # 98
# Scoring works through blocks of about this many predicted positions.
_BLOCK_POSITIONS = 1 << 14


def _norm_char(ch: str) -> str:
    if "\x20" <= ch <= "\x7e":
        return ch
    return UNK


def _key_ids(chars: str) -> np.ndarray:
    """Table ids of the characters of saved contexts or symbols."""
    return np.fromiter(map(_ID.__getitem__, chars), np.uint8, len(chars))


def _text_ids(text: str) -> np.ndarray:
    """Table ids of URL characters: printable ones keep theirs, the rest are UNK."""
    offset = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32) - 0x20
    return np.minimum(offset, _UNK_ID)  # below 0x20 wraps past UNK too


@dataclass
class CharGramModel:
    """Add-k smoothed character n-gram model.

    ``order`` is the n in n-gram: each symbol is conditioned on the
    ``order - 1`` preceding symbols, with begin-of-string padding.
    """

    order: int = 3
    k: float = 1.0
    _ctx_totals: dict[str, int] = field(default_factory=dict, repr=False)
    _ctx_counts: dict[str, dict[str, int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # bool is an int and a Real: True would pass as 1.
        if isinstance(self.order, bool) or not isinstance(self.order, int) or self.order < 1:
            raise ModelError(f"order must be an integer >= 1, got {self.order!r}")
        if (
            isinstance(self.k, bool)
            or not isinstance(self.k, numbers.Real)
            or not math.isfinite(self.k)
            or self.k <= 0
        ):
            raise ModelError(f"smoothing constant must be a finite number > 0, got {self.k!r}")

    def _padded(self, url: str) -> str:
        return BEGIN * (self.order - 1) + "".join(_norm_char(ch) for ch in url) + END

    def fit(self, urls) -> "CharGramModel":
        """Accumulate n-gram counts from an iterable of URL strings."""
        self.__dict__.pop("_table", None)
        n = self.order - 1
        for url in urls:
            text = self._padded(url)
            for i in range(n, len(text)):
                bucket = self._ctx_counts.setdefault(text[i - n : i], {})
                bucket[text[i]] = bucket.get(text[i], 0) + 1
        self._ctx_totals = {ctx: sum(c.values()) for ctx, c in self._ctx_counts.items()}
        return self

    def conditional_prob(self, symbol: str, context: str) -> float:
        """P(symbol | context) with add-k smoothing.

        ``context`` must have exactly ``order - 1`` characters; characters
        outside the inventory are folded to the catch-all symbol on both
        sides.  An unseen context falls back to the uniform
        (0 + k) / (0 + k*V) = 1/V.
        """
        if len(context) != self.order - 1:
            raise ModelError(
                f"context must have {self.order - 1} characters, got {len(context)}"
            )
        sym = symbol if symbol in _PREDICTABLE else _norm_char(symbol)
        if sym not in _PREDICTABLE:
            raise ModelError(f"symbol {symbol!r} cannot be normalized into the inventory")
        ctx = "".join(ch if ch == BEGIN else _norm_char(ch) for ch in context)
        count = self._ctx_counts.get(ctx, {}).get(sym, 0)
        total = self._ctx_totals.get(ctx, 0)
        return (count + self.k) / (total + self.k * VOCAB_SIZE)

    def sequence_logprob(self, url: str) -> float:
        """Natural-log likelihood of the URL plus its end marker."""
        text = self._padded(url)
        n = self.order - 1
        lp = 0.0
        for i in range(n, len(text)):
            ctx = text[i - n : i]
            count = self._ctx_counts.get(ctx, {}).get(text[i], 0)
            total = self._ctx_totals.get(ctx, 0)
            lp += math.log((count + self.k) / (total + self.k * VOCAB_SIZE))
        return lp

    def score(self, url: str) -> float:
        """Length-normalized log-likelihood: sequence_logprob / (len(url) + 1)."""
        return self.sequence_logprob(url) / (len(url) + 1)

    @cached_property
    def _table(self) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """The counts as a scoring table ``(children, cells, logp)``, built
        on first use and dropped by ``fit``.

        The m seen context prefixes of length j + 1 are numbered 0 to
        m - 1 in sorted order of ``parent * 98 + id``, ``parent`` being the
        number of the prefix one character shorter (0 for j = 0).
        ``children[j]`` holds one block of 98 entries per prefix of length
        j (one for j = 0), then a block for an unseen parent; entry
        ``parent * 98 + id`` is that prefix's number, or m when it is
        unseen.  So an unseen prefix takes the unseen block one level
        down and stays unseen, whatever characters follow.  Each child
        table takes the smallest unsigned type that holds m.

        A context's number is its row of ``cells``: 97 entries a row, then
        one row for unseen contexts (number m of the last level).  Each
        entry indexes ``logp``, which holds ``math.log`` of the loop's
        ``(count + k) / (total + k * VOCAB_SIZE)`` once per distinct
        (count, total).
        """
        n = self.order - 1
        contexts = list(self._ctx_counts)
        buckets = list(self._ctx_counts.values())
        children = []
        row = np.zeros(len(contexts), np.int64)
        if contexts and n:
            ids = _key_ids("".join(contexts)).reshape(len(contexts), n)
            parents = 1
            for j in range(n):
                keys, row = np.unique(row * _N_IDS + ids[:, j], return_inverse=True)
                child = np.full((parents + 1) * _N_IDS, len(keys), np.min_scalar_type(len(keys)))
                child[keys] = np.arange(len(keys))
                children.append(child)
                parents = len(keys)
                row = row.reshape(-1)
        sizes = np.fromiter(map(len, buckets), np.int64, len(buckets))
        totals = list(map(self._ctx_totals.__getitem__, contexts))
        # One log-prob per distinct (count, total): the loop's own
        # expression.  Seen entries come first, then each seen context's
        # unseen symbols, then an unseen context.
        pairs: dict[tuple[int, int], int] = {}
        entries = np.fromiter(
            (
                pairs.setdefault((count, total), len(pairs))
                for bucket, total in zip(buckets, totals)
                for count in bucket.values()
            ),
            np.uint32,
            int(sizes.sum()),
        )
        defaults = [pairs.setdefault((0, total), len(pairs)) for total in totals]
        unseen = pairs.setdefault((0, 0), len(pairs))
        logp = np.array(
            [math.log((count + self.k) / (total + self.k * VOCAB_SIZE)) for count, total in pairs]
        )
        cells = np.empty(
            (len(contexts) + 1, VOCAB_SIZE), np.uint16 if len(pairs) <= 1 << 16 else np.uint32
        )
        cells[row] = np.array(defaults, np.int64)[:, None]
        cells[-1] = unseen
        symbols = _key_ids("".join(map("".join, buckets)))
        cells[np.repeat(row, sizes), symbols] = entries
        return children, cells.reshape(-1), logp

    def _logprobs(self, windows: list[np.ndarray], symbols: np.ndarray) -> np.ndarray:
        """Log-prob of each symbol after its context window (one id array
        per context position): one gather per context character, then one
        into ``cells``.  Indices are worked out in ``intp``, since a row
        times 98 overflows the tables' types."""
        children, cells, logp = self._table
        row = np.intp(0)
        for child, ids in zip(children, windows):
            row = child[np.multiply(row, _N_IDS, dtype=np.intp) + ids]
        return logp[cells[np.multiply(row, VOCAB_SIZE, dtype=np.intp) + symbols]]


def _blocks(sizes: np.ndarray):
    """Consecutive ``(lo, hi)`` ranges whose sizes sum to about
    ``_BLOCK_POSITIONS``; a larger item gets a range of its own."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        limit = (ends[lo - 1] if lo else 0) + _BLOCK_POSITIONS
        hi = max(int(np.searchsorted(ends, limit, side="right")), lo + 1)
        yield lo, hi
        lo = hi


@dataclass
class LmScorePair:
    """Benign and malicious language models scored side by side.

    ``transform`` maps URLs to a two-column matrix: column 0 is the benign
    model's normalized log-likelihood, column 1 the malicious model's.
    Both models must have the pair's order and k, the only ones saved.
    """

    order: int = 3
    k: float = 1.0
    benign: CharGramModel | None = None
    malicious: CharGramModel | None = None

    def __post_init__(self) -> None:
        for side in ("benign", "malicious"):
            model = getattr(self, side)
            if model is not None and (model.order, model.k) != (self.order, self.k):
                raise ModelError(
                    f"{side} model has order {model.order} and k {model.k}; "
                    f"the pair has order {self.order} and k {self.k}"
                )

    def fit(self, urls, labels) -> "LmScorePair":
        urls = list(urls)
        labels = np.asarray(labels)
        if len(urls) != len(labels):
            raise ModelError(f"{len(urls)} urls but {len(labels)} labels")
        if not np.isin(labels, (0, 1)).all():
            raise ModelError("labels must be 0 or 1")
        self.benign = CharGramModel(order=self.order, k=self.k).fit(
            u for u, y in zip(urls, labels) if y == 0
        )
        self.malicious = CharGramModel(order=self.order, k=self.k).fit(
            u for u, y in zip(urls, labels) if y == 1
        )
        return self

    def transform(self, urls) -> np.ndarray:
        """Both models' ``score`` of every URL, bit for bit, through their
        tables: each block of URLs is padded and windowed once, each model
        gathers one log-prob per predicted position, and ``bincount`` sums
        them per URL in position order, as the scalar loop adds them."""
        if self.benign is None or self.malicious is None:
            raise ModelError("score pair is not fitted")
        n = self.order - 1
        lengths = np.fromiter(map(len, urls), np.int64, len(urls))
        out = np.empty((len(urls), 2), dtype=np.float64)
        for lo, hi in _blocks(lengths + n + 1):
            seg = lengths[lo:hi]
            ids = _text_ids("".join(urls[lo:hi]))
            # Each URL's segment: n BEGIN pads, its characters, then END.
            index = np.arange(hi - lo)
            shift = index * (n + 1) + n  # pads up to each URL's characters
            seq = np.full(ids.size + (hi - lo) * (n + 1), _BEGIN_ID, np.uint8)
            seq[np.cumsum(seg) + shift] = _END_ID
            seq[np.arange(ids.size) + np.repeat(shift, seg)] = ids
            # Every position but a pad is predicted from the n before it.
            predicted = seq[n:] != _BEGIN_ID
            windows = [seq[j : j + predicted.size][predicted] for j in range(n)]
            symbols = seq[n:][predicted]
            scored = seg + 1
            rows = np.repeat(index, scored)
            for col, model in enumerate((self.benign, self.malicious)):
                lp = model._logprobs(windows, symbols)
                out[lo:hi, col] = np.bincount(rows, lp, hi - lo) / scored
        return out

    def to_dict(self) -> dict:
        """Order, k and each model's context -> symbol -> count map."""
        if self.benign is None or self.malicious is None:
            raise ModelError("score pair is not fitted")
        return {
            "order": self.order,
            "k": self.k,
            "benign": self.benign._ctx_counts,
            "malicious": self.malicious._ctx_counts,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LmScorePair":
        """Rebuild a fitted pair; each context's total is the sum of its counts.

        Each map must be one ``fit`` could have made: contexts of
        ``order - 1`` inventory characters, BEGIN only as their leading
        run; symbols from ``SYMBOLS``; counts integers in [1, 2**53), so
        that every count and total is exact in float64.
        """
        order, k = d["order"], d["k"]
        models = []
        for side in ("benign", "malicious"):
            counts = {ctx: dict(bucket) for ctx, bucket in d[side].items()}
            _check_counts(side, order, counts)
            model = CharGramModel(order, k)
            model._ctx_counts = counts
            models.append(model.fit([]))  # adds no counts; works out each total
        return cls(order, k, *models)


def _check_counts(side: str, order: int, counts: dict) -> None:
    """Raise ``ModelError`` unless ``counts`` is a map ``fit`` could have made."""
    if set(map(len, counts)) - {order - 1}:
        ctx = next(c for c in counts if len(c) != order - 1)
        raise ModelError(
            f"{side} context {ctx!r} has {len(ctx)} characters; order {order} needs {order - 1}"
        )
    # BEGIN may only pad a context's start, so what follows its leading run
    # must be printable or UNK.
    after_begin = set("".join(map(str.lstrip, counts, itertools.repeat(BEGIN, len(counts)))))
    if not after_begin <= _CONTEXT_CHARS:
        raise ModelError(
            f"{side} contexts hold {sorted(after_begin - _CONTEXT_CHARS)!r}, "
            "outside the inventory or after the leading begin markers"
        )
    buckets = counts.values()
    symbols = set().union(*buckets)
    if not symbols <= _PREDICTABLE:
        raise ModelError(
            f"{side} symbols {sorted(symbols - _PREDICTABLE)!r} are not in the inventory"
        )
    # Types are checked on every count: True and 1.0 hash like 1.
    types = set(map(type, itertools.chain.from_iterable(map(dict.values, buckets))))
    distinct = set(itertools.chain.from_iterable(map(dict.values, buckets)))
    if (
        not all(buckets)
        or types - {int}
        or min(distinct, default=1) < 1
        or max(distinct, default=1) >= 2**53
    ):
        raise ModelError(f"{side} counts must be integers in [1, 2**53), at least one per context")

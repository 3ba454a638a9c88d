"""Character n-gram language models over URL strings.

Two models trained side by side (one on benign URLs, one on malicious ones)
turn a URL into a pair of normalized log-likelihood scores.  Smoothing is
plain add-k over a fixed symbol inventory, so every conditional is strictly
positive and every score is finite.

Symbol inventory: the 95 printable ASCII characters plus an end-of-string
marker and a catch-all for out-of-range characters (97 predictable symbols).
A begin-of-string marker pads contexts but is never predicted.

A model's counts are two arrays, its one in-memory and saved form:
``keys``, one row of table ids per seen (context, symbol) n-gram, the
``order - 1`` context ids then the symbol's, in strictly increasing
lexicographic order; and ``counts``, how often each was seen.  ``fit``
counts the padded windows of the training URLs with one sort.
``LmScorePair.transform`` scores through tables derived from the keys on
first use.  Dense child tables, one per context position, map a seen
prefix and the next character to the longer prefix's number, and every
unseen prefix to one shared unseen number, so finding a context costs one
gather per context character.  The context's number picks its row of 97
indices into the distinct log-probabilities, so each predicted character
takes one more gather, and the log-probs are summed per URL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ArtifactError, ModelError
from .models.base import array_record, check_int, check_real, state_array

BEGIN = "\x02"
END = "\x03"
UNK = "\x1a"

PRINTABLE = tuple(chr(c) for c in range(0x20, 0x7F))
SYMBOLS = PRINTABLE + (END, UNK)
VOCAB_SIZE = len(SYMBOLS)  # 97
SIDES = ("benign", "malicious")  # an LmScorePair's models, in column order

# Table ids: printable -> 0-94, UNK 95, END 96, BEGIN 97.  The symbols
# are the ids below VOCAB_SIZE.
_ID = {ch: i for i, ch in enumerate(PRINTABLE + (UNK, END, BEGIN))}
_UNK_ID, _END_ID, _BEGIN_ID = _ID[UNK], _ID[END], _ID[BEGIN]
_N_IDS = len(_ID)  # 98
# Scoring, and each stage of ``FeatureChain.transform``, works through
# blocks of about this many predicted positions.  On the 10,000 seed-20
# bulk URLs the LR chain holds 3.8 MiB beside its result with blocks of
# 8k and 2.0 MiB with blocks of 4k, and took 0.203 and 0.244 s (medians
# of 15 alternating runs, one thread of a shared 2-vCPU VM).
_BLOCK_POSITIONS = 1 << 12


def _text_ids(text: str) -> np.ndarray:
    """Table ids of URL characters: printable ones keep theirs, the rest are UNK."""
    offset = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32) - 0x20
    return np.minimum(offset, _UNK_ID)  # below 0x20 wraps past UNK too


def _grams(urls: list[str], lengths: np.ndarray, n: int) -> np.ndarray:
    """Every predicted position of ``urls`` as one column of ``n + 1`` ids:
    its context of ``n``, then the id it predicts.  Each URL (``lengths``
    its lengths) is padded with ``n`` BEGIN and closed by END; columns run
    URL by URL, in position order."""
    ids = _text_ids("".join(urls))
    shift = np.arange(len(urls)) * (n + 1) + n  # pads up to each URL's characters
    seq = np.full(ids.size + len(urls) * (n + 1), _BEGIN_ID, np.uint8)
    seq[np.cumsum(lengths) + shift] = _END_ID
    seq[np.arange(ids.size) + np.repeat(shift, lengths)] = ids
    # Every position but a pad is predicted from the n before it.
    predicted = seq[n:] != _BEGIN_ID
    grams = np.empty((n + 1, ids.size + len(urls)), np.uint8)
    for j in range(n + 1):
        grams[j] = seq[j : j + predicted.size][predicted]
    return grams


def _lone_grams(url: str, n: int) -> np.ndarray:
    """``_grams([url], lengths, n)`` of one URL, as overlapping windows
    of one padded id array: row j is its ids from position j on.  A view
    built by the ``ndarray`` constructor, a fraction of the cost of
    ``sliding_window_view`` on one short URL."""
    seq = np.empty(len(url) + n + 1, np.uint8)
    seq[:n] = _BEGIN_ID
    seq[n:-1] = _text_ids(url)
    seq[-1] = _END_ID
    return np.ndarray((n + 1, len(url) + 1), np.uint8, seq, 0, (1, 1))


@dataclass(eq=False)
class CharGramModel:
    """Add-k smoothed character n-gram model.

    ``order`` is the n in n-gram: each symbol is conditioned on the
    ``order - 1`` preceding symbols, with begin-of-string padding.
    ``keys`` and ``counts`` are the counts, as the module docstring says.
    """

    order: int = 3
    k: float = 1.0
    keys: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.order = check_int("order", self.order, 1)
        check_real("smoothing constant", self.k, 0.0, strict=True)
        self.keys = np.zeros((0, self.order), np.uint8)
        self.counts = np.zeros(0, np.int64)

    def fit(self, urls) -> "CharGramModel":
        """Count the (context, symbol) n-grams of an iterable of URL
        strings, replacing any earlier counts: one lexicographic sort of
        the padded windows, then one count per run of equal rows."""
        self.__dict__.pop("_table", None)
        urls = list(urls)
        lengths = np.fromiter(map(len, urls), np.int64, len(urls))
        grams = _grams(urls, lengths, self.order - 1)
        grams = grams[:, np.lexsort(grams[::-1])]
        new = np.ones(grams.shape[1], bool)
        np.any(grams[:, 1:] != grams[:, :-1], axis=0, out=new[1:])
        starts = np.flatnonzero(new)
        self.keys = np.ascontiguousarray(grams[:, starts].T)
        self.counts = np.diff(starts, append=grams.shape[1]).astype(np.int64)
        return self

    @cached_property
    def _table(self) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """The counts as a scoring table ``(children, cells, logp)``, built
        on first use and dropped by ``fit``.

        The m seen context prefixes of length j + 1 are numbered 0 to
        m - 1 in their sorted order, which is that of ``parent * 98 +
        id``, ``parent`` being the number of the prefix one character
        shorter (0 for j = 0).  ``children[j]`` holds one block of 98
        entries per prefix of length j (one for j = 0), then a block for an
        unseen parent; entry ``parent * 98 + id`` is that prefix's number,
        or m when it is unseen.  So an unseen prefix takes the unseen block
        one level down and stays unseen, whatever characters follow.  Each
        child table takes the smallest unsigned type that holds m.

        A context's number is its row of ``cells``: 97 entries a row, then
        one row for unseen contexts (number m of the last level).  Each
        entry indexes ``logp``, which holds ``math.log`` of
        ``(count + k) / (total + k * VOCAB_SIZE)`` once per distinct value.
        """
        keys, counts = self.keys, self.counts
        n = self.order - 1
        # A key row starts a new prefix of length j + 1 where one of its
        # first j + 1 ids differs from the row before.
        new = np.zeros(len(keys), bool)
        new[:1] = True
        number = np.zeros(len(keys), np.intp)  # each row's prefix number
        children = []
        for j in range(n if len(keys) else 0):
            new[1:] |= keys[1:, j] != keys[:-1, j]
            starts = np.flatnonzero(new)
            child = np.full((number[-1] + 2) * _N_IDS, len(starts), np.min_scalar_type(len(starts)))
            child[number[starts] * _N_IDS + keys[starts, j]] = np.arange(len(starts))
            children.append(child)
            number = np.cumsum(new) - 1
        starts = np.flatnonzero(new)  # each context's first row
        totals = np.add.reduceat(counts, starts) if len(keys) else counts
        # The probability of every entry: seen ones, then each seen
        # context's unseen symbols, then an unseen context.  float64
        # arithmetic on the same operands gives the scalar expression's
        # bits, and math.log runs once per distinct ratio.
        count = np.concatenate((counts, np.zeros(len(totals) + 1, np.int64)))
        total = np.concatenate((totals[number], totals, [0]))
        ratios, index = np.unique(
            (count + self.k) / (total + self.k * VOCAB_SIZE), return_inverse=True
        )
        index = index.reshape(-1)
        logp = np.array([math.log(ratio) for ratio in ratios.tolist()])
        cells = np.empty(
            (len(totals) + 1, VOCAB_SIZE), np.uint16 if len(logp) <= 1 << 16 else np.uint32
        )
        cells[:] = index[len(keys) :, None]
        cells[number, keys[:, n]] = index[: len(keys)]
        return children, cells.reshape(-1), logp

    def _logprobs(self, grams: np.ndarray) -> np.ndarray:
        """Log-prob of each column of ``_grams``: one gather per context
        character, then one into ``cells``.  Indices are worked out in
        ``intp``, since a row times 98 overflows the tables' types."""
        children, cells, logp = self._table
        row = np.intp(0)
        for child, ids in zip(children, grams):
            row = child[np.multiply(row, _N_IDS, dtype=np.intp) + ids]
        return logp[cells[np.multiply(row, VOCAB_SIZE, dtype=np.intp) + grams[-1]]]

    def to_dict(self) -> dict:
        """``keys`` and ``counts`` as ``array_record``s."""
        return {"keys": array_record(self.keys), "counts": array_record(self.counts)}

    @classmethod
    def from_dict(cls, order: int, k: float, d: dict) -> "CharGramModel":
        """Rebuild a fitted model; ``_check_counts`` says what the arrays
        must hold."""
        model = cls(order, k)
        keys = state_array(d, "keys", (None, order), np.uint8)
        counts = state_array(d, "counts", (len(keys),), np.int64)
        _check_counts(keys, counts)
        model.keys, model.counts = keys, counts
        return model


def _check_counts(keys: np.ndarray, counts: np.ndarray) -> None:
    """Raise ``ModelError`` unless ``keys`` and ``counts`` are arrays ``fit``
    could have made: strictly increasing rows, symbols from ``SYMBOLS``,
    contexts of inventory characters with BEGIN only as their leading
    run, counts in [1, 2**53), so that every count and total is exact in
    float64."""
    symbols, context = keys[:, -1], keys[:, :-1]
    if (symbols >= VOCAB_SIZE).any():
        bad = sorted(set(symbols[symbols >= VOCAB_SIZE].tolist()))
        raise ModelError(f"symbol ids {bad} are not in the inventory")
    # BEGIN may only pad a context's start, so what follows its leading run
    # must be printable or UNK.
    begin = context == _BEGIN_ID
    bad = (context >= _END_ID) & ~begin
    bad[:, 1:] |= begin[:, 1:] & ~begin[:, :-1]
    if bad.any():
        raise ModelError(
            f"contexts hold ids {sorted(set(context[bad].tolist()))}, "
            "outside the inventory or after the leading begin markers"
        )
    step = keys[1:].astype(np.int16) - keys[:-1]
    first = np.argmax(step != 0, axis=1)  # the first id in which each row moves on
    if (step[np.arange(len(step)), first] <= 0).any():
        raise ModelError("key rows must be strictly increasing")
    if len(counts) and (counts.min() < 1 or counts.max() >= 2**53):
        raise ModelError("counts must be integers in [1, 2**53)")


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
    A side may be absent (``None``), as in a pair loaded with only the
    sides a chain scores; only the sides asked for must be there.
    """

    order: int = 3
    k: float = 1.0
    benign: CharGramModel | None = None
    malicious: CharGramModel | None = None

    def __post_init__(self) -> None:
        self.order = check_int("order", self.order, 1)
        check_real("smoothing constant", self.k, 0.0, strict=True)
        for side in SIDES:
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

    def transform(self, urls, sides=SIDES) -> np.ndarray:
        """Each named model's length-normalized log-likelihood of every
        URL, one column per entry of ``sides`` (by default benign, then
        malicious): the sum of the natural-log add-k probabilities of its
        characters and its end marker, over ``len(url) + 1``.  A side not
        named is never scored, so its table is never built.  Each block of
        URLs is padded and windowed once (a lone URL by ``_lone_grams``),
        each model gathers one log-prob per predicted position, and
        ``bincount`` sums them per URL in position order.  A side named but
        absent raises ``ModelError`` naming it."""
        models = [getattr(self, side) for side in sides]
        for side, model in zip(sides, models):
            if model is None:
                raise ModelError(f"score pair has no {side} model")
        n = self.order - 1
        out = np.empty((len(urls), len(models)), dtype=np.float64)
        if len(urls) == 1:
            grams = _lone_grams(urls[0], n)
            rows = np.zeros(grams.shape[1], np.intp)  # bincount: the batch path's sum order
            for col, model in enumerate(models):
                out[0, col] = np.bincount(rows, model._logprobs(grams))[0] / len(rows)
            return out
        lengths = np.fromiter(map(len, urls), np.int64, len(urls))
        for lo, hi in _blocks(lengths + n + 1):
            seg = lengths[lo:hi]
            grams = _grams(urls[lo:hi], seg, n)
            scored = seg + 1
            rows = np.repeat(np.arange(hi - lo), scored)
            for col, model in enumerate(models):
                out[lo:hi, col] = np.bincount(rows, model._logprobs(grams), hi - lo) / scored
        return out

    def to_dict(self) -> dict:
        """Order, k and the ``to_dict`` of each model the pair holds."""
        models = {side: getattr(self, side) for side in SIDES}
        return {
            "order": self.order,
            "k": self.k,
            **{side: model.to_dict() for side, model in models.items() if model is not None},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LmScorePair":
        """Rebuild a pair saved by ``to_dict``: each side it saved, the
        others absent.  An error names the side it was found in."""
        models = {}
        for side in [side for side in SIDES if side in d]:
            try:
                models[side] = CharGramModel.from_dict(d["order"], d["k"], d[side])
            except (ArtifactError, ModelError) as exc:
                raise type(exc)(f"{side} {exc}") from exc
        return cls(d["order"], d["k"], **models)

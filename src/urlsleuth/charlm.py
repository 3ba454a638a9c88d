"""Character n-gram language models over URL strings.

Two models trained side by side (one on benign URLs, one on malicious ones)
turn a URL into a pair of normalized log-likelihood scores.  Smoothing is
plain add-k over a fixed symbol inventory, so every conditional is strictly
positive and every score is finite.

Symbol inventory: the 95 printable ASCII characters plus an end-of-string
marker and a catch-all for out-of-range characters (97 predictable symbols).
A begin-of-string marker pads contexts but is never predicted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

BEGIN = "\x02"
END = "\x03"
UNK = "\x1a"

PRINTABLE = tuple(chr(c) for c in range(0x20, 0x7F))
SYMBOLS = PRINTABLE + (END, UNK)
VOCAB_SIZE = len(SYMBOLS)  # 97

_PREDICTABLE = frozenset(SYMBOLS)


def _norm_char(ch: str) -> str:
    if "\x20" <= ch <= "\x7e":
        return ch
    return UNK


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
        if not isinstance(self.order, int) or self.order < 1:
            raise ModelError(f"order must be an integer >= 1, got {self.order!r}")
        if self.k <= 0:
            raise ModelError(f"smoothing constant must be > 0, got {self.k}")

    def _padded(self, url: str) -> str:
        return BEGIN * (self.order - 1) + "".join(_norm_char(ch) for ch in url) + END

    def fit(self, urls) -> "CharGramModel":
        """Accumulate n-gram counts from an iterable of URL strings."""
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
        if self.benign is None or self.malicious is None:
            raise ModelError("score pair is not fitted")
        out = np.empty((len(urls), 2), dtype=np.float64)
        for i, url in enumerate(urls):
            out[i, 0] = self.benign.score(url)
            out[i, 1] = self.malicious.score(url)
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
        """Rebuild a fitted pair; each context's total is the sum of its counts."""
        order, k = d["order"], d["k"]
        models = []
        for side in ("benign", "malicious"):
            for ctx in d[side]:
                if len(ctx) != order - 1:
                    raise ModelError(
                        f"{side} context {ctx!r} has {len(ctx)} characters; "
                        f"order {order} needs {order - 1}"
                    )
            model = CharGramModel(order, k)
            model._ctx_counts = {ctx: dict(counts) for ctx, counts in d[side].items()}
            models.append(model.fit([]))  # adds no counts; works out each total
        return cls(order, k, *models)

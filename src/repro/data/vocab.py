"""Vocabulary with the conventional special tokens."""

from __future__ import annotations

PAD = 0
BOS = 1
EOS = 2
NUM_SPECIAL = 3


class Vocab:
    """An integer vocabulary: ids ``0..2`` are PAD/BOS/EOS, the rest content.

    The synthetic corpora only ever deal in integer ids, so the class is a
    thin arithmetic helper — but keeping it explicit prevents the classic
    off-by-special-token bugs in the seq2seq path.
    """

    def __init__(self, num_content_tokens: int) -> None:
        if num_content_tokens <= 0:
            raise ValueError("need at least one content token")
        self.num_content = int(num_content_tokens)

    @property
    def size(self) -> int:
        return self.num_content + NUM_SPECIAL

    def is_content(self, token_id: int) -> bool:
        return NUM_SPECIAL <= token_id < self.size

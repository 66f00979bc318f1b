"""Morphisms as rows: checked row arrays, and packed row keys to look rows up.

A hom-set is a 2-D array of non-negative integers, one row per
morphism, in strictly increasing lexicographic order.  A row's key
packs its digits into uint64 words, the first digit highest, so keys
sort as rows do and a row is found in its hom-set by a binary search
of its key.  The oracle checks every array a view or functor returns
with checked_rows before it indexes with it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class RowError(Exception):
    """An array that is not rows of the expected shape, or rows out of order."""


def checked_rows(value: object, shape: tuple, what: str) -> np.ndarray:
    """value as an array of non-negative integers of the given shape (None
    matches any length), or RowError naming its source in what."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise RowError(f"{what} gave no array: {exc}") from exc
    if arr.shape != shape and (
        len(arr.shape) != len(shape) or any(s not in (None, a) for s, a in zip(shape, arr.shape))
    ):
        expected = str(tuple("*" if s is None else s for s in shape)).replace("'", "")
        raise RowError(f"{what} gave shape {arr.shape}, expected {expected}")
    if arr.size and arr.dtype.kind not in "iu":
        raise RowError(f"{what} gave {arr.dtype} values, expected integers")
    if arr.size and arr.dtype.kind == "i" and arr.min() < 0:
        raise RowError(f"{what} gave the negative value {arr.min()}")
    return arr


def _words(rows: np.ndarray, bits: int) -> np.ndarray:
    """Rows of digits below 2**bits, packed into uint64 words along a new last axis.

    Each word holds as many whole digits as fit, the first digit in the
    highest bits, so comparing the words in order compares the rows
    lexicographically.  A row of width 0 is one word 0.
    """
    per = 64 // bits
    width = rows.shape[-1]
    words = []
    for start in range(0, max(width, 1), per):
        chunk = rows[..., start : start + per].astype(np.uint64)
        shifts = np.arange(chunk.shape[-1] - 1, -1, -1, dtype=np.uint64) * np.uint64(bits)
        words.append(chunk @ (np.uint64(1) << shifts))
    return words[0][..., None] if len(words) == 1 else np.stack(words, axis=-1)


def _keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of words: the word itself, or for rows of
    several words their big-endian bytes, which sort as the words do."""
    if words.shape[-1] == 1:
        return words[..., 0]
    wide = np.ascontiguousarray(words.astype(">u8"))
    return wide.view(f"V{8 * words.shape[-1]}")[..., 0]


def _strictly_increasing(words: np.ndarray) -> bool:
    """Whether the rows of words increase strictly, compared word by word."""
    before, after = words[:-1], words[1:]
    less = np.zeros(len(before), dtype=bool)
    equal = np.ones(len(before), dtype=bool)
    for col in range(words.shape[1]):
        less |= equal & (before[:, col] < after[:, col])
        equal &= before[:, col] == after[:, col]
    return bool(less.all())


class HomRows:
    """The rows of one hom-set, and the sorted keys that find a row's index in it.

    A digit takes as many bits as the largest digit of the hom-set; the
    keys are built, and the order of the rows checked, on first lookup.
    """

    def __init__(self, rows: object, what: str):
        self.rows = checked_rows(rows, (None, None), what)
        self.width = self.rows.shape[1]
        self.what = what
        largest = int(self.rows.max()) if self.rows.size else 0
        self.bits = max(1, largest.bit_length())

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def keys(self) -> np.ndarray:
        words = _words(self.rows, self.bits)
        if not _strictly_increasing(words):
            raise RowError(f"{self.what} gave rows that are not strictly increasing")
        return _keys(words)

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The index of each row of rows in this hom-set, -1 for a row not in it.

        A digit too wide for the hom-set's bits is in no member; its row
        is packed as zeros and then refused, so it cannot alias one.
        """
        inside = None
        if rows.size and rows.max() >> self.bits:
            inside = (rows >> self.bits == 0).all(axis=-1)
            rows = np.where(inside[..., None], rows, 0)
        keys = _keys(_words(rows, self.bits))
        if not len(self.keys):
            return np.full(keys.shape, -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        found = self.keys[at] == keys
        if inside is not None:
            found &= inside
        return np.where(found, at, -1)

"""Morphisms as rows: checked row arrays, and byte keys to look rows up.

A hom-set is a 2-D array of non-negative integers, one row per
morphism, in strictly increasing lexicographic order.  A row's key is
its digits as big-endian bytes of the smallest unsigned type that holds
the hom-set's largest digit, so keys sort as rows do and a row is found
in its hom-set by a binary search of its key.  The oracle checks every
array a view or functor returns with checked_rows before it indexes
with it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class RowError(Exception):
    """An array that is not rows of the expected shape, rows out of order, or
    an exception raised by the code under check while the oracle called it."""


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


def _strictly_increasing(rows: np.ndarray) -> bool:
    """Whether each row differs from the next, and at the first column
    where they differ has the smaller digit."""
    if len(rows) < 2:
        return True
    before, after = rows[:-1], rows[1:]
    differ = before != after
    if not differ.any(axis=1).all():
        return False
    first = differ.argmax(axis=1)[:, None]
    return bool((np.take_along_axis(before, first, 1) < np.take_along_axis(after, first, 1)).all())


class HomRows:
    """The rows of one hom-set, and the sorted keys that find a row's index in it.

    The keys are built, and the order of the rows checked, on first lookup.
    """

    def __init__(self, rows: object, what: str):
        self.rows = checked_rows(rows, (None, None), what)
        self.width = self.rows.shape[1]
        self.what = what
        largest = int(self.rows.max()) if self.rows.size else 0
        self.digit = np.min_scalar_type(largest).newbyteorder(">")
        self.key = np.dtype(f"V{self.digit.itemsize * self.width}")

    def __len__(self) -> int:
        return len(self.rows)

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One key per row of rows, whose digits all fit self.digit."""
        if not self.width:  # no bytes to view: every empty row has the one empty key
            return np.zeros(rows.shape[:-1], self.key)
        return np.ascontiguousarray(rows, self.digit).view(self.key)[..., 0]

    @cached_property
    def keys(self) -> np.ndarray:
        if not _strictly_increasing(self.rows):
            raise RowError(f"{self.what} gave rows that are not strictly increasing")
        return self._keys(self.rows)

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The index of each row of rows in this hom-set, -1 for a row not in it.

        A digit too large for the hom-set's digit type is in no member;
        its row is keyed as zeros and then refused, so it cannot wrap
        onto one.
        """
        inside = None
        top = np.iinfo(self.digit).max
        if rows.size and rows.max() > top:
            inside = (rows <= top).all(axis=-1)
            rows = np.where(inside[..., None], rows, 0)
        keys = self._keys(rows)
        if not len(self.keys):
            return np.full(keys.shape, -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        found = self.keys[at] == keys
        if inside is not None:
            found &= inside
        return np.where(found, at, -1)

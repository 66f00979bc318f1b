"""Morphisms as rows: the nine category views, checked row arrays, and
byte keys to look rows up.

A hom-set is a 2-D array of non-negative integers, one row per
morphism, in strictly increasing lexicographic order; category_view
lists, composes and names the rows of each of the nine categories.  A
row's key is its digits as big-endian bytes of the smallest unsigned
type that holds the hom-set's largest digit.  Keys sort as rows do, so
HomRows checks a hom-set's order at load as "its keys strictly
increase", and finds a row by a binary search of its key.  The oracle
checks every array a view or functor returns with checked_rows first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import Graph
from .cubes import standard_cube, twisted_cube
from .standard import (
    bch_compose_rows,
    bch_names,
    bch_rows,
    bound_constraints,
    compose_graph_rows,
    dimension_constraints,
    hom_matrix,
    vertex_dict,
)
from .twisted import semi_rows, ternary_compose_rows, ternary_rows, ternary_seq


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


class HomRows:
    """The rows of one hom-set, and the sorted keys that find a row's index in it.

    The keys are built at load, and refused unless they strictly increase.
    """

    def __init__(self, rows: object, what: str):
        self.rows = checked_rows(rows, (None, None), what)
        self.width = self.rows.shape[1]
        self.what = what
        largest = int(self.rows.max()) if self.rows.size else 0
        self.digit = np.min_scalar_type(largest).newbyteorder(">")
        self.top = np.iinfo(self.digit).max
        self.key = np.dtype(f"S{self.digit.itemsize * self.width}")
        self.keys = self._keys(self.rows)
        if not (self.keys[:-1] < self.keys[1:]).all():
            raise RowError(f"{what} gave rows that are not strictly increasing")

    def __len__(self) -> int:
        return len(self.rows)

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One key per row of rows, whose digits all fit self.digit."""
        if not self.width:  # no bytes to view: every empty row has the one empty key
            return np.zeros(rows.shape[:-1], self.key)
        return np.ascontiguousarray(rows, self.digit).view(self.key)[..., 0]

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The index of each row of rows in this hom-set, -1 for a row not in it.

        A digit too large for the hom-set's digit type is in no member;
        its row is keyed as zeros and then refused, so it cannot wrap
        onto one.
        """
        inside = None
        if rows.size and rows.max() > self.top:
            inside = (rows <= self.top).all(axis=-1)
            rows = np.where(inside[..., None], rows, 0)
        keys = self._keys(rows)
        if not len(self.keys):
            return np.full(keys.shape, -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        found = self.keys[at] == keys
        if inside is not None:
            found &= inside
        return np.where(found, at, -1)


@dataclass(frozen=True)
class FiniteCategoryView:
    """Just enough of a category to brute-force its laws, with morphisms as rows.

    Objects are the natural numbers up to some bound.  rows(m, n) is
    hom(m, n) as a 2-D array of non-negative integers, one row per
    morphism, in strictly increasing lexicographic order; equal rows are
    equal morphisms.  identity(n) is the row of id_n.
    compose_rows(m, n, p, h, g) takes rows h of hom(n, p) and rows g of
    hom(m, n) and returns the (len(h), len(g), w) array of the rows of
    every h∘g.  It is called on blocks of h rows, so each composite may
    depend only on its own pair.  describe(m, n, row) is the one name of
    a row of hom(m, n), a JSON value: the line homs prints for it (a
    string as it is, anything else as JSON), and the value a
    counterexample gives it.
    """

    name: str
    rows: Callable[[int, int], np.ndarray]
    identity: Callable[[int], np.ndarray]
    compose_rows: Callable[[int, int, int, np.ndarray, np.ndarray], np.ndarray]
    describe: Callable[[int, int, np.ndarray], object]

    def hom(self, m: int, n: int) -> tuple:
        """The names of the rows of hom(m, n), in row order."""
        return tuple(self.describe(m, n, row) for row in self.rows(m, n))


def _bch_name(m: int, n: int, row: np.ndarray) -> dict:
    """A bch arrow m -> n by name, as in {"m": 2, "n": 1, "map": ["j0", "b1"]}."""
    return {"m": m, "n": n, "map": bch_names(n, row.tolist())}


def _graph_view(
    name: str, build: Callable[[int], Graph], constraints: Optional[Callable]
) -> FiniteCategoryView:
    return FiniteCategoryView(
        name,
        lambda m, n: hom_matrix(build(m), build(n), constraints),
        lambda n: np.arange(len(build(n).vertices)),
        lambda m, n, p, h, g: compose_graph_rows(h, g),
        lambda m, n, row: vertex_dict(build(m), build(n), row.tolist()),
    )


def _ternary_view(name: str, rows: Callable[[int, int], np.ndarray]) -> FiniteCategoryView:
    return FiniteCategoryView(
        name,
        rows,
        lambda n: np.full(n, 2),
        lambda m, n, p, h, g: ternary_compose_rows(h, g),
        lambda m, n, row: ternary_seq(row),
    )


# the nine categories by id, in the order check runs their laws
_VIEWS = {
    view.name: view
    for view in (
        FiniteCategoryView(
            "bch", bch_rows, np.arange, lambda m, n, p, h, g: bch_compose_rows(h, g, p), _bch_name
        ),
        FiniteCategoryView(
            "bchop",
            lambda m, n: bch_rows(n, m),
            np.arange,
            lambda m, n, p, h, g: bch_compose_rows(g, h, m).transpose(1, 0, 2),
            lambda m, n, row: _bch_name(n, m, row),  # a bch arrow n -> m
        ),
        _graph_view("graphcube", standard_cube, None),
        _graph_view("graphmeet", standard_cube, bound_constraints),
        _graph_view("graphdim", standard_cube, dimension_constraints),
        _graph_view("twcubecat", twisted_cube, None),
        _graph_view("twgraphdim", twisted_cube, dimension_constraints),
        _ternary_view("ternary", ternary_rows),
        _ternary_view("semi", semi_rows),
    )
}
CATEGORY_IDS = tuple(_VIEWS)


def category_view(cat_id: str) -> FiniteCategoryView:
    """The nine categories by name, as brute-forceable views."""
    if cat_id not in _VIEWS:
        raise ValueError(f"unknown category id {cat_id!r}; choose one of {', '.join(CATEGORY_IDS)}")
    return _VIEWS[cat_id]


def hom_table(cat_id: str, max_dim: int) -> list[list[int]]:
    """|hom(m, n)| for m, n in 0..max_dim."""
    view = category_view(cat_id)
    return [[len(view.rows(m, n)) for n in range(max_dim + 1)] for m in range(max_dim + 1)]

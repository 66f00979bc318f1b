"""Operations specific to twisted cubes.

The twisted cube of dimension n is totally ordered by its free preorder
and carries a unique Hamiltonian path; the mutually inverse bijections
hamiltonian_f / order_g realize that order in closed form.
Dimension-preserving morphisms between twisted cubes factor uniquely
through an image face, which yields the ternary-notation presentation:
arrows are strings over {0, 1, ⋆} composed by substitution with a twist.
An arrow m -> n is a row of n digits, 0 and 1 for the constants and 2
for ⋆, with at most m stars; as substitution entries, its k-th star is
slot k - 1 and its constant d is m + d.  Its graph maps and composites
are standard's, flipped at each star by the parity of the zeros since
the previous star.  ternary_seq spells a row as its string, and
ternary_row reads a string back, checking it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from . import kernels
from .graphs import Vertex
from .standard import bch_compose_rows, substitution_maps

STAR = "*"


def hamiltonian_f(n: int, k: int) -> Vertex:
    """Vertex at position k in the total order of the twisted n-cube, solving
    order_g bit by bit.  Raises ValueError for k outside 0..2^n - 1."""
    if not 0 <= k < 1 << n:
        raise ValueError(f"position {k} out of range for the twisted {n}-cube")
    bits, flip = [], 0
    for i in range(n - 1, -1, -1):
        bit = ((k >> i) & 1) ^ flip
        bits.append(str(bit))
        flip ^= 1 - bit
    return "".join(bits)


def order_g(n: int, v: Vertex) -> int:
    """Position of vertex v in the total order: its bit i is bit i of v xored
    with the parity of the zeros of v before i, the closed-form cube's flip."""
    if len(v) != n:
        raise ValueError(f"expected a vertex of length {n}")
    k = flip = 0
    for c in v:
        k = 2 * k + ((c != "0") ^ flip)
        flip ^= c == "0"
    return k


def hamiltonian_path(n: int) -> list[tuple[Vertex, Vertex]]:
    """The consecutive steps hamiltonian_f(k) -> hamiltonian_f(k+1); the oracle's
    check_unique_hamiltonian checks them against the twisted cube's one path."""
    if n < 1:
        raise ValueError("hamiltonian_path needs n >= 1")
    return [(hamiltonian_f(n, k), hamiltonian_f(n, k + 1)) for k in range(2**n - 1)]


DIGITS = "01" + STAR  # a ternary character's digit is its position here


def ternary_row(seq: str, m: int) -> np.ndarray:
    """The digit row (2 for ⋆) of the ternary arrow m -> len(seq) that seq
    spells; ValueError for another character or for more than m stars."""
    bad = [i for i, c in enumerate(seq) if c not in DIGITS]
    if bad:
        raise ValueError(f"position {bad[0]}: invalid character {seq[bad[0]]!r}")
    if seq.count(STAR) > m:
        raise ValueError(f"{seq!r} has {seq.count(STAR)} stars, more than m={m}")
    return np.array([DIGITS.index(c) for c in seq], dtype=np.uint8)


def ternary_seq(row: Sequence[int]) -> str:
    """The ternary string of a digit row."""
    return "".join(DIGITS[d] for d in row)


def ternary_compose_rows(g: np.ndarray, f: np.ndarray, twist: bool = True) -> np.ndarray:
    """Composites g[i] ∘ f[j] of digit rows, as a (len(g), len(f), width of g) array.

    bch_compose_rows of g's entries after f: copy g's constants, and the
    k-th star takes f's k-th digit.  A binary value substituted at a star
    is xored with the parity of zeros among g's own constants since g's
    previous star.  (Counting zeros of the composite output instead
    breaks the identity laws; the graph side fixes this rule, and the
    tests cross-check it there.)  With twist=False the value is copied
    as it is: plain substitution, the standard-cube variant.
    """
    g, f = np.asarray(g), np.asarray(f)
    composites = bch_compose_rows(f, _entries(g, f.shape[1]), 0).transpose(1, 0, 2)
    if twist:
        composites = composites ^ (_zero_parity(g)[:, None, :] & (composites != 2))
    return composites


def _entries(rows: np.ndarray, m: int) -> np.ndarray:
    """The substitution entries of digit rows of arrows from m: slot k - 1 at
    the k-th star, and m + d at the constant d."""
    star = rows == 2
    return np.where(star, np.cumsum(star, axis=1) - 1, rows + np.intp(m))


def _zero_parity(rows: np.ndarray) -> np.ndarray:
    """At each star, the parity of the zeros of the row since its previous star; 0 elsewhere,
    in the smallest unsigned type that counts a row's digits, so that xoring it in keeps
    the digit rows' type."""
    star = rows == 2
    zeros = np.cumsum(rows == 0, axis=1, dtype=np.min_scalar_type(rows.shape[1]))
    at_star = np.maximum.accumulate(np.where(star, zeros, 0), axis=1)
    before = np.zeros_like(zeros)
    before[:, 1:] = at_star[:, :-1]
    return (zeros - before) & star


def ternary_compose(g: str, f: str, twist: bool = True) -> str:
    """The ternary string of g ∘ f, for f an arrow from its star count and g
    an arrow from len(f); see ternary_compose_rows.  Raises ValueError,
    checking f first, when either string is not such an arrow."""
    f_row = ternary_row(f, f.count(STAR))
    g_row = ternary_row(g, len(f))
    return ternary_seq(ternary_compose_rows(g_row[None], f_row[None], twist)[0, 0])


def ternary_to_graphdim_rows(m: int, n: int, rows: np.ndarray) -> np.ndarray:
    """Vertex maps T^m -> T^n of the digit rows of ternary arrows m -> n, one row each.

    The unique surjection onto the star count, then the face injection:
    the substitution maps of the rows' entries, flipped at each star by
    the parity of the zeros since the previous star.  That flip is the
    one choice that makes the injection edge-preserving: the source bit
    at a star lands after the earlier stars' flipped bits, whose flips
    cancel in pairs, and the fixed bits since the previous star.
    Raises ValueError for a row with more than m stars.
    """
    rows = np.asarray(rows)
    if ((rows == 2).sum(axis=1) > m).any():
        raise ValueError(f"a ternary arrow from {m} has at most {m} stars")
    return substitution_maps(m, n, _entries(rows, m), _zero_parity(rows))


def graphdim_to_ternary_rows(m: int, n: int, vmaps: np.ndarray) -> np.ndarray:
    """Digit rows read off vertex maps T^m -> T^n: the image face, with ⋆
    where the image varies and the constant bit elsewhere.  Raises
    ValueError when a map is not the one its image face gives back."""
    vmaps = np.asarray(vmaps)
    bits = (vmaps[:, :, None] >> np.arange(n - 1, -1, -1)) & 1
    rows = np.where(bits.min(axis=1) != bits.max(axis=1), 2, bits[:, 0, :])
    too_many = (rows == 2).sum(axis=1).max(initial=0) > m
    if too_many or (ternary_to_graphdim_rows(m, n, rows) != vmaps).any():
        raise ValueError("morphism is not dimension-preserving")
    return rows.astype(np.uint8)


@lru_cache(maxsize=None)
def ternary_rows(m: int, n: int) -> np.ndarray:
    """Digit rows of all ternary arrows m -> n, read-only, in canonical order (0 < 1 < ⋆):
    the kernel's rows of n digits, each prefix of over m digits with at most m stars."""
    at_most_m_stars = lambda rows: (rows == 2).sum(axis=1) <= m
    stars = [((k,), at_most_m_stars) for k in range(m, n)]
    return kernels.edge_preserving_maps(n, 3, (), np.ones((3, 3), dtype=bool), stars)


@lru_cache(maxsize=None)
def semi_rows(m: int, n: int) -> np.ndarray:
    """Digit rows of the semi variant: ternary arrows with exactly m stars."""
    rows = ternary_rows(m, n)
    rows = rows[(rows == 2).sum(axis=1) == m]
    rows.setflags(write=False)
    return rows

"""Reference predicates and operations on single morphisms, as plain data.

A bch arrow is (m, n, entries), a ternary arrow its string, and a graph
morphism a dict from source to target vertex names, which edge_checked
refuses unless it sends every edge to an edge.  The predicates check
the constrained hom enumerations row by row, with meets and joins from
a search over every vertex pair.  The Hamiltonian paths of a graph
come from an exhaustive search, and the total order of a twisted cube
from the paper's recursion over bit strings.  The composition loops,
the (z, d) chain and the face chain are the plain one-arrow versions
of the row operations in the package, which the tests compare them
with, and the candidate filters list the bch and ternary rows without
the hom enumeration kernel.  The hom-set counts are closed forms from
each notation's definition.
"""

from functools import lru_cache
from itertools import combinations
from math import comb, perm
from typing import Iterable, Optional, Sequence

import numpy as np

from cubecats.cubes import standard_cube, twisted_cube
from cubecats.graphs import Graph, Vertex, free_preorder
from cubecats.twisted import STAR


def int_to_bits(value: int, n: int) -> Vertex:
    """Big-endian bit string of length n for value (index 0 is leftmost)."""
    if not 0 <= value < (1 << n):
        raise ValueError(f"value {value} out of range for {n} bits")
    return format(value, f"0{n}b") if n else ""


def bits_to_int(bits: Vertex) -> int:
    return int(bits, 2) if bits else 0


def rev(x: str) -> str:
    """Flip every bit; as a number this sends i to 2^n - 1 - i."""
    return "".join("1" if c == "0" else "0" for c in x)


def f_bits(x: str) -> str:
    """The paper's recursion for the vertex at the position x spells:
    0x goes to 0 f(rev x), and 1x to 1 f(x)."""
    if not x:
        return ""
    if x[0] == "0":
        return "0" + f_bits(rev(x[1:]))
    return "1" + f_bits(x[1:])


def g_bits(x: str) -> str:
    """The paper's recursion for the position of the vertex x, inverse of
    f_bits: 0x goes to 0 rev(g(x)), and 1x to 1 g(x)."""
    if not x:
        return ""
    if x[0] == "0":
        return "0" + rev(g_bits(x[1:]))
    return "1" + g_bits(x[1:])


def bch_count(m: int, n: int) -> int:
    """|bch(m, n)|: choose which inputs hit outputs, an injection for them,
    constants elsewhere."""
    return sum(comb(m, k) * perm(n, k) * 2 ** (m - k) for k in range(min(m, n) + 1))


def ternary_count(m: int, n: int) -> int:
    """|ternary(m, n)|: n digits with k <= m stars, each other digit 0 or 1."""
    return sum(comb(n, k) * 2 ** (n - k) for k in range(min(m, n) + 1))


def semi_count(m: int, n: int) -> int:
    """|semi(m, n)|: n digits with exactly m stars, each other digit 0 or 1."""
    return comb(n, m) * 2 ** (n - m) if m <= n else 0


def bch_rows_reference(m: int, n: int) -> np.ndarray:
    """Entry rows of all bch arrows m -> n: every candidate row over n + 2
    entries, in lexicographic order, kept when no two slots share an output slot."""
    rows = np.indices((n + 2,) * m, dtype=np.uint8).reshape(m, (n + 2) ** m).T
    injective = np.ones(len(rows), dtype=bool)
    for i, j in combinations(range(m), 2):
        injective &= (rows[:, i] != rows[:, j]) | (rows[:, i] >= n)
    return rows[injective]


def ternary_rows_reference(m: int, n: int) -> np.ndarray:
    """Digit rows of all ternary arrows m -> n: every candidate row of n digits,
    in lexicographic order, kept when it has at most m stars."""
    rows = np.indices((3,) * n, dtype=np.uint8).reshape(n, 3**n).T
    return rows[(rows == 2).sum(axis=1) <= m]


@lru_cache(maxsize=None)
def bound_tables_reference(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of binary meets and joins, -1 where none exists uniquely,
    one vertex pair at a time: meet[i, j] is the greatest element of the
    common lower bounds of i and j in the free preorder, if there is one
    and only one, and join[i, j] the least common upper bound."""
    leq = free_preorder(g)
    n = len(g.vertices)
    meet = np.full((n, n), -1, dtype=np.int16)
    join = np.full((n, n), -1, dtype=np.int16)
    for i in range(n):
        for j in range(i, n):
            lower = leq[:, i] & leq[:, j]
            if lower.any():
                # greatest elements of the lower-bound set
                great = lower & leq[lower].all(axis=0)
                (idx,) = np.nonzero(great)
                if len(idx) == 1:
                    meet[i, j] = meet[j, i] = idx[0]
            upper = leq[i, :] & leq[j, :]
            if upper.any():
                least = upper & leq[:, upper].all(axis=1)
                (idx,) = np.nonzero(least)
                if len(idx) == 1:
                    join[i, j] = join[j, i] = idx[0]
    return meet, join


def hamiltonian_paths_reference(g: Graph) -> list[list[Vertex]]:
    """All directed Hamiltonian paths of g, by exhaustive depth-first search."""
    nv = len(g.vertices)
    succ = [[g.index[v] for u2, v in g.edge_list if u2 == u and v != u] for u in g.vertices]
    paths: list[list[Vertex]] = []
    path = [0] * nv

    def dfs(v: int, visited: int, depth: int) -> None:
        path[depth] = v
        if depth == nv - 1:
            paths.append([g.vertices[i] for i in path])
            return
        for w in succ[v]:
            bit = 1 << w
            if not visited & bit:
                dfs(w, visited | bit, depth + 1)

    for start in range(nv):
        dfs(start, 1 << start, 0)
    return paths


def has_cycle_reference(g: Graph) -> bool:
    """Whether g has a directed cycle through two or more vertices, from
    Warshall's transitive closure of its edges that are not loops."""
    reach = g.adjacency & ~np.eye(len(g.vertices), dtype=bool)
    for k in range(len(g.vertices)):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return bool(reach.diagonal().any())


def edge_checked(src: Graph, tgt: Graph, mapping: dict[Vertex, Vertex]) -> dict[Vertex, Vertex]:
    """mapping, a vertex map of src into tgt by name, after checking that it
    sends every edge of src to an edge of tgt."""
    for u, v in src.edges:
        if (mapping[u], mapping[v]) not in tgt.edges:
            raise ValueError(
                f"edge ({u}, {v}) maps to ({mapping[u]}, {mapping[v]}), not an edge of the target"
            )
    return mapping


def vertex_row(src: Graph, tgt: Graph, mapping: dict[Vertex, Vertex]) -> tuple[int, ...]:
    """The row of target indices of a vertex map given by name."""
    return tuple(tgt.index[mapping[v]] for v in src.vertices)


def preserves_meets(src: Graph, tgt: Graph, row: Sequence[int]) -> bool:
    """f(u ⊓ v) = f(u) ⊓ f(v) for every pair with a source meet, f the row."""
    return _preserves_bounds(src, tgt, row, 0)


def preserves_joins(src: Graph, tgt: Graph, row: Sequence[int]) -> bool:
    """f(u ⊔ v) = f(u) ⊔ f(v) for every pair with a source join, f the row."""
    return _preserves_bounds(src, tgt, row, 1)


def _preserves_bounds(src: Graph, tgt: Graph, vmap: Sequence[int], which: int) -> bool:
    src_table = bound_tables_reference(src)[which]
    tgt_table = bound_tables_reference(tgt)[which]
    nv = len(src.vertices)
    for i in range(nv):
        for j in range(i, nv):
            s = src_table[i, j]
            if s < 0:
                continue
            if tgt_table[vmap[i], vmap[j]] != vmap[s]:
                return False
    return True


def edge_dim(u: Vertex, w: Vertex) -> Optional[int]:
    """Dimension of a cube edge: the unique differing position, None for loops."""
    if u == w:
        return None
    diffs = [i for i, (a, b) in enumerate(zip(u, w)) if a != b]
    if len(diffs) != 1:
        raise ValueError(f"({u}, {w}) differs in {len(diffs)} positions, not a cube edge")
    return diffs[0]


def is_dimension_preserving(src: Graph, tgt: Graph, row: Sequence[int]) -> bool:
    """Edges of one source dimension all map to edges of one target dimension.

    Loops count as the trivial dimension; they always map to loops, so
    only the non-trivial classes need checking.
    """
    f = dict(zip(src.vertices, (tgt.vertices[i] for i in row)))
    image_dims: dict[int, set[Optional[int]]] = {}
    for u, w in src.edge_list:
        d = edge_dim(u, w)
        if d is None:
            continue
        image_dims.setdefault(d, set()).add(edge_dim(f[u], f[w]))
    return all(len(dims) == 1 for dims in image_dims.values())


Bch = tuple[int, int, tuple[int, ...]]  # (m, n, entries) of a bch arrow m -> n


def bch_compose_loop(outer: Bch, inner: Bch) -> Bch:
    """outer ∘ inner, one entry at a time: constants absorb."""
    (outer_m, outer_n, outer_entries), (inner_m, inner_n, inner_entries) = outer, inner
    if inner_n != outer_m:
        raise ValueError(f"cannot compose {outer_m}->{outer_n} after {inner_m}->{inner_n}")
    entries = []
    for e in inner_entries:
        if e < inner_n:
            entries.append(outer_entries[e])
        else:
            entries.append(e - inner_n + outer_n)
    return inner_m, outer_n, tuple(entries)


def compose_graph_loop(outer: dict[Vertex, Vertex], inner: dict[Vertex, Vertex]) -> dict:
    """outer ∘ inner, one vertex at a time."""
    return {v: outer[w] for v, w in inner.items()}


def ternary_compose_loop(g: str, f: str, twist: bool = True) -> str:
    """g ∘ f, one character at a time: substitute f along g's stars, xoring a
    binary value with the parity of g's zeros since its previous star."""
    out = []
    j = 0
    zeros_since_star = 0
    for ch in g:
        if ch == STAR:
            value = f[j]
            j += 1
            if value == STAR or not twist:
                out.append(value)
            else:
                out.append(str(int(value) ^ (zeros_since_star & 1)))
            zeros_since_star = 0
        else:
            out.append(ch)
            if ch == "0":
                zeros_since_star += 1
    return "".join(out)


class PartialInjection:
    """Slot map m -> n with one undefined value, injective where defined.

    entries[i] in 0..n-1 is a defined image; n means undefined.
    """

    def __init__(self, m: int, n: int, entries: Iterable[int]):
        entries = tuple(int(e) for e in entries)
        if len(entries) != m:
            raise ValueError(f"expected {m} entries, got {len(entries)}")
        defined = [e for e in entries if e < n]
        if any(not 0 <= e <= n for e in entries):
            raise ValueError("entries out of range")
        if len(defined) != len(set(defined)):
            raise ValueError("not injective on defined slots")
        self.m = m
        self.n = n
        self.entries = entries

    def defined(self, i: int) -> bool:
        return self.entries[i] < self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartialInjection)
            and (self.m, self.n, self.entries) == (other.m, other.n, other.entries)
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.entries))


def transpose_partial_injection(p: PartialInjection) -> PartialInjection:
    """Swap directions: q(j) = i exactly when p(i) = j; involutive."""
    entries = [p.m] * p.n
    for i, e in enumerate(p.entries):
        if e < p.n:
            entries[e] = i
    return PartialInjection(p.n, p.m, entries)


def _one_hot(n: int, i: int) -> Vertex:
    return int_to_bits(1 << (n - 1 - i), n)


@lru_cache(maxsize=None)
def base_subgraph(n: int) -> Graph:
    """The chain's first step: the full subgraph of the standard n-cube on
    the origin and the one-hot vertices."""
    cube = standard_cube(n)
    kept = {v for v in cube.vertices if v.count("1") <= 1}
    return Graph(kept, ((u, v) for u, v in cube.edges if u in kept and v in kept))


def extend_base_morphism(m: int, n: int, h: dict[Vertex, Vertex]) -> dict[Vertex, Vertex]:
    """Unique join-preserving extension of a base-subgraph morphism.

    h maps the origin-plus-one-hot subgraph of the m-cube into the n-cube,
    edge-checked; every cube vertex is the join of the base vectors it
    contains, so the extension sends it to the join of their images.
    """
    edge_checked(base_subgraph(m), standard_cube(n), h)
    z = bits_to_int(h[int_to_bits(0, m)])
    basis = [bits_to_int(h[_one_hot(m, i)]) for i in range(m)]
    source = standard_cube(m)
    images = {}
    for v in source.vertices:
        val = z
        for i, bit in enumerate(v):
            if bit == "1":
                val |= basis[i]
        images[v] = int_to_bits(val, n)
    return edge_checked(source, standard_cube(n), images)


def chain_bchop_to_graphmeet(m: int, n: int, entries: Sequence[int]) -> dict[Vertex, Vertex]:
    """The six-step chain from the bch arrow m -> n of the entries to a map
    C^n -> C^m: split it into constant bits z and a partial injection e,
    transpose e to d, read (z, d) as a base-subgraph morphism, extend it
    join-preservingly."""
    src_dim, tgt_dim = n, m
    slot = [e < n for e in entries]
    z = "".join("0" if slot[j] else str(entries[j] - n) for j in range(m))
    e = PartialInjection(tgt_dim, src_dim, [entries[j] if slot[j] else src_dim for j in range(m)])
    d = transpose_partial_injection(e)
    z_int = bits_to_int(z)
    mapping = {int_to_bits(0, src_dim): z}
    for i in range(src_dim):
        val = z_int if not d.defined(i) else z_int | (1 << (tgt_dim - 1 - d.entries[i]))
        mapping[_one_hot(src_dim, i)] = int_to_bits(val, tgt_dim)
    return extend_base_morphism(src_dim, tgt_dim, mapping)


def chain_graphmeet_to_bchop(m: int, n: int, g: dict[Vertex, Vertex]) -> tuple[int, ...]:
    """The inverse chain from a map C^m -> C^n to the entries of a bch arrow
    n -> m: read (z, d) off the origin and one-hot images, when the
    join-preserving extension of those images gives g back."""
    if extend_base_morphism(m, n, {v: g[v] for v in base_subgraph(m).vertices}) != g:
        raise ValueError("morphism is not in the meet-and-join-preserving class")
    z = g[int_to_bits(0, m)]
    d_entries = []
    for i in range(m):
        w = g[_one_hot(m, i)]
        diffs = [j for j in range(n) if w[j] != z[j]]
        if not diffs:
            d_entries.append(n)
        elif len(diffs) == 1 and z[diffs[0]] == "0":
            d_entries.append(diffs[0])
        else:
            raise ValueError("morphism is not in the meet-and-join-preserving class")
    e = transpose_partial_injection(PartialInjection(m, n, d_entries))
    return tuple(e.entries[j] if e.defined(j) else m + int(z[j]) for j in range(n))


def unique_surjection(m: int, n: int) -> dict[Vertex, Vertex]:
    """The one surjective dimension-preserving map: drop trailing coordinates."""
    if m < n:
        raise ValueError(f"no surjective morphism from dimension {m} to {n}")
    src, tgt = twisted_cube(m), twisted_cube(n)
    return edge_checked(src, tgt, {v: v[:n] for v in src.vertices})


def _face_flips(face: str) -> list[int]:
    """Orientation flips per star: parity of fixed zeros since the last star."""
    flips = []
    zeros_since_star = 0
    for ch in face:
        if ch == STAR:
            flips.append(zeros_since_star & 1)
            zeros_since_star = 0
        elif ch == "0":
            zeros_since_star += 1
    return flips


def face_to_injection(face: str) -> dict[Vertex, Vertex]:
    """The edge-checked injection of twisted cubes whose image is the face,
    a string over 01 and ⋆: the k-th star takes bit k xored with its flip."""
    src, tgt = twisted_cube(face.count(STAR)), twisted_cube(len(face))
    flips = _face_flips(face)
    mapping = {}
    for u in src.vertices:
        out = []
        j = 0
        for ch in face:
            if ch == STAR:
                out.append(str(int(u[j]) ^ flips[j]))
                j += 1
            else:
                out.append(ch)
        mapping[u] = "".join(out)
    return edge_checked(src, tgt, mapping)


def image_face(f: dict[Vertex, Vertex]) -> str:
    """⋆ where the image varies, the constant bit elsewhere."""
    images = list(f.values())
    return "".join(
        STAR if len({img[j] for img in images}) > 1 else images[0][j]
        for j in range(len(images[0]))
    )


def chain_ternary_to_graphdim(m: int, seq: str) -> dict[Vertex, Vertex]:
    """For the ternary arrow m -> len(seq), the edge-checked face injection
    after the unique surjection onto the star count."""
    return compose_graph_loop(face_to_injection(seq), unique_surjection(m, seq.count(STAR)))


def chain_graphdim_to_ternary(m: int, f: dict[Vertex, Vertex]) -> str:
    """The image face of a map from T^m, when the chain gives f back."""
    seq = image_face(f)
    if chain_ternary_to_graphdim(m, seq) != f:
        raise ValueError("morphism is not dimension-preserving")
    return seq

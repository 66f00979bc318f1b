"""Standard and twisted cube categories as executable constructions.

Cube graphs in recursive and closed form, the hom-sets of the nine
categories as rows, composition in ternary notation, and brute-force
oracles that cross-verify every equivalence at small dimensions.
"""

__version__ = "0.1.0"

from .graphs import (
    CapacityError,
    Graph,
    Vertex,
    free_preorder,
    graph_from_json,
    graph_to_json,
    is_total_order,
)
from .cubes import cube_rec, standard_cube, to_dot, twisted_cube
from .standard import (
    bch_compose_rows,
    bchop_to_graphmeet_rows,
    compose_graph_rows,
    enumerate_graph_homs,
    graphmeet_to_bchop_rows,
    vertex_dict,
)
from .twisted import (
    graphdim_to_ternary_rows,
    hamiltonian_f,
    hamiltonian_path,
    order_g,
    ternary_compose,
    ternary_row,
    ternary_to_graphdim_rows,
)
from .rows import CATEGORY_IDS, FiniteCategoryView, category_view, hom_table

__all__ = [name for name in dir() if not name.startswith("_")]

"""Standard and twisted cube categories as executable constructions.

Cube graphs in recursive and closed form, five interchangeable views of
their morphisms, composition in ternary notation, and brute-force
oracles that cross-verify every equivalence at small dimensions.
"""

__version__ = "0.1.0"

from .graphs import (
    CapacityError,
    Graph,
    Preorder,
    Vertex,
    free_preorder,
    full_subgraph,
    graph_from_json,
    graph_to_json,
    is_total_order,
    join,
    meet,
)
from .cubes import (
    Dim,
    EdgeLabel,
    LabeledCubeGraph,
    Loop,
    base_subgraph,
    ordinary_iteration,
    standard_cube,
    standard_cube_nonrec,
    standard_cube_rec,
    to_dot,
    twisted_cube,
    twisted_cube_nonrec,
    twisted_cube_rec,
    twisted_iteration,
)
from .standard import (
    BchMorphism,
    GraphMorphism,
    PartialInjection,
    bch_compose,
    bch_identity,
    bchop_to_graphmeet,
    compose_graph_morphisms,
    enumerate_graph_homs,
    extend_base_morphism,
    graphmeet_to_bchop,
    identity_graph_morphism,
    transpose_partial_injection,
)
from .twisted import (
    Face,
    TernaryMorphism,
    face_to_injection,
    faces,
    factorize,
    graphdim_to_ternary,
    hamiltonian_f,
    hamiltonian_path,
    image_face,
    order_g,
    ternary_compose,
    ternary_identity,
    ternary_to_graphdim,
    unique_surjection,
)
from .oracle import (
    CATEGORY_IDS,
    CheckReport,
    FiniteCategoryView,
    brute_hamiltonian,
    category_view,
    check_category_laws,
    check_isomorphism,
    hom_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Colour-based graph contraction.

Collapses every maximal connected monochromatic region of a vertex-coloured
graph to a single vertex.  The engine reaches that quotient by iterating a
locally defined contraction step; a naive traversal-based reference, an
adversarial worst-case generator and seeded random generators support
cross-checking and experiments.
"""

from .engine import (
    ContractionMapping,
    ContractionTrace,
    IterationRecord,
    apply_contraction,
    contract_to_fixpoint,
    equivalent_contractions,
    evaluate_contraction_mapping,
    iteration_bound,
)
from .generators import RandomSpec, assign_random_colours, gen_erdos_renyi, permute_enumeration
from .graph import ColouredGraph, graphs_equal, new_graph
from .graph_io import (
    GraphParseError,
    export_dot,
    parse_graph,
    serialize_graph,
    stats_dict,
    stats_json,
)
from .oracle import colour_partition
from .worstcase import (
    FibInstance,
    classify_roles,
    fib_number,
    generate_fib_instance,
)

__all__ = [
    "ColouredGraph",
    "new_graph",
    "graphs_equal",
    "colour_partition",
    "ContractionMapping",
    "ContractionTrace",
    "IterationRecord",
    "iteration_bound",
    "apply_contraction",
    "evaluate_contraction_mapping",
    "contract_to_fixpoint",
    "equivalent_contractions",
    "FibInstance",
    "fib_number",
    "generate_fib_instance",
    "classify_roles",
    "RandomSpec",
    "gen_erdos_renyi",
    "assign_random_colours",
    "permute_enumeration",
    "GraphParseError",
    "parse_graph",
    "serialize_graph",
    "export_dot",
    "stats_dict",
    "stats_json",
]

__version__ = "0.1.0"

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
    build_functional_digraph,
    compact_mapping,
    compose_total_mapping,
    contract_to_fixpoint,
    equivalent_contractions,
    evaluate_contraction_mapping,
    iteration_bound,
    project_to_roots,
)
from .generators import RandomSpec, assign_random_colours, gen_erdos_renyi, permute_enumeration
from .graph import (
    ColouredGraph,
    colour_neighbourhood_set,
    graphs_equal,
    new_graph,
)
from .graph_io import (
    GraphParseError,
    export_dot,
    parse_graph,
    serialize_graph,
    stats_dict,
    stats_json,
)
from .oracle import colour_component, colour_partition, component_contraction
from .worstcase import (
    FibInstance,
    FibReport,
    classify_roles,
    fib_number,
    generate_fib_instance,
    verify_fib_instance,
)

__all__ = [
    "ColouredGraph",
    "new_graph",
    "colour_neighbourhood_set",
    "graphs_equal",
    "colour_component",
    "colour_partition",
    "component_contraction",
    "ContractionMapping",
    "ContractionTrace",
    "IterationRecord",
    "iteration_bound",
    "build_functional_digraph",
    "project_to_roots",
    "compact_mapping",
    "apply_contraction",
    "evaluate_contraction_mapping",
    "contract_to_fixpoint",
    "compose_total_mapping",
    "equivalent_contractions",
    "FibInstance",
    "FibReport",
    "fib_number",
    "generate_fib_instance",
    "verify_fib_instance",
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

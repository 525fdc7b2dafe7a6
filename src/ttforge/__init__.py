"""ttforge: combinatorial train track maps and their induced representatives.

The package machine-checks a promotion pipeline: an expanding irreducible
train track map on a finite graph (possibly not injective on the fundamental
group) is lifted to an expanding irreducible train track representative of the
injective endomorphism induced on the stable quotient, together with the
semi-conjugating maps and the exact constant relating the two dynamical
systems.  Supporting layers: Serre graphs and graph maps, transition-matrix
analysis, Stallings foldings, lifts of maps into cores, and exact rational
semiflows on mapping tori.
"""

__version__ = "0.1.0"

from .graphs import (
    SerreGraph, CyclicPath, GraphMap,
    rose, inv, edge_of, reduce_darts, compose, validate,
    format_path,
)
from .traintrack import (
    TransitionMatrix, transition_matrix, is_irreducible, has_positive_power,
    is_expanding, pf_eigenvalue, TurnSystem, is_train_track,
    legal_loop_through, find_invariant_subgraph,
)
from .freegroup import (
    SubgroupGraph, LabeledGraph, fold, whole_group_graph, Pi1Endomorphism,
    pi1_endomorphism, image_chain, image_subgroup, is_injective_on,
    kernel_stabilization, stable_quotient, chain_quotient, map_subgroup,
    subgroup_rank,
    hall_completion,
)
from .covers import NotLiftableError, based_lift_power, lift_graph_map
from .induced import (
    InducedPackage, VerificationReport, SizeBudgetExceeded,
    find_periodic_vertex, injectivity_exponent, build_induced,
    verify_package, conjugacy_check,
)
from .suspension import (
    MappingTorus, TorusPoint, GraphPoint, CoverPoint, CoverDescriptor,
    vertex_point, edge_point, map_point, flow, return_time, h_maps,
    FlowHomotopyPair, breakpoint_samples, iterate_breakpoints,
    make_cover_descriptor, project_point, seam_crossings,
    section_first_return,
)
from .randmaps import (
    GenerationStats, certification_failure, corpus, random_train_track_map,
)

"""Exact computation of Smith groups, critical groups, characteristic ideals
over Z[t], and the algebraic co-rank of simple graphs, with classifiers for
the small-invariant-factor graph families and a miner for minimal forbidden
induced subgraphs."""

__version__ = "0.1.0"

from .catalog import FAMILY_F, FORBIDDEN_S4, lookup
from .classify import (ClassificationReport, CrossCheckResult, classify,
                       cross_check, is_C_leq, is_K_leq_regular, is_S_leq)
from .graph_ideals import (CharIdealProfile, algebraic_corank, all_k_minors_in_ideal,
                           char_ideal_profile, characteristic_ideal,
                           multipartite_closed_form)
from .graphs import (BlowupSpec, Graph, Graph6Error, adjacency_matrix, blowup,
                     laplacian_matrix, parse_edge_list, parse_graph6, to_graph6)
from .intlinalg import (ConsistencyError, InvariantFactors, delta_sequence,
                        gcd_of_k_minors, invariant_factors_from_deltas, snf_diagonal)
from .isomorphism import canonical_form, find_induced, is_isomorphic
from .mining import MiningResult, MiningTask, enumerate_connected, mine
from .zpoly import ZPoly
from .ztideal import GroebnerBuilder, IdealZt

__all__ = [
    "BlowupSpec", "CharIdealProfile", "ClassificationReport", "ConsistencyError",
    "CrossCheckResult", "FAMILY_F", "FORBIDDEN_S4", "Graph",
    "Graph6Error", "GroebnerBuilder", "IdealZt", "InvariantFactors",
    "MiningResult", "MiningTask", "ZPoly", "adjacency_matrix",
    "algebraic_corank", "all_k_minors_in_ideal", "blowup", "canonical_form",
    "char_ideal_profile", "characteristic_ideal", "classify", "cross_check",
    "delta_sequence", "enumerate_connected", "find_induced",
    "gcd_of_k_minors", "invariant_factors_from_deltas", "is_C_leq",
    "is_K_leq_regular", "is_S_leq", "is_isomorphic",
    "laplacian_matrix", "lookup", "mine", "multipartite_closed_form",
    "parse_edge_list", "parse_graph6", "snf_diagonal", "to_graph6",
]

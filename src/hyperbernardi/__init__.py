"""Bernardi processes, Jaeger trees, interior/exterior polynomials, and
an exact root-polytope verifier for ribbon bipartite graphs."""

__version__ = "0.1.0"

from .bernardi import (HT_E_CUT_E, HT_E_CUT_V, HT_V_CUT_E, HT_V_CUT_V,
                       BernardiRun, ProcessVariant, TheoremViolation,
                       bernardi_polynomials, check_composition, embedding_inactivities,
                       bernardi_runs, graph_specialization_check, run_bernardi)
from .campaign import (CampaignReport, arborescence_duality,
                       campaign_verify_all, check_conjectures,
                       fuzz_conjectures, verify_noncrossing)
from .docio import (GraphFormatError, format_polynomial, parse_graph,
                    parse_hypertree, serialize_graph)
from .graph import (EMERALD, VIOLET, RibbonBipartiteGraph, RibbonGraph,
                    ValidationError, bip)
from .hypertree import (Poly, break_divisors, enumerate_hypertrees,
                        exterior_polynomial, external_inactivity,
                        interior_polynomial, internal_inactivity,
                        is_hypertree, tutte_check, tutte_x_polynomial)
from .jaeger import (ECUT, VCUT, TOrder, characterize_tree,
                     enumerate_jaeger_trees, graph_activity_matching,
                     is_jaeger_tree, semi_passive_edges, shelling, t_order)
from .polytope import (TreeSimplex, ehrhart_values, ehrhart_values_scan,
                       fit_binomial_coefficients, geometric_shelling_check,
                       kato_series_check, shelling_h_vector, verify_dissection)

"""fmlab: property detection, type counting, indiscernible extraction, and
classification checks for finite relational structures."""

__version__ = "0.1.0"

from .core import (Atom, And, Or, Not, Implies, Iff, Exists, Forall,
                   PartitionedFormula, PhiType, Signature, Structure,
                   TupleSequence, atom_formula, closed_under_negation,
                   evaluate, realized_types, tp)
from .detect import (CoverViolation, IndependenceWitness, SplittingChainFailure,
                     OrderWitness, SplitWitness, WeakOrderWitness, arrow_check,
                     build_rho, find_cover_violation, find_k_independence,
                     find_n_order, find_weak_m_order, splitting_order_witness,
                     splits, stirling_threshold, verify_cover_violation,
                     verify_independence, verify_order, verify_split,
                     verify_weak_order)
from .counting import (BoundReport, ShatterWitness, chained_inequality,
                       count_phi_types, exponent_dominates, find_shattered,
                       no_order_exponent, sauer_bound, verify_independence_bound,
                       verify_order_bound, verify_shattered)
from .indisc import (BoundParams, ConstantGrowth, ExtractionFailure,
                     ExtractionTrace, HypergraphBoundedGrowth,
                     HypergraphWorstGrowth, IndiscernibilityCertificate,
                     PolynomialGrowth, TypeOracle, WorstCaseGrowth, beth,
                     check_indiscernible, extraction_length_estimates,
                     extract_end_indiscernible, extract_indiscernible, f_star,
                     g_func)
from .ramsey import (E_bound, ExperimentConfig, RGraph, bound_compare,
                     coupon_q, extract_homogeneous, exact_fixed_witness_probability,
                     fixed_witness_trial, graph_has_k_independence,
                     hypergraph_F, hypergraph_fstar,
                     independence_probability_mc, lambda_nk,
                     rgraph_lacks_independence, sample_graph_rows, stirling2,
                     independence_trend, verify_homogeneous)
from .classify import (AmalgamConfig, AmalgamResult, ClassContext, DeltaStar,
                       GoodnessContext, GoodnessRefutation, KappaResult,
                       PrecReport, average_type, delta_star, exchange_check,
                       goodness_delta, is_good, kappa, make_class_context,
                       prec_K, stable_amalgam, symmetry_test)
from .formats import (FormulaSource, ParseError, StructureDocument,
                      emit_report, parse_formula, parse_structure,
                      serialize_formula, serialize_structure, subset_key)
from .util import (BudgetExceeded, EvaluationError, FmlabError,
                   PreconditionError, SplitMix64, TooLargeError, mix_seed,
                   search_budget)

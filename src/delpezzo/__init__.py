"""Exact-arithmetic K-stability invariants of log del Pezzo surfaces."""

from .exactnum import DomainError, PiecewisePoly, Poly, Rat, rat, rat_str
from .lattice import DivClass, SurfaceModel, enumerate_neg_curves, is_nef, load_models
from .catalog import catalog_names, get_model
from .positivity import (ConeDataError, NotPseudoeffectiveError, VolumeProfile,
                         ZariskiDecomp, pseff_threshold, volume, volume_profile,
                         zariski)
from .valuative import (Invariants, PlaneCurveGerm, ResolutionGraph, SingClass,
                        classify, discrepancies, invariants, lct_newton,
                        unstable_certificate)
from .azflag import (FlagPoint, FlagSpec, builtin_flags, delta_p_lower_bound,
                     restricted_S, semistable_via_flags)
from .localvol import (MarkovTriple, QuotientSing, is_T_singularity,
                       local_global_check, markov_tree, monomial_nvol,
                       nvol_quotient, singularity_budget, wps_volume)
from .gitcubic import (CubicForm, OnePS, apply_coordinate_change, catalog_verdicts,
                       hm_weight, torus_destabilizer)

__version__ = "0.1.0"

"""Exact kernel for the alternating central extension of the q-Onsager algebra."""

from .qfield import G0, RHO, QRat, q_int, q_pow
from .words import (Family, Generator, NCPoly, Weight, dagger, is_irreducible,
                    sigma, symbol_from_subscript, word_degree, word_weight)
from .rewrite import (OverlapReport, RuleApplication, apply_rule, check_overlap,
                      enumerate_overlaps, measure_decreases, normal_form,
                      rule_application)
from .series import (Report, TruncSeries, appendixA_series, check_gf_relations,
                     check_prop41_decompositions, exact_divide, gf)
from .central import (check_central, check_dolan_grady,
                      check_matrix_factorization, ddown_transform, delta_n,
                      down_transform, recover_generators, subst_ST, z_bar, z_n,
                      z_series)
from .dims import (check_dim_identity, enumerate_irreducible, hilbert_Aq,
                   hilbert_Oq, partitions_count)

__version__ = "0.1.0"

"""Exact SL(n,Z) block factorization with root-system ordering machinery."""

from .exactmat import (as_matrix, determinant, identity, multiply, random_word,
                       sup_norm)
from .sl2 import GcdTransform, gcd_transform
from .decompose import (BlockFactor, Factorization, decompose_clockwise,
                        decompose_column_major, embed, quasi_isometry_stats,
                        verify)
from .rootsys import (ClassOrdering, Projection, RootSystem, build,
                      class_ordering, is_closed, positive_roots,
                      sample_projection, side_sets, verify_notation_invariants)
from .bigcell import (BigCellFactorization, corner_minors,
                      denominator_and_norm_check, in_big_cell,
                      ul_factorize, unipotent_class_split)
from .harness import CampaignConfig, compare_strategies, run_campaign

__all__ = [
    "as_matrix", "determinant", "identity", "multiply", "random_word",
    "sup_norm",
    "GcdTransform", "gcd_transform",
    "BlockFactor", "Factorization", "decompose_clockwise",
    "decompose_column_major", "embed", "quasi_isometry_stats", "verify",
    "ClassOrdering", "Projection", "RootSystem", "build", "class_ordering",
    "is_closed", "positive_roots", "sample_projection", "side_sets",
    "verify_notation_invariants",
    "BigCellFactorization", "corner_minors", "denominator_and_norm_check",
    "in_big_cell", "ul_factorize", "unipotent_class_split",
    "CampaignConfig", "compare_strategies", "run_campaign",
]

__version__ = "0.1.0"

"""idealcensus: exact counts of finite-codimension right ideals of the
group algebra of the free group on two generators, with the permutation,
code-tree and congruence combinatorics behind them."""

__version__ = "0.1.0"

from .qpoly import (
    EvalAtZero,
    LaurentPoly,
    NonUnitConstantTerm,
    TruncatedSeries,
    q_factorial,
)
from .permstat import (
    DuplicateLetters,
    enumerate_indecomposables,
    enumerate_permutations,
    hook_number,
    hook_union_size,
    indec_inversion_polynomial,
    indec_inversion_polynomials,
    inversions,
    is_indecomposable,
    lehmer_indec_polynomial,
    lehmer_indec_polynomials,
    lr_maxima,
    standardize,
    strip_lr_maxima,
)
from .words import (
    A_INVERSE,
    CodeTree,
    EmptyWord,
    InvalidSignature,
    TreeSignature,
    TreeStats,
    TrivialTree,
    enumerate_trees,
    parse_word,
    reconstruct,
    signature,
    tree_stats,
    twisted_compare,
    word_str,
)
from .congruence import (
    NotIndecomposable,
    NotRegular,
    RightCongruence,
    action_table,
    enumerate_regular,
    from_indecomposable,
    hall_count,
    is_regular,
    subgroup_generators,
    to_indecomposable,
)
from .linfq import (
    FqMatrix,
    NonSquare,
    TooLarge,
    count_invertible_rows,
    count_invertible_support,
    enumerate_matrices,
    is_invertible,
)
from .haglund import haglund_hook_sum, haglund_product
from .ideals import (
    Census,
    CodimensionZero,
    cell_decomposition,
    ideal_count_brute_force,
    ideal_count_by_trees,
    ideal_count_formula,
    ideal_count_hook_formula,
)

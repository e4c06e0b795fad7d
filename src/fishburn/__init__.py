"""Matchings without left nestings, factorial posets, and their relatives.

A small exact-combinatorics library around one family of objects counted by
n! (matchings of {1,...,2n} with no left-nesting, inversion tables,
factorial posets, permutations) and its Fishburn- and Catalan-counted
subfamilies, together with the bijections linking them, the statistics they
carry, exhaustive generators, and a registry of executable checks for the
counting theorems and conjectured equidistributions the classes satisfy.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DuplicateEndpoint, EndpointOutOfRange, EntryOutOfRange, FishburnError,
    HasLeftCrossing, HasLeftNesting, InvalidMatrix, InvalidObject,
    NegativeEntry, NotAPartialOrder, NotAPerfectMatching, NotAPermutation,
    NotFactorial, NotTwoPlusTwoFree, NotUpperTriangular, NotZeroOne,
    UnknownCheck, UnknownClass, UnknownPredicate, UnknownStatistic,
    ZeroRowOrColumn,
)
from .objects import (
    Matching, NestCrossRecord, Poset, TriangularMatrix, arc_statistics,
    condition_one, condition_one_var, count_gap_nestings, is_ascent_correcting,
    is_descent_correcting, is_dually_factorial, is_factorial, is_natural,
    is_three_plus_one_free, is_two_plus_two_free, is_zero_one, rne_poset,
    validate_permutation, validate_table,
)
from .bijections import (
    canonical_labeling, canonical_labels, crossfree_matching_to_table,
    matching_to_matrix, matching_to_poset, matching_to_table,
    matrix_is_noncrossing_image, matrix_is_nonnesting_image,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting, permutation_to_table,
    poset_to_matching, poset_to_matrix, poset_to_table, relabel_poset,
    table_to_crossfree_matching, table_to_matching, table_to_permutation,
    table_to_poset, zero_one_matrix_to_matching,
)
from .statistics import (
    VOCABULARY, count_pattern_p, matching_stats, perm_stats, poset_stats,
    stat_tuple, stats_for,
)
from .enumeration import (
    DistributionTable, catalan, distribution, double_factorial,
    eulerian_triangle_row, filter_class, fishburn_numbers,
    gen_ascent_sequences, gen_factorial_posets, gen_inversion_tables,
    gen_matchings, gen_matrices, gen_natural_posets, gen_permutations,
    generate, second_order_eulerian,
)

# The check registry loads when one of its names is first read (PEP 562).
_VERIFY_NAMES = ("CheckReport", "REGISTRY", "run_all", "run_check")


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# every public name bound above that is not a module, then the lazy ones
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += _VERIFY_NAMES

__version__ = "0.1.0"

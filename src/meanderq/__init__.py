"""Exact meander/semi-meander polynomials, deformed Fock-space moments and
moment-problem tooling, cross-verified through a two-sided Wick formula."""

from .errors import EnumerationCapError, GroundSetError
from .partitions import (
    IndexTuple,
    PairPartition,
    Permutation,
    SetPartition,
    act,
    block_count,
    crossings,
    enumerate_noncrossing,
    enumerate_pair_partitions,
    interval_pairs,
    join,
    kernel,
    labels_to_heights,
    rainbow,
    side_pattern_permutation,
)
from .dyck import (
    ChoiceTuple,
    DyckTuple,
    alternating_pattern,
    choice_bounds,
    choice_number,
    choices_to_partition,
    crossings_from_choices,
    dyck_tuple_of,
    enumerate_bnc2_alternating,
    enumerate_dyck,
    enumerate_preimage,
    is_dyck,
    partition_to_choices,
    preimage_size,
    to_lattice_path,
    walk_preimage,
)
from .polynomials import (
    BivarPoly,
    kronecker_poly,
    meander_poly,
    semi_meander_poly,
)
from .scalars import FORMAL, Mode, QPoly, parse_q
from .fock import (
    FockVector,
    apply,
    apply_q_scaling,
    basis_vector,
    commutator_defect,
    gaussian_joint_moment,
    meander_moment,
    meander_moment_direct,
    q_inner_product,
    semi_meander_moment,
    word_vector,
)
from .qwick import (
    WickProduct,
    bnc_moment_q0,
    doubled_compatible_count,
    doubled_compatible_count_bruteforce,
    height_compatible,
    wick_scalar_combinatorial,
    wick_scalar_operator,
)
from .spectra import (
    JacobiRecurrence,
    MomentSequence,
    Quadrature,
    hankel_psd_check,
    jacobi_from_moments,
    meander_moments,
    negativity_witness,
    quadrature_from_jacobi,
    realize,
    semi_meander_moments,
    semi_meander_norm_bounds,
)

__version__ = "0.1.0"

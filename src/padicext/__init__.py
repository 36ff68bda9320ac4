"""Exact census and brute-force verifier for prime-power extensions of
local fields without intermediate fields."""

__version__ = "0.1.0"

from .census import (CensusEntry, CensusReport, DegreeExponent,
                     ExtensionParams, census_by_group, census_identity_check,
                     degree_exponent, total_classes)
from .action import (AuxFieldData, MetacyclicGroup, build_group, constituents,
                     default_aux_data, level_indices, make_aux_data,
                     pair_classes, span_profile)
from .arith import (factorize, order_pair_count, order_pair_product,
                    split_fraction)
from .errors import CapacityError, DomainError, InvariantError
from .ffield import FieldCtx, make_field
from .groups import (CatalogEntry, GroupDescriptor, MatrixPair, catalog,
                     generator_matrices, group_closure_order, split_class)
from .oracle import (Module, classify_submodule,
                     enumerate_irreducible_submodules, oracle_census, spin,
                     subspace_count_law)
from .ramify import (DiscriminantReport, HerbrandMap, JumpSchedule,
                     RamificationProfile, WildInputs, audit,
                     different_valuation, disc_exponent_closed,
                     discriminant_report, herbrand_convert, jump_schedule,
                     upper_dim)

__all__ = [name for name in dir() if not name.startswith("_")]

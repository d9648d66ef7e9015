"""Exact enumeration and verification of skew morphisms of finite cyclic groups."""

from .enumeration import (
    CensusRecord,
    automorphisms,
    brute_force,
    census,
    census_range,
    enumerate_coset_preserving,
    lift,
)
from .families import family_4p
from .quotient import quotient_of
from .skew_core import (
    IdentityNotFixedError,
    NoPowerExponentError,
    NotPermutationError,
    SkewMorphism,
    SkewMorphismError,
    automorphism_of,
    equivalence_classes,
    verify,
)
from .store import MemoryStore, Store

__all__ = [
    "CensusRecord",
    "IdentityNotFixedError",
    "MemoryStore",
    "NoPowerExponentError",
    "NotPermutationError",
    "SkewMorphism",
    "SkewMorphismError",
    "Store",
    "automorphism_of",
    "automorphisms",
    "brute_force",
    "census",
    "census_range",
    "enumerate_coset_preserving",
    "equivalence_classes",
    "family_4p",
    "lift",
    "quotient_of",
    "verify",
]

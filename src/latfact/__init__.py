"""Multiplicative lattices, radical factorization, and ideal systems."""

from .core import ElemRef, MultLattice, PredicateRecord, TestWindow
from .errors import LatFactError
from .factor import (
    FactorChain,
    canonical_chain,
    check_sp_conditions,
    is_product_of_radicals,
    radical_factor,
    verify_uniqueness,
)
from .finite import FiniteMultLattice, load, materialize_from_divisors, save, validate_document
from .instances import (
    dedekind,
    numerical_monoid,
    power_of_j,
    power_of_j_from_int,
    rank2_valuation,
)
from .represent import alpha, build_phi, build_spectrum, homeomorphic, v, verify_iso
from .usc import USCFun, add, decompose, is_radical, join_d, meet_d, recompose

__all__ = [
    "ElemRef",
    "FactorChain",
    "FiniteMultLattice",
    "LatFactError",
    "MultLattice",
    "PredicateRecord",
    "TestWindow",
    "USCFun",
    "add",
    "alpha",
    "build_phi",
    "build_spectrum",
    "canonical_chain",
    "check_sp_conditions",
    "decompose",
    "dedekind",
    "homeomorphic",
    "is_product_of_radicals",
    "is_radical",
    "join_d",
    "load",
    "materialize_from_divisors",
    "meet_d",
    "numerical_monoid",
    "power_of_j",
    "power_of_j_from_int",
    "radical_factor",
    "rank2_valuation",
    "recompose",
    "save",
    "v",
    "validate_document",
    "verify_iso",
    "verify_uniqueness",
]

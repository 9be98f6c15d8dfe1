"""Exact-arithmetic toolkit for the (n-5)-filiform nilpotent Lie algebra
classification: the 103-family catalog, its isomorphism invariants, and
verification suites that recompute every printed table value."""

from .lie import BasisChange, LieAlgebra, Subspace, abelian, heisenberg
from .invariants import (
    CharSequence,
    Fingerprint,
    char_sequence,
    char_sequence_of_vector,
    fingerprint,
    is_p_filiform,
    nilindex,
    pairwise_distinguish,
)
from .derivations import (
    DerivationSpace,
    WeightSignature,
    derivation_algebra,
    derivation_space,
    derivation_tower_index,
    diagonal_derivations,
    is_characteristically_nilpotent,
    verify_weight_vector,
)
from .template import GenericN5Law, instantiate, template_match

__version__ = "0.1.0"

__all__ = [
    "BasisChange",
    "CharSequence",
    "DerivationSpace",
    "Fingerprint",
    "GenericN5Law",
    "LieAlgebra",
    "Subspace",
    "WeightSignature",
    "abelian",
    "char_sequence",
    "char_sequence_of_vector",
    "derivation_algebra",
    "derivation_space",
    "derivation_tower_index",
    "diagonal_derivations",
    "fingerprint",
    "heisenberg",
    "instantiate",
    "is_characteristically_nilpotent",
    "is_p_filiform",
    "nilindex",
    "pairwise_distinguish",
    "template_match",
    "verify_weight_vector",
]

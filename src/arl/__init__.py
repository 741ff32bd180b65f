"""Exact calculus of towers of finite abelian groups over a prime l.

The library models projective systems of finite l-groups together with the
shift-class (Artin-Rees) morphism calculus on them: zero systems, l-adic
systems, stable images, the canonical l-adic replacement, the image-quotient
functor at a symbolic infinite index with its reconstruction partner, and
inverse limits valued in finitely generated Z_l-modules.  Everything is
computed in exact integer arithmetic and every semi-decidable question
returns a certificate or a witness.
"""

from .errors import (
    ArlError,
    CompositionMismatch,
    FiniteIndex,
    InfiniteGroup,
    NegativeResult,
    NonStabilizing,
    NotARladic,
    NotLAdic,
    PreconditionViolated,
    PrimeMismatch,
    TowerFileError,
    TruncatedTower,
)
from .intmat import IntMatrix, hermite_normal_form, smith_normal_form
from .groups import (
    FinAbGroup,
    GroupHom,
    canonicalize,
    cyclic,
    direct_sum_hom,
    direct_sum_with_maps,
    hom_cokernel,
    hom_image,
    hom_kernel,
    identity_hom,
    is_exact_at,
    quotient_by_integer,
    trivial_group,
    zero_hom,
)
from .zlmod import ZlModule
from .towers import (
    HomRule,
    TailRule,
    Tower,
    TowerHom,
    Verdict,
    ZeroCertificate,
    classify_tail,
    cokernel_is_zero_system,
    constant_tower,
    direct_sum,
    is_l_adic,
    is_zero_system,
    kernel_is_zero_system,
    ladic_truncation,
    levelwise_cokernel,
    levelwise_kernel,
    mod_power,
    natural_map,
    shift,
    sum_embeddings,
)
from .arcat import (
    ARMor,
    CanonicalLAdic,
    ar_compose,
    ar_equal,
    ar_from_tower_hom,
    ar_identity,
    ar_is_isomorphism,
    ar_zero,
    canonical_l_adic,
    certify_ar_l_adic,
    factorization_radius,
    kernel_bound_check,
    reshift,
    stable_image_bound,
    stable_image_tower,
)
from .hypernat import HyperNat
from .upsilon import (
    UpsilonHom,
    UpsilonObj,
    ar_canonical_rep,
    check_right_exact,
    faithfulness_check,
    phi_iso,
    psi,
    star_tower,
    upsilon,
    upsilon_mor,
)
from .limits import (
    ComparisonReport,
    TorsionCriterionResult,
    comparison_check,
    ladic_iff_torsionfree,
    limit,
    tensor_zl,
    to_tower,
)

__version__ = "0.1.0"

"""Exact restrictions of equivariant Schubert classes in types A, B, C."""

from .poly import (
    CancellationError,
    FactoredPoly,
    LinearForm,
    Polynomial,
    divide_linear,
    expand,
)
from .rootsys import (
    LieType,
    RootSystem,
    Vector,
    build_root_system,
    h_root,
    pairing,
    reflect,
    root_system,
)
from .schubert import (
    Chain,
    GkmReport,
    NonGenericPointError,
    Subword,
    chain_contribution,
    enumerate_c0,
    enumerate_max_chains,
    enumerate_reduced_subwords,
    f_i_map,
    gkm_check_class,
    gt_term_eval,
    lambda_minus,
    subword_contribution,
    tau_billey,
    tau_chain,
    tau_gt_eval,
)
from .typea import (
    Permutation,
    canonical_word_iv,
    element_to_perm,
    inv_set,
    parse_oneline,
    perm_to_element,
    tau_typea,
    verify_equivalence,
)
from .weyl import (
    WeylElement,
    Word,
    all_reduced_words,
    bruhat_leq,
    covers_above,
    element_from_word,
    enumerate_elements,
    h_pair,
    identity,
    omega_drop,
    reflection,
    simple_reflection,
)

__version__ = "0.1.0"

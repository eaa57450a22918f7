"""The public names of the package: a removal or an addition is an edit here."""

import types

import schubres

PUBLIC_NAMES = [
    "CancellationError",
    "Chain",
    "FactoredPoly",
    "GkmReport",
    "LieType",
    "LinearForm",
    "NonGenericPointError",
    "Permutation",
    "Polynomial",
    "RootSystem",
    "Subword",
    "Vector",
    "WeylElement",
    "Word",
    "all_reduced_words",
    "bruhat_leq",
    "build_root_system",
    "canonical_word_iv",
    "chain_contribution",
    "covers_above",
    "divide_linear",
    "element_from_word",
    "element_to_perm",
    "enumerate_c0",
    "enumerate_elements",
    "enumerate_max_chains",
    "enumerate_reduced_subwords",
    "expand",
    "f_i_map",
    "gkm_check_class",
    "gt_term_eval",
    "h_pair",
    "h_root",
    "identity",
    "inv_set",
    "lambda_minus",
    "omega_drop",
    "pairing",
    "parse_oneline",
    "perm_to_element",
    "reflect",
    "reflection",
    "root_system",
    "simple_reflection",
    "subword_contribution",
    "tau_billey",
    "tau_chain",
    "tau_gt_eval",
    "tau_typea",
    "verify_equivalence",
]


def test_public_names_are_pinned():
    # Submodules are left out: importing one, as the CLI does, adds it to
    # the package namespace.
    names = sorted(
        name
        for name, value in vars(schubres).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES

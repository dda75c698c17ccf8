"""The case names of every verify suite, pinned.  The benchmark's known
failures and its report checks key on these names, so a rename fails here
first.  Names do not depend on --n-max, so the suites run at 3 to stay fast."""

import json

import pytest

from opx import cli

FAMILIES = {
    "chebyshev1": ["--family", "chebyshev1"],
    "laguerre": ["--family", "laguerre", "--gamma", "0.5"],
    "jacobi": ["--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"],
}
# the CLI's default shifts: -2 and 3, or -1 on the half line
KERNELS = {
    "chebyshev1": ["-2", "3"],
    "laguerre": ["-1"],
    "jacobi": ["-2", "3"],
}
QUASI = [
    "difference_equation_proof_form",
    "difference_equation_stated_form",
    "order1_moment_annihilation",
    "order2_moment_annihilation",
    "qk_orthogonality_engineered",
]
RECOVERY = [
    "geronimus_solved_mass",
    "geronimus_transform_orthogonality",
    "recovery_identity_christoffel",
    "recovery_identity_geronimus",
    "recovery_identity_order2",
    "recovery_identity_uvarov",
    "uvarov_transform_orthogonality",
]
RATIOS = [
    "confluent_cd_identity",
    "gauss_cf_vs_series",
    "gauss_cf_vs_series_nonterminating",
    "kummer_cf_vs_series",
    "ratio_limit_vs_cd_branch",
    "ratio_reciprocal_identity",
]
# each family's recorded-only continued-fraction prefactor case
PREFACTOR = {
    "chebyshev1": "chebyshev_tabulated_closed_form_gap",
    "laguerre": "laguerre_prefactor_discrepancy",
    "jacobi": "jacobi_prefactor_discrepancy",
}
CHAINS = ["g_sequence_chain_positive", "quarter_chain_minimal_params", "quarter_chain_positive"]


def _names(family, suite):
    text, _ = cli.run(cli._parse(["verify", "--suite", suite, "--n-max", "3", *FAMILIES[family]]))
    return [case["name"] for case in json.loads(text)["cases"]]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_case_names(family):
    kernels = [
        f"{stem}_k{k}"
        for stem in ("kernel_branch_agreement", "kernel_orthogonality", "kernel_ttrr", "op_from_kernels")
        for k in KERNELS[family]
    ]
    assert _names(family, "kernels") == kernels
    assert _names(family, "quasi") == QUASI
    assert _names(family, "recovery") == RECOVERY
    assert _names(family, "ratios") == sorted([*RATIOS, PREFACTOR[family]])
    assert _names(family, "chains") == CHAINS

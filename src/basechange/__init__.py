"""Exact-arithmetic laboratory for cuspidal characters of rank-one groups
over small finite fields: cyclotomic numbers, finite fields and their
characters, finite group tables with a character-table oracle, explicit
cuspidal formulas, quadratic base change, twisted-conjugacy norms,
extraspecial groups with torus actions, and verification suites.
"""

from .cyclo import Cyclotomic, root_of_unity
from .ffield import FField, MultChar, NormOneChar, make_field
from .grpcore import (
    ClassFunction,
    GroupTable,
    character_table,
    conjugacy_classes,
    induce,
    inner_product,
    restrict,
    table_to_csv,
    table_to_json,
    trivial_character,
)
from .rankone import (
    UnitarySpec,
    build_gl2,
    build_sl2,
    build_u2,
    embed_quadratic_torus,
    norm_class_map,
    tau,
    tau_classes,
)
from .cuspchar import (
    gl2_cuspidal,
    match_oracle,
    sigma0,
    sigma0_expected_parameter,
    sl2_cuspidal,
    sl2_reducible_formula,
    u2_cuspidal,
)
from .heis import (
    build_extraspecial,
    extend,
    heisenberg_rep,
    lemma_H_verify,
    multiplicities,
    torus_action_consequences,
    torus_realization,
)
from .report import Check, Report, report_to_json
from .verify import SUITES

__version__ = "0.1.0"

__all__ = [
    "Check",
    "ClassFunction",
    "Cyclotomic",
    "FField",
    "GroupTable",
    "MultChar",
    "NormOneChar",
    "Report",
    "SUITES",
    "UnitarySpec",
    "build_extraspecial",
    "build_gl2",
    "build_sl2",
    "build_u2",
    "character_table",
    "conjugacy_classes",
    "embed_quadratic_torus",
    "extend",
    "gl2_cuspidal",
    "heisenberg_rep",
    "induce",
    "inner_product",
    "lemma_H_verify",
    "make_field",
    "match_oracle",
    "multiplicities",
    "norm_class_map",
    "report_to_json",
    "restrict",
    "root_of_unity",
    "sigma0",
    "sigma0_expected_parameter",
    "sl2_cuspidal",
    "sl2_reducible_formula",
    "table_to_csv",
    "table_to_json",
    "tau",
    "tau_classes",
    "torus_action_consequences",
    "torus_realization",
    "trivial_character",
    "u2_cuspidal",
]

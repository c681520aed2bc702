"""Exact-arithmetic laboratory for cuspidal characters of rank-one groups
over small finite fields: cyclotomic numbers, finite fields and their
characters, finite group tables with a character-table oracle, explicit
cuspidal formulas, quadratic base change, twisted-conjugacy norms,
extraspecial groups with torus actions, and verification suites.

Importing the package loads none of its modules: each public name is
imported from its module on first access and then bound here, so
``import basechange.cli`` loads only what the command line needs
(``cli`` and ``usage``, ``cuspchar`` with ``cyclo``, ``ffield``,
``grpcore`` and ``rankone``, and ``report``).  ``verify`` is loaded by the
``verify`` and ``heis`` commands, and ``heis`` by the heis suite alone.
"""

_EXPORTS = {
    "cyclo": ("Cyclotomic", "root_of_unity"),
    "ffield": ("FField", "MultChar", "NormOneChar", "make_field"),
    "grpcore": (
        "ClassFunction",
        "GroupTable",
        "character_table",
        "conjugacy_classes",
        "induce",
        "inner_product",
        "restrict",
        "table_to_csv",
        "table_to_json",
        "trivial_character",
    ),
    "rankone": (
        "UnitarySpec",
        "build_gl2",
        "build_sl2",
        "build_u2",
        "embed_quadratic_torus",
        "norm_class_map",
        "tau",
        "tau_classes",
    ),
    "cuspchar": (
        "gl2_cuspidal",
        "match_oracle",
        "sigma0",
        "sigma0_expected_parameter",
        "sl2_cuspidal",
        "sl2_reducible_formula",
        "u2_cuspidal",
    ),
    "heis": (
        "build_extraspecial",
        "extend",
        "heisenberg_rep",
        "lemma_H_verify",
        "multiplicities",
        "torus_action_consequences",
        "torus_realization",
    ),
    "report": ("Check", "Report", "report_to_json"),
    "verify": ("SUITES",),
}

# Each public name's defining module.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(__import__(__name__ + "." + module, fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

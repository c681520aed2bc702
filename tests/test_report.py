"""The report model module and the import structure around it: heis and
verify both build reports from basechange.report, heis never imports
verify, and verify imports heis only inside the heis suite's loader.  Also
the one size gate every module goes through."""

import ast
from pathlib import Path

import pytest

import basechange
from basechange import report
from basechange.heis import lemma_H_verify
from basechange.report import Check, Report, _bulk_check, counterexample_check

SRC = Path(basechange.__file__).resolve().parent


class TestModel:
    def test_heis_checks_are_report_checks(self):
        assert type(lemma_H_verify(3, 1, 2, "split").checks[0]) is report.Check

    def test_verify_reexports_the_model(self):
        from basechange import verify

        assert verify.Check is Check
        assert verify.Report is Report

    def test_json_writer_comes_from_report(self):
        # cli and the package take the writer from report; verify builds
        # reports and never writes one, so it has no writer of its own.
        from basechange import cli, verify

        assert cli.report_to_json is report.report_to_json
        assert basechange.report_to_json is report.report_to_json
        assert not hasattr(verify, "report_to_json")

    def test_counterexample_check_pass(self):
        c = counterexample_check("x", None, "all good")
        assert c == Check(name="x", status="pass", details="all good")

    @pytest.mark.parametrize("bad", [(1, "a"), 0, "", ()])
    def test_counterexample_check_fail(self, bad):
        # Only None passes: a falsy counterexample still fails the check.
        c = counterexample_check("x", bad, "all good")
        assert c.status == "fail"
        assert c.details == "all good"
        assert c.counterexample == repr(bad)

    def test_bulk_check_counts_failures(self):
        c = _bulk_check("x", [(2, 3), (4, 5)], "ok")
        assert (c.status, c.details, c.counterexample) == ("fail", "ok; 2 failures", "(2, 3)")
        assert _bulk_check("x", [], "ok") == Check(name="x", status="pass", details="ok")


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _called_names(tree):
    """The names called in tree, as f(...) or x.f(...)."""
    funcs = (n.func for n in ast.walk(tree) if isinstance(n, ast.Call))
    return {getattr(f, "id", None) or getattr(f, "attr", None) for f in funcs}


class TestSizeGate:
    """One gate decides whether a group is too large: grpcore.require_order
    is the only code that refuses a group for its size and the only wording
    of the refusal, and every family context is reached through
    cuspchar.family_context, which checks the bound on every lookup."""

    MODULES = sorted(p.name for p in SRC.glob("*.py"))

    def test_the_refusal_is_formatted_only_in_grpcore(self):
        holders = [m for m in self.MODULES if "exceeds size bound" in (SRC / m).read_text()]
        assert holders == ["grpcore.py"]

    @pytest.mark.parametrize("module", MODULES)
    def test_context_factories_are_called_only_through_the_registry(self, module):
        called = _called_names(ast.parse((SRC / module).read_text()))
        assert not called & {"gl2_context", "sl2_context", "u2_context"}

    def test_the_bound_is_read_only_by_the_gate_and_its_two_readers(self):
        # cli rejects a malformed bound up front; grpcore holds the gate.
        readers = [
            m
            for m in self.MODULES
            if "max_group_order" in _called_names(ast.parse((SRC / m).read_text()))
        ]
        assert readers == ["cli.py", "grpcore.py"]

    def test_inside_grpcore_only_the_gate_reads_the_bound(self):
        tree = ast.parse((SRC / "grpcore.py").read_text())
        readers = [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and "max_group_order" in _called_names(fn)
        ]
        assert readers == ["require_order"]

    @pytest.mark.parametrize("module", MODULES)
    def test_no_other_literal_words_a_size_refusal(self, module):
        tree = ast.parse((SRC / module).read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body
            and isinstance(node.body[0], ast.Expr)
        }
        words = [
            n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings
            and "exceeds" in n.value and "bound" in n.value
        ]
        assert words == (["%s order %d exceeds size bound %d"] if module == "grpcore.py" else [])

    def test_the_old_gates_are_gone(self):
        from basechange import cuspchar, rankone, verify

        for mod in (cuspchar, rankone, verify):
            assert not hasattr(mod, "_bounded") and not hasattr(mod, "_require_size")


class TestImportStructure:
    # Every import inside a function, per module, as (function, imported
    # module): cli loads verify only for the commands that run a suite, and
    # verify loads heis only for the heis suite.  Any other one fails.
    LAZY_IMPORTS = {
        "heis.py": set(),
        "verify.py": {("_load_heis", "heis")},
        "cli.py": {("_cmd_verify", "verify"), ("_cmd_heis", "verify")},
    }

    @pytest.mark.parametrize("module", list(LAZY_IMPORTS))
    def test_no_import_inside_a_function(self, module):
        tree = ast.parse((SRC / module).read_text())
        found = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in _imports(fn):
                    if isinstance(node, ast.ImportFrom) and node.module:
                        found.add((fn.name, node.module))
                    else:  # import x, or from . import x
                        found |= {(fn.name, a.name) for a in node.names}
        assert found == self.LAZY_IMPORTS[module]

    def test_heis_does_not_import_verify(self):
        tree = ast.parse((SRC / "heis.py").read_text())
        names = {n.module for n in _imports(tree) if isinstance(n, ast.ImportFrom)}
        names |= {a.name for n in _imports(tree) if isinstance(n, ast.Import) for a in n.names}
        assert not any(name and name.split(".")[-1] == "verify" for name in names)

    def test_heis_does_not_import_random(self):
        # Its group-law checks are exact over the generating set; sampling
        # must not come back unnoticed.
        tree = ast.parse((SRC / "heis.py").read_text())
        names = {n.module for n in _imports(tree) if isinstance(n, ast.ImportFrom)}
        names |= {a.name for n in _imports(tree) if isinstance(n, ast.Import) for a in n.names}
        assert "random" not in names

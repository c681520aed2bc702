"""The report model module and the import structure around it: heis and
verify both build reports from basechange.report, and neither imports the
other inside a function."""

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


class TestImportStructure:
    @pytest.mark.parametrize("module", ["heis.py", "verify.py", "cli.py"])
    def test_no_import_inside_a_function(self, module):
        tree = ast.parse((SRC / module).read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not _imports(fn), "%s: import inside %s()" % (module, fn.name)

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

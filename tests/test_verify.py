"""Verification suites: pass statuses on the standard parameters, report
schema, and byte-level determinism across runs."""

import json

import pytest

from conftest import find

from basechange import verify
from basechange.cuspchar import FAMILIES, canonical_gamma_rep
from basechange.cyclo import ZERO
from basechange.ffield import MultChar
from basechange.report import report_to_json
from basechange.verify import (
    DEFAULT_HEIS_TUPLES,
    Check,
    Report,
    SUITES,
    _cuspidal_rows,
    suite_endoscopic_finite,
    suite_heisenberg,
    suite_level0_basechange,
    suite_norm_bijection,
    suite_restriction_sl2,
)


class TestReportModel:
    def test_check_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="unknown check status"):
            Check(name="x", status="maybe", details="")

    def test_passed_ignores_skipped(self):
        rpt = Report(
            suite="s",
            params={},
            checks=[
                Check(name="a", status="pass", details=""),
                Check(name="b", status="skipped", details=""),
            ],
        )
        assert rpt.passed
        rpt.checks.append(Check(name="c", status="fail", details=""))
        assert not rpt.passed

    def test_json_schema(self):
        rpt = suite_level0_basechange(3)
        data = json.loads(report_to_json(rpt))
        assert set(data) == {"suite", "params", "checks"}
        assert data["suite"] == "level0_basechange"
        assert data["params"] == {"q": 3}
        for c in data["checks"]:
            assert set(c) == {"name", "status", "details", "counterexample"}
            assert c["status"] in {"pass", "fail", "skipped"}
            assert c["counterexample"] is None or isinstance(c["counterexample"], str)

    def test_registry_names(self):
        assert set(SUITES) == {
            "level0_basechange",
            "norm_bijection",
            "restriction_sl2",
            "endoscopic_finite",
            "heisenberg",
        }
        for name, fn in SUITES.items():
            assert callable(fn)


class TestLevel0:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_passes(self, q):
        rpt = suite_level0_basechange(q)
        assert rpt.passed
        assert [c.name for c in rpt.checks] == [
            "parameter_transport",
            "basechange_identity",
            "boundary_minus_one_recorded",
            "generator_trace_nonzero",
        ]

    def test_boundary_is_recorded_not_asserted(self):
        rpt = suite_level0_basechange(3)
        boundary = rpt.checks[2]
        assert boundary.status == "pass"
        assert "recorded, not asserted" in boundary.details
        assert "x^(1-q) = -1: 4" in boundary.details

    def test_identity_point_counts(self):
        rpt = suite_level0_basechange(5)
        assert "64 regular elliptic points" in rpt.checks[1].details


class TestNormBijection:
    def test_passes_at_q3(self):
        rpt = suite_norm_bijection(3)
        assert rpt.passed
        assert [c.name for c in rpt.checks] == [
            "well_defined",
            "injective",
            "surjective_onto_unitary_classes",
            "count_matches",
        ]
        assert "16 twisted classes" in rpt.checks[1].details

    def test_skips_beyond_bound(self):
        rpt = suite_norm_bijection(5)
        assert rpt.passed
        assert len(rpt.checks) == 1
        assert rpt.checks[0].to_dict() == {
            "name": "size_bound",
            "status": "skipped",
            "details": "GL2 order 374400 exceeds size bound 10000",
            "counterexample": None,
        }

    def test_a_malformed_bound_raises(self, monkeypatch):
        # Only a group over the bound is a skipped check.
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "abc")
        with pytest.raises(ValueError, match="BASECHANGE_MAX_GROUP must be a positive integer, got 'abc'"):
            suite_norm_bijection(3)


class TestRestriction:
    @pytest.mark.parametrize("q", [3, 5])
    def test_passes(self, q):
        rpt = suite_restriction_sl2(q)
        assert rpt.passed
        assert [c.name for c in rpt.checks] == [
            "oracle_cuspidal_count",
            "restriction_norm_dichotomy",
            "two_component_structure",
            "single_component_structure",
            "restriction_matches_formula",
            "trivial_character_lane",
        ]

    def test_split_counts(self):
        assert "1 of 3 split" in suite_restriction_sl2(3).checks[1].details
        assert "2 of 10 split" in suite_restriction_sl2(5).checks[1].details

    def test_the_subgroup_is_certified_once(self, monkeypatch):
        # Every restrict of the suite reads one fusion map; its certificate
        # is the only product of GL2(5) the suite takes once the tables exist.
        gl, sl = FAMILIES["gl2"](5), FAMILIES["sl2"](5)
        assert gl.table and sl.table
        monkeypatch.delitem(sl.group.derived, ("fusion", gl.group), raising=False)
        calls = [0]
        real = gl.group._products

        def counted(group, xs, ys):
            xs = list(xs)
            calls[0] += len(xs)
            return real(group, xs, ys)

        monkeypatch.setattr(gl.group, "_products", counted)
        assert suite_restriction_sl2(5).passed
        assert calls[0] == sl.group.order * len(sl.group.generators())

    @pytest.mark.parametrize("family", ["gl2", "sl2"])
    @pytest.mark.parametrize("q", [3, 5])
    def test_cuspidal_rows_are_the_rows_without_n_fixed_vectors(self, family, q):
        # dim chi^N = (1/q) sum_b chi(n(b)), over the matrices n(b) = (1, b, 0, 1).
        # GL2 has q(q-1)/2 cuspidal irreducibles, SL2 (q-1)/2 + 2.
        ctx = FAMILIES[family](q)
        F, G = ctx.k0, ctx.group
        n = [ctx.classes.class_of[find(G, F, (F.one, b, F.zero, F.one))] for b in F.elements()]
        dims = [(sum((chi.on_class(ci) for ci in n), ZERO) / q).as_integer() for chi in ctx.table]
        assert min(dims) == 0
        assert _cuspidal_rows(ctx) == [i for i, dim in enumerate(dims) if dim == 0]
        assert len(_cuspidal_rows(ctx)) == (q * (q - 1) // 2 if family == "gl2" else (q + 3) // 2)


class TestEndoscopic:
    @pytest.mark.parametrize("q", [3, 5])
    def test_passes(self, q):
        rpt = suite_endoscopic_finite(q)
        assert rpt.passed
        assert [c.name for c in rpt.checks] == [
            "u2_unique_oracle_match",
            "u2_swap_symmetry",
            "sigma0_irreducible",
            "sigma0_identification",
            "sigma0_central_degree",
            "extension_choice_invariant",
        ]

    def test_combination_counts(self):
        assert "24 pair x extension" in suite_endoscopic_finite(3).checks[2].details
        assert "240 pair x extension" in suite_endoscopic_finite(5).checks[2].details

    @pytest.mark.parametrize("q, pairs", [(3, 6), (5, 15)])
    def test_sigma0_is_built_once_per_pair_and_omega(self, q, pairs, monkeypatch):
        # Omega = Theta1 * Theta2 takes q - 1 values over the (q-1)^2
        # extension choices of a pair: 12 builds at q = 3 and 60 at q = 5.
        calls, norms = [], []
        real_sigma0, real_inner = verify.sigma0, verify.inner_product
        monkeypatch.setattr(verify, "sigma0", lambda *a: calls.append(a) or real_sigma0(*a))
        monkeypatch.setattr(
            verify, "inner_product", lambda *a: norms.append(a) or real_inner(*a)
        )
        assert suite_endoscopic_finite(q).passed
        assert len(calls) == len(norms) == pairs * (q - 1)
        keys = {(a[0].s, a[1].s, (a[2] * a[3]).t) for a in calls}
        assert len(keys) == len(calls)

    def test_a_dropped_gamma_twist_fails_identification(self, monkeypatch):
        # The expected parameter Theta1 * Theta2, without the twist, depends
        # on Omega alone and is wrong for some Omega of some pair.
        monkeypatch.setattr(
            verify,
            "sigma0_expected_parameter",
            lambda T1, T2: canonical_gamma_rep(T1 * T2),
        )
        checks = {c.name: c for c in suite_endoscopic_finite(5).checks}
        assert checks["sigma0_identification"].status == "fail"
        assert [c.name for c in checks.values() if c.status != "pass"] == [
            "sigma0_identification"
        ]

    def test_each_combination_is_checked_on_its_own(self, monkeypatch):
        # One wrong expectation at one (j1, j2) of one pair is one failure,
        # though its Omega is shared by q - 2 other choices of that pair.
        real = verify.sigma0_expected_parameter
        n1 = 6

        def off_at_one(T1, T2):
            expected = real(T1, T2)
            if (T1.t, T2.t) == (1 + n1 * 2, 2 + n1 * 1):
                return MultChar(expected.field, expected.t + 1)
            return expected

        monkeypatch.setattr(verify, "sigma0_expected_parameter", off_at_one)
        check = suite_endoscopic_finite(5).checks[3]
        assert check.status == "fail"
        assert check.details.endswith("; 1 failures")
        assert check.counterexample.startswith("(1, 2, 2, 1, ")


class TestHeisenbergSuite:
    def test_default_passes_with_40_checks(self):
        rpt = suite_heisenberg()
        assert rpt.passed
        assert len(rpt.checks) == 8 * len(DEFAULT_HEIS_TUPLES)
        assert rpt.checks[0].name == "p3_a1_d2_split:extension_count"
        assert rpt.params["tuples"][0] == [3, 1, 2, "split"]

    def test_infeasible_tuple_is_skipped(self):
        rpt = suite_heisenberg(tuples=[(3, 1, 5, "split")])
        assert rpt.passed
        assert len(rpt.checks) == 1
        assert rpt.checks[0].status == "skipped"
        assert "realization impossible" in rpt.checks[0].details

    def test_a_malformed_bound_raises(self, monkeypatch):
        # Only a group over the bound is a skipped check.
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "abc")
        with pytest.raises(ValueError, match="BASECHANGE_MAX_GROUP must be a positive integer, got 'abc'"):
            suite_heisenberg([(3, 1, 2, "split")])

    @pytest.mark.parametrize("realization", ["split", "nonsplit"])
    @pytest.mark.parametrize("p", [9, 15])
    def test_composite_p_is_skipped(self, p, realization):
        rpt = suite_heisenberg(tuples=[(p, 1, 4, realization)])
        assert [(c.name, c.status, c.details) for c in rpt.checks] == [
            ("p%d_a1_d4_%s:realization" % (p, realization), "skipped", "p must be prime")
        ]

    def test_each_tuple_builds_its_torus_once(self, monkeypatch):
        from basechange import heis, verify

        calls = []
        real = heis.torus_realization

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "torus_realization", counted)
        monkeypatch.setattr(heis, "torus_realization", counted)
        assert suite_heisenberg().passed
        assert calls == [(p, d, realization) for p, _a, d, realization in DEFAULT_HEIS_TUPLES]

    def test_size_bound_skips_a_tuple_before_building(self, monkeypatch):
        from basechange import verify

        def unreachable(*args):
            raise AssertionError("a group was built")

        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "124")
        monkeypatch.setattr(verify, "torus_realization", unreachable)
        monkeypatch.setattr(verify, "extraspecial_group", unreachable)
        rpt = suite_heisenberg(tuples=[(5, 1, 4, "split")])
        assert rpt.passed
        assert [c.to_dict() for c in rpt.checks] == [
            {
                "name": "p5_a1_d4_split:size",
                "status": "skipped",
                "details": "Heis order 125 exceeds size bound 124",
                "counterexample": None,
            }
        ]

    def test_epsilon_branches_in_details(self):
        rpt = suite_heisenberg()
        by_name = {c.name: c for c in rpt.checks}
        assert "epsilon = 1" in by_name["p5_a1_d4_split:trace_sign_law"].details
        assert "epsilon = -1" in by_name["p7_a1_d8_nonsplit:trace_sign_law"].details


class TestDeterminism:
    def test_same_suite_twice_byte_identical(self):
        a = report_to_json(suite_level0_basechange(3))
        b = report_to_json(suite_level0_basechange(3))
        assert a == b

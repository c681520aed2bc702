"""Acceptance gate: one test per release criterion, in order.

Each test performs the full exact computation for its criterion, asserts
the pinned runtime budget, and records a one-line PASS/FAIL verdict that
the conftest terminal-summary hook prints at the end of the run.  All
comparisons are exact (cyclotomic integers and rationals); the only
tolerances are the wall-clock budgets.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time
from fractions import Fraction

import conftest

from basechange.cyclo import ZERO
from basechange.cuspchar import (
    gl2_context,
    gl2_cuspidal,
    match_oracle,
    sl2_context,
    sl2_cuspidal,
    standard_group,
    standard_table,
    u2_cuspidal,
)
from basechange.ffield import MultChar, NormOneChar, make_field
from basechange.grpcore import conjugacy_classes, inner_product
from basechange.heis import expected_multiplicity_multiset
from basechange.report import report_to_json
from basechange.verify import (
    DEFAULT_HEIS_TUPLES,
    suite_endoscopic_finite,
    suite_heisenberg,
    suite_level0_basechange,
    suite_norm_bijection,
    suite_restriction_sl2,
)


@contextlib.contextmanager
def criterion(num: int, title: str, budget: float | None = None):
    """Record one PASS/FAIL summary line for a criterion and enforce its
    wall-clock budget.  The yielded dict collects extra facts (for example
    boundary counts) that belong in the summary line."""
    info: dict[str, object] = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        conftest.ACCEPTANCE_RESULTS[num] = ("FAIL", title)
        raise
    elapsed = time.perf_counter() - start
    extra = "".join("; %s = %s" % kv for kv in info.items())
    timing = "%.2f s" % elapsed
    if budget is not None:
        timing += " of %g s budget" % budget
    detail = "%s%s (%s)" % (title, extra, timing)
    if budget is not None and elapsed >= budget:
        conftest.ACCEPTANCE_RESULTS[num] = ("FAIL", detail)
        raise AssertionError(
            "runtime %.2f s exceeds the %g s budget" % (elapsed, budget)
        )
    conftest.ACCEPTANCE_RESULTS[num] = ("PASS", detail)


def _all_pass(report):
    bad = [
        (c.name, c.status, c.details, c.counterexample)
        for c in report.checks
        if c.status != "pass"
    ]
    assert not bad, "non-passing checks: %r" % (bad,)


def _check(report, name):
    hits = [c for c in report.checks if c.name == name]
    assert len(hits) == 1, "expected exactly one check named %r" % name
    return hits[0]


def _distinct(chars):
    out = []
    for chi in chars:
        if not any(chi == seen for seen in out):
            out.append(chi)
    return out


def _matched_rows(chars, table):
    """Each character must equal exactly one oracle row; rows distinct."""
    rows = []
    for chi in chars:
        hits = match_oracle(chi, table)
        assert len(hits) == 1, "expected exactly one oracle match, got %r" % hits
        rows.append(hits[0])
    assert len(set(rows)) == len(rows), "two characters matched the same row"
    return sorted(rows)


def _cuspidal_rows_by_sylow(family, q):
    """Independent cuspidality test: oracle rows whose fixed space under an
    order-q cyclic subgroup (a Sylow subgroup, conjugate to the unipotent
    radical for prime q) is zero."""
    group = standard_group(family, q)
    table = standard_table(family, q)
    classes = conjugacy_classes(group)
    target = next(ci for ci, o in enumerate(classes.rep_orders) if o == q)
    powers = [classes.power_class(target, e) for e in range(q)]
    rows = []
    for i, chi in enumerate(table):
        total = ZERO
        for ci in powers:
            total = total + chi.on_class(ci)
        if (total * Fraction(1, q)).is_zero():
            rows.append(i)
    return rows


def test_criterion_1_formula_oracle_agreement():
    with criterion(
        1,
        "formula/oracle agreement for sl2, gl2, u2 at q in {3, 5}",
        budget=None,
    ) as info:
        counts = []
        for q in (3, 5):
            q_start = time.perf_counter()
            F, L = make_field(q), make_field(q, 2)

            # Determinant-one family: regular norm-one parameters.
            sl_chars = _distinct(
                sl2_cuspidal(NormOneChar(L, F, s))
                for s in range(q + 1)
                if (2 * s) % (q + 1) != 0
            )
            assert len(sl_chars) == (q - 1) // 2
            sl_table = standard_table("sl2", q)
            sl_rows = _matched_rows(sl_chars, sl_table)
            sl_cusp = _cuspidal_rows_by_sylow("sl2", q)
            big = [i for i in sl_cusp if sl_table[i].degree == q - 1]
            small = [i for i in sl_cusp if i not in big]
            assert sl_rows == sorted(big)
            # The remaining cuspidal rows are the two packet components of
            # the excluded order-two parameter.
            assert len(small) == 2
            assert all(2 * sl_table[i].degree == q - 1 for i in small)

            # General linear family: regular multiplicative parameters.
            gl_chars = _distinct(
                gl2_cuspidal(MultChar(L, t))
                for t in range(L.q - 1)
                if MultChar(L, t).is_regular()
            )
            assert len(gl_chars) == q * (q - 1) // 2
            gl_rows = _matched_rows(gl_chars, standard_table("gl2", q))
            assert gl_rows == _cuspidal_rows_by_sylow("gl2", q)

            # Unitary family: regular unordered pairs.
            u2_chars = _distinct(
                u2_cuspidal(NormOneChar(L, F, s1), NormOneChar(L, F, s2))
                for s1 in range(q + 1)
                for s2 in range(s1 + 1, q + 1)
            )
            assert len(u2_chars) == (q + 1) * q // 2
            u2_table = standard_table("u2", q)
            u2_rows = _matched_rows(u2_chars, u2_table)
            assert u2_rows == _cuspidal_rows_by_sylow("u2", q)
            assert all(u2_table[i].degree == q - 1 for i in u2_rows)

            q_elapsed = time.perf_counter() - q_start
            assert q_elapsed < 60.0, "q = %d took %.2f s (budget 60 s per q)" % (
                q,
                q_elapsed,
            )
            counts.append(
                "q=%d: %d+%d+%d" % (q, len(sl_chars), len(gl_chars), len(u2_chars))
            )
        info["distinct cuspidals matched 1:1"] = ", ".join(counts)


def test_criterion_2_basechange_identity():
    with criterion(
        2,
        "base-change identity on regular elliptic points for q in {3, 5, 7}",
        budget=30.0,
    ) as info:
        boundary_report = []
        for q in (3, 5, 7):
            ctx_gl = gl2_context(q)
            ctx_sl = sl2_context(q)
            F, L = ctx_gl.k0, ctx_gl.l
            emb = L.embedding(F)
            minus_one = emb[F.neg(F.one)]
            regular_s = [s for s in range(q + 1) if (2 * s) % (q + 1) != 0]
            assert len(regular_s) == q - 1
            boundary_total = 0
            for s in regular_s:
                theta = NormOneChar(L, F, s)
                theta_tilde = MultChar(L, (-s * (q - 1)) % (L.q - 1))
                # The lifted parameter is theta composed with x -> x^(1-q).
                for x in L.nonzero():
                    assert theta_tilde(x) == theta(L.pow(x, 1 - q))
                lam = sl2_cuspidal(theta)
                lam_tilde = gl2_cuspidal(theta_tilde)
                checked = 0
                boundary = 0
                for x, ci in ctx_gl.elliptic.items():
                    u = L.pow(x, 1 - q)
                    if u == minus_one:
                        boundary += 1
                        continue
                    checked += 1
                    assert lam_tilde.on_class(ci) == lam.on_class(
                        ctx_sl.elliptic[u]
                    ), "identity fails at q=%d, s=%d, x=%d" % (q, s, x)
                # Every x outside the base field is covered exactly once.
                assert checked + boundary == L.q - q
                assert boundary == q - 1
                boundary_total += boundary
            boundary_report.append("q=%d: %d" % (q, boundary_total))
        info["boundary points x^(1-q) = -1, excluded and counted"] = ", ".join(
            boundary_report
        )


def test_criterion_3_norm_bijection():
    with criterion(
        3, "cyclic-norm class bijection at q = 3", budget=120.0
    ) as info:
        report = suite_norm_bijection(3)
        _all_pass(report)
        assert [c.name for c in report.checks] == [
            "well_defined",
            "injective",
            "surjective_onto_unitary_classes",
            "count_matches",
        ]
        assert (
            _check(report, "count_matches").details
            == "twisted classes: 16, classes meeting the unitary group: 16"
        )
        info["twisted classes = ordinary classes met"] = "16"


def test_criterion_4_extraspecial_multiplicities():
    with criterion(
        4,
        "extraspecial multiplicity multisets, sign law, and unit traces "
        "for the five standard tuples",
        budget=60.0,
    ) as info:
        # The closed forms themselves, frozen as literals.
        frozen = {
            (3, 1, 2): [1, 2],
            (3, 1, 4): [0, 1, 1, 1],
            (5, 1, 4): [1, 1, 1, 2],
            (5, 1, 6): [0, 1, 1, 1, 1, 1],
            (7, 1, 8): [0, 1, 1, 1, 1, 1, 1, 1],
        }
        for (p, a, d), multiset in frozen.items():
            assert expected_multiplicity_multiset(p, a, d) == multiset

        report = suite_heisenberg()
        _all_pass(report)
        assert len(report.checks) == 8 * len(DEFAULT_HEIS_TUPLES)
        signs = []
        for p, a, d, realization in DEFAULT_HEIS_TUPLES:
            assert (p, a, d) in frozen
            prefix = "p%d_a%d_d%d_%s" % (p, a, d, realization)
            eps = -1 if (p**a + 1) % d == 0 else 1
            law = _check(report, "%s:trace_sign_law" % prefix)
            assert "epsilon = %d" % eps in law.details
            for leaf in ("multiplicity_multiset", "trace_modulus_one"):
                assert _check(report, "%s:%s" % (prefix, leaf)).status == "pass"
            signs.append("%s: %+d" % (prefix, eps))
        info["signs"] = ", ".join(signs)


def test_criterion_5_transfer_identification():
    with criterion(
        5,
        "transfer irreducibility and parameter identification at q = 3",
        budget=60.0,
    ) as info:
        report = suite_endoscopic_finite(3)
        _all_pass(report)
        irr = _check(report, "sigma0_irreducible")
        assert "24 pair x extension combinations" in irr.details
        assert _check(report, "sigma0_identification").status == "pass"
        info["combinations"] = "6 regular pairs x 4 extension choices"


def test_criterion_6_restriction_dichotomy():
    with criterion(
        6, "restriction dichotomy at q in {3, 5}", budget=60.0
    ) as info:
        split = []
        for q in (3, 5):
            report = suite_restriction_sl2(q)
            _all_pass(report)
            dichotomy = _check(report, "restriction_norm_dichotomy")
            expected = "%d of %d split in two" % ((q - 1) // 2, q * (q - 1) // 2)
            assert expected in dichotomy.details
            split.append("q=%d: %s" % (q, expected))
        info["split restrictions"] = ", ".join(split)


def test_criterion_7_engine_self_consistency():
    with criterion(
        7, "oracle orthogonality at q = 3 and byte-identical repeat runs"
    ) as info:
        for family in ("sl2", "gl2", "u2"):
            group = standard_group(family, 3)
            table = standard_table(family, 3)
            classes = conjugacy_classes(group)
            k = len(classes)
            assert len(table) == k
            for i in range(k):
                for j in range(k):
                    # Row orthogonality.
                    assert inner_product(table[i], table[j]) == (
                        1 if i == j else 0
                    )
                    # Column orthogonality against centralizer orders.
                    total = ZERO
                    for chi in table:
                        total = total + chi.on_class(i) * chi.on_class(j).conj()
                    assert total == (
                        classes.centralizer_orders[i] if i == j else 0
                    )
            degree_sum = ZERO
            for chi in table:
                degree_sum = degree_sum + chi.degree * chi.degree
            assert degree_sum == group.order

        # Determinism: every suite, run twice in-process, must serialize to
        # identical bytes.
        runs = [
            lambda: suite_level0_basechange(3),
            lambda: suite_norm_bijection(3),
            lambda: suite_restriction_sl2(3),
            lambda: suite_endoscopic_finite(3),
            lambda: suite_heisenberg(),
        ]
        for fn in runs:
            first = report_to_json(fn()).encode()
            second = report_to_json(fn()).encode()
            assert first == second

        # And twice from cold processes through the command-line interface.
        cmd = [sys.executable, "-m", "basechange.cli", "verify", "level0", "--q", "3"]
        outs = []
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        info["self-consistent families"] = "sl2, gl2, u2"

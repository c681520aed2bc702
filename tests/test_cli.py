"""Command-line interface: subcommand behavior, exit codes, output formats,
and determinism."""

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basechange import cli, cuspchar, heis
from basechange.cli import main
from basechange.usage import build_parser, parse_argv


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChartable:
    def test_sl2_q3_csv_has_seven_character_rows(self, capsys):
        code, out, _ = run(["chartable", "sl2", "--q", "3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("class,")
        assert lines[1].startswith("size,")
        chi_rows = [l for l in lines if l.startswith("chi_")]
        assert len(chi_rows) == 7

    def test_json_format(self, capsys):
        code, out, _ = run(["chartable", "sl2", "--q", "3", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 24
        assert len(data["irreducibles"]) == 7
        assert len(data["classes"]) == 7

    def test_bad_field_size_exits_2(self, capsys):
        code, _, err = run(["chartable", "sl2", "--q", "4"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "restriction", "--q", "4"],
            ["chartable", "sl2", "--q", "2"],
            ["chartable", "sl2", "--q", "-3"],
            ["verify", "level0", "--q", "abc"],
            # Past the field-size bound q^2 <= 4096, rejected before any
            # primality test: 1000000007 * 998244353, and the prime 67.
            ["verify", "level0", "--q", "998244359987710471"],
            ["chartable", "gl2", "--q", "67"],
        ],
    )
    def test_q_must_be_an_odd_prime(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "q must be an odd prime" in err
        assert "p must be prime" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chartable", "sl2", "--q", "61"],
            ["cuspidal", "u2", "--q", "61"],
            ["verify", "level0", "--q", "49"],
        ],
    )
    def test_group_size_bound_comes_before_any_field(self, argv, capsys):
        # GF(q^2) with q^2 near 4096 takes seconds and hundreds of MB of
        # tables; the group order is known from q alone.
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "exceeds size bound" in err

    @pytest.mark.parametrize(
        "argv", [["chartable", "gl2", "--q", "9"], ["cuspidal", "gl2", "--q", "9"]]
    )
    def test_q_may_be_an_odd_prime_power(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0
        assert out.startswith("class,")
        assert err == ""

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            ["chartable", "sl2", "--q", "3", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("class,")


# sha256 of `basechange chartable FAMILY --q 5 --format json`, as recorded
# for the seed implementation of the oracle.
SEED_Q5_JSON_SHA256 = {
    "sl2": "c9792d4d138a4a5c72123068286f07b48036a2df99c7caa5154d334b2de6ae9a",
    "gl2": "8f098ed5a8858916c768c67c1bc8dc7b089ffcd5d23ce5e743b79e8fd0e45122",
    "u2": "41eab0b8b8dab303761a0d06e1f1219e9eb36c402624ee010c1b36029192f219",
}


# sha256 of the stdout of reports built on the orbit engine (conjugacy
# classes, twisted classes, the heis twisted scans) and of the two transfer
# reports built on the cuspidal formulas, as recorded for the benchmark at
# the seed; a reordered class list or a changed formula value changes them.
# The q = 7 tables pin the oracle's eigenspace splitting, and the two larger
# heis runs the monomial phases and the extension traces; the d = 12 runs
# are pinned to their earlier output, and the d = 1 runs pin the chain's
# edge, where op(1) wraps to op(0) = I.  The q = 5 cuspidal exports pin the
# formulas' values and the orders they are stored at.  The q = 9 runs pin
# GF(9) and GF(81) end to end, where x^q and x^p differ.
REPORT_SHA256 = {
    "cuspidal sl2 --q 5 --format json": "3ae333ecf1f9c8da4adca18c9d8fd2ec67a41b31c29ea0c34dc65af4720f1d6f",
    "cuspidal gl2 --q 5 --format json": "3978388ee985416d6a4e845ab138678c8be072ffd988e36322181a17f69c797c",
    "cuspidal u2 --q 5 --format json": "34667f18c49b12620e404a7f758080a0939e48459ff731784efe6aa8d759f6f5",
    "verify endoscopic --q 5": "732505976781d00f15ddab0c4c3f940f78a413766b5225a7480d8b174d0c7ada",
    "verify level0 --q 7": "3b2074d03357026ce6e97c5cb8c5a53792e5c357c5cb70071a30b3e7e6fbcec5",
    "verify normbij --q 3": "2bacc7cc04b2182532638e2883c47ff29724040bbd2fd6f0f45daa290ba74cf4",
    "verify restriction --q 5": "7b3da5e0b8db7660e985eb4c5bbb0081b7566be1d3e945f8f0b6a4807c4b51ca",
    "verify heis": "40827e292e4d9da196c0ab1b0de1daa51768a7f90813d45983cf52617ccad754",
    "heis --p 7 --d 8 --realization nonsplit": "93545bea2756f91bd129b5b2997d4a406d636a0693d5cb29ed419292a455def4",
    "heis --p 13 --d 14 --realization nonsplit": "89443c0e740c260c5081a6e36227e5361ef2d84d5af2948b1a44d8c471fee76f",
    "heis --p 11 --d 10 --realization split": "593038d9188f55207954bb81ba19d08840cd18bc29233a785b5c9daef7e636bb",
    "heis --p 11 --d 12 --realization nonsplit": "48bcbaf919553a5d3120c02c0b03d245f43317487304c5f70d694c5b43b673b4",
    "heis --p 13 --d 12 --realization split": "7a10cd9a3def0281d899ccd60fd8d4bc9c8d34cfc7e8c6fe7b7f7afa8990cf16",
    "heis --p 3 --d 1 --realization split": "66ee430325a20a8157c7a153cee85794c71fa088a6e45efa04397034f8530f79",
    "heis --p 3 --d 1 --realization nonsplit": "a2d17fb3314265d77e9c6d6aed0f54af468d05d058dabf087d6fc750fade2947",
    "chartable gl2 --q 7": "e2620bbdc793ad103dd626880b3ee5b98b90d090773f3ae5bfb6e53b4ea49939",
    "chartable u2 --q 7": "c3cef286c6102817a80c60c731a2fabe173b01db202725bb7d6778eeb03032d4",
    "chartable sl2 --q 7": "410d515be870f8f87aa83c619e139b16d395e2933f807ef54b1eb122e5bc8cb4",
    "chartable sl2 --q 5 --format csv": "6134cb11179f83af245a6564b14f86c408c4c96fb897cd300a93e8fb579e32cc",
    "chartable gl2 --q 5 --format csv": "118947cbb183aca10cc4315618a92ea48c8c0de528276a27e748ce011d31af5a",
    "chartable u2 --q 5 --format csv": "ef5173c62457b9575ac079f741130e1d0afe6553ec339ec7431493deeb48882f",
    "chartable gl2 --q 9": "5459d45c0ae8171fc0bed68609e0d7dcbe233f9b5083d33e3fdb5e660a46a807",
    "chartable u2 --q 9": "8d32f49b485269e983aae81282b909e0da75c52ac27d69aadbcff9dad164bc42",
    "chartable sl2 --q 9": "f96044e0c8d03c6aa217ac36545d29507cb834e7bec145a744aabf9512fd38b8",
    "verify level0 --q 9": "9f01bd5b965055a01c8a51510b553e2ddb0db976b615799b3dafb7b03a7eb9a6",
    "verify restriction --q 9": "71ddb2ea5f499f1aa77566b5f6093d2e98d0954b25a6b67ae39028797ee66c1a",
    "verify endoscopic --q 9": "b3133e01c44347cb36f01ac2777ffa6f0576b93d8b601f92b377607eb14d5a9c",
}

# Past the default group bound: U2(13) has 30,576 elements.  Recorded
# before sigma0 was built once per (pair, Omega).
LARGE_Q_MAX_GROUP = "32768"
LARGE_Q_REPORT_SHA256 = {
    "chartable gl2 --q 11": "cb8cba09d5b88038eb9ed1fa854b502d8381fd81c6f05ec267e19912ba55143b",
    "chartable u2 --q 11": "f07e0540bbd084dec2767984aab9cdaca2874c9c9d073b1ad0954bf53e152d26",
    "verify level0 --q 11": "a990287eb1bbc3c5e0e9fe442e187d5cf7cd2a37809d8353ea21aae46861d461",
    "verify level0 --q 13": "01369137457ce3a4dd86b69bb1f18ae9dceddab34787671247071d60f5a950f3",
    "verify restriction --q 11": "3f9019bcecb70e17d0f81ad8ea31b2d120b7dcb587c97dedf0d8e946906458b9",
    "verify endoscopic --q 11": "8c73d8d76e57b72bbb8fdd086ec0f94e7c940093285e23745061a0b1759e6fb6",
    "verify endoscopic --q 13": "43c9258a6e62a768c50fce897d9998c452b3518e364bb64914b25b82560657d6",
}


class TestOracleOutput:
    @pytest.mark.parametrize("family", sorted(SEED_Q5_JSON_SHA256))
    def test_q5_json_table_matches_seed_digest(self, family, capsys):
        code, out, _ = run(["chartable", family, "--q", "5", "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SEED_Q5_JSON_SHA256[family]

    @pytest.mark.parametrize("command", sorted(REPORT_SHA256))
    def test_report_matches_seed_digest(self, command, capsys):
        code, out, _ = run(command.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[command]

    @pytest.mark.parametrize("command", sorted(LARGE_Q_REPORT_SHA256))
    def test_large_q_report_matches_its_digest(self, command, monkeypatch, capsys):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", LARGE_Q_MAX_GROUP)
        code, out, _ = run(command.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == LARGE_Q_REPORT_SHA256[command]


class TestContextBound:
    """The size bound holds on every context lookup, not only when a cached
    context is built."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("chartable u2 --q 11", "U2 order 15840 exceeds size bound 10000"),
            ("cuspidal u2 --q 11", "U2 order 15840 exceeds size bound 10000"),
            ("verify level0 --q 11", "GL2 order 13200 exceeds size bound 10000"),
        ],
    )
    def test_a_context_built_under_a_raised_bound_is_refused_after_it_drops(
        self, argv, message, monkeypatch, capsys
    ):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "20000")
        assert run(argv.split(), capsys)[0] == 0
        monkeypatch.delenv("BASECHANGE_MAX_GROUP")
        assert run(argv.split(), capsys) == (2, "", "error: %s\n" % message)


class TestCuspidal:
    def test_sl2_default_parameter(self, capsys):
        code, out, _ = run(["cuspidal", "sl2", "--q", "3"], capsys)
        assert code == 0
        chi_rows = [l for l in out.strip().split("\n") if l.startswith("chi_0,")]
        assert len(chi_rows) == 1
        assert chi_rows[0].startswith('chi_0,"cyc(4)[2,0]"')

    def test_gl2_json_params(self, capsys):
        code, out, _ = run(
            ["cuspidal", "gl2", "--q", "3", "--theta", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "gl2"
        assert data["params"] == {"theta": 1}
        assert len(data["irreducibles"]) == 1

    def test_u2_pair_parameter(self, capsys):
        code, out, _ = run(
            ["cuspidal", "u2", "--q", "3", "--theta", "1,3", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["params"] == {"theta1": 1, "theta2": 3}

    def test_nonregular_sl2_exits_2(self, capsys):
        code, _, err = run(["cuspidal", "sl2", "--q", "3", "--theta", "2"], capsys)
        assert code == 2
        assert "reducible parameter" in err

    def test_trivial_sl2_theta_is_named(self, capsys):
        code, _, err = run(["cuspidal", "sl2", "--q", "5", "--theta", "0"], capsys)
        assert code == 2
        assert "reducible parameter (trivial θ)" in err
        assert "order-2" not in err

    def test_nonregular_gl2_exits_2(self, capsys):
        code, _, err = run(["cuspidal", "gl2", "--q", "3", "--theta", "0"], capsys)
        assert code == 2
        assert "non-regular" in err

    def test_equal_u2_pair_exits_2(self, capsys):
        code, _, err = run(["cuspidal", "u2", "--q", "3", "--theta", "1,1"], capsys)
        assert code == 2
        assert "not regular" in err

    def test_malformed_u2_pair_exits_2(self, capsys):
        code, _, err = run(["cuspidal", "u2", "--q", "3", "--theta", "1"], capsys)
        assert code == 2
        assert "comma-separated" in err

    @pytest.mark.parametrize(
        "family,theta,form",
        [
            ("gl2", "x", "integer exponent"),
            ("sl2", "1.5", "integer exponent"),
            ("u2", ",", "integer pair s1,s2"),
        ],
    )
    def test_non_integer_theta_names_the_expected_form(self, capsys, family, theta, form):
        code, out, err = run(["cuspidal", family, "--q", "3", "--theta", theta], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: %s parameter must be an %s" % (family, form))
        assert repr(theta) in err
        assert "invalid literal" not in err


class TestVerify:
    def test_level0_passes(self, capsys):
        code, out, _ = run(["verify", "level0", "--q", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "level0_basechange"
        assert all(c["status"] == "pass" for c in data["checks"])

    def test_full_suite_name_accepted(self, capsys):
        code, out, _ = run(["verify", "level0_basechange", "--q", "3"], capsys)
        assert code == 0

    def test_skipped_suite_exits_0(self, capsys):
        code, out, _ = run(["verify", "normbij", "--q", "5"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["checks"][0]["status"] == "skipped"

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(["verify", "nonsense"], capsys)
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(["verify", "level0", "--badflag"], capsys)
        assert code == 2

    def test_report_written_to_out(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            ["verify", "level0", "--q", "3", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["suite"] == "level0_basechange"

    @pytest.mark.parametrize("threads", ["0", "-1", "x"])
    def test_threads_below_one_is_usage_error(self, threads, capsys):
        # verify has no --threads flag, so every value is a usage error
        code, out, err = run(["verify", "heis", "--threads", threads], capsys)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --threads {threads}" in err

    @pytest.mark.parametrize("suite", ["heis", "heisenberg"])
    @pytest.mark.parametrize("q", ["3", "5"])
    def test_heis_q_is_usage_error(self, suite, q, capsys):
        # The heis suite runs its five fixed tuples; a --q would be inert.
        code, out, err = run(["verify", suite, "--q", q], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: verify heis takes no --q: the heis suite runs its five fixed tuples\n"

    def test_q_defaults_to_3(self, capsys):
        _, default, _ = run(["verify", "level0"], capsys)
        _, explicit, _ = run(["verify", "level0", "--q", "3"], capsys)
        assert default == explicit and json.loads(default)["params"] == {"q": 3}

    @pytest.mark.parametrize("raw", ["-5", "0", "abc"])
    def test_bad_max_group_env_exits_2(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", raw)
        for argv in (["chartable", "sl2", "--q", "3"], ["verify", "normbij", "--q", "3"]):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert out == ""
            assert "BASECHANGE_MAX_GROUP must be a positive integer" in err
            assert "invalid literal" not in err and "exceeds" not in err

    def test_repeat_run_bytes(self, capsys):
        _, out1, _ = run(["verify", "endoscopic", "--q", "3"], capsys)
        _, out2, _ = run(["verify", "endoscopic", "--q", "3"], capsys)
        assert out1 == out2


def count_torus_builds(monkeypatch) -> list:
    """Record every torus_realization call the suite and the lemma make."""
    from basechange import heis, verify

    calls = []
    real = heis.torus_realization

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (verify, heis):
        monkeypatch.setattr(module, "torus_realization", counted)
    return calls


class TestHeis:
    def test_reports_negative_epsilon(self, capsys):
        code, out, _ = run(
            ["heis", "--p", "3", "--a", "1", "--d", "4", "--realization", "nonsplit"],
            capsys,
        )
        assert code == 0
        assert "epsilon = -1" in out

    def test_positive_epsilon_branch(self, capsys):
        code, out, _ = run(
            ["heis", "--p", "5", "--a", "1", "--d", "4", "--realization", "split"],
            capsys,
        )
        assert code == 0
        assert "epsilon = 1" in out

    def test_impossible_realization_exits_2(self, capsys):
        code, _, err = run(
            ["heis", "--p", "3", "--a", "1", "--d", "5", "--realization", "split"],
            capsys,
        )
        assert code == 2
        assert "realization impossible" in err

    @pytest.mark.parametrize("realization", ["split", "nonsplit"])
    @pytest.mark.parametrize("d", ["0", "-4"])
    def test_torus_order_below_one_exits_2(self, d, realization, capsys):
        code, out, err = run(["heis", "--p", "3", "--d", d, "--realization", realization], capsys)
        assert (code, out, err) == (
            2, "", "error: torus order d must be a positive integer, got %s\n" % d
        )

    @pytest.mark.parametrize("realization", ["split", "nonsplit"])
    @pytest.mark.parametrize("p", [9, 15])
    def test_composite_p_is_named(self, p, realization, capsys):
        # Named before any divisibility test: d = 4 divides p - 1 = 8 but not
        # p + 1 = 10 at p = 9, and p + 1 = 16 but not p - 1 = 14 at p = 15.
        code, out, err = run(["heis", "--p", str(p), "--d", "4", "--realization", realization], capsys)
        assert (code, out, err) == (2, "", "error: p must be prime\n")

    def test_missing_required_flag_exits_2(self, capsys):
        code, _, _ = run(["heis", "--p", "3", "--d", "4"], capsys)
        assert code == 2

    def test_a_other_than_one_is_usage_error(self, capsys):
        code, out, err = run(
            ["heis", "--p", "3", "--a", "2", "--d", "4", "--realization", "nonsplit"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "a = 2 is not supported" in err
        assert "Traceback" not in err and "KeyError" not in err

    @pytest.mark.parametrize("p,order", [(4093, 68568592357), (23, 12167)])
    def test_group_over_the_size_bound_is_usage_error(self, p, order, monkeypatch, capsys):
        # Refused before any field or group is built.
        def unreachable(*args):
            raise AssertionError("a field was built")

        from basechange import verify

        for module in (verify, heis):
            monkeypatch.setattr(module, "torus_realization", unreachable)
        code, out, err = run(["heis", "--p", str(p), "--d", "2", "--realization", "split"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: Heis order %d exceeds size bound 10000\n" % order

    def test_builds_its_torus_once(self, monkeypatch, capsys):
        calls = count_torus_builds(monkeypatch)
        code, _, _ = run(["heis", "--p", "7", "--d", "8", "--realization", "nonsplit"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_verify_heis_skips_tuples_over_the_size_bound(self, monkeypatch, capsys):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "100")
        calls = count_torus_builds(monkeypatch)
        code, out, _ = run(["verify", "heis"], capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        skipped = [c for c in checks if c["status"] == "skipped"]
        assert [(c["name"], c["details"]) for c in skipped] == [
            ("p5_a1_d4_split:size", "Heis order 125 exceeds size bound 100"),
            ("p5_a1_d6_nonsplit:size", "Heis order 125 exceeds size bound 100"),
            ("p7_a1_d8_nonsplit:size", "Heis order 343 exceeds size bound 100"),
        ]
        assert len(checks) == 2 * 8 + 3
        assert all(c["name"].startswith("p3_") for c in checks if c["status"] == "pass")
        assert [call[0] for call in calls] == [3, 3]

    def test_size_bound_follows_the_environment(self, monkeypatch, capsys):
        argv = ["heis", "--p", "5", "--d", "4", "--realization", "split"]
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "100")
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: Heis order 125 exceeds size bound 100\n"
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "125")
        code, out, _ = run(argv, capsys)
        assert code == 0 and "epsilon = 1" in out


_OUT_COMMANDS = {
    "chartable": ["chartable", "sl2", "--q", "3"],
    "cuspidal": ["cuspidal", "sl2", "--q", "3"],
    "verify": ["verify", "level0", "--q", "3"],
    "heis": ["heis", "--p", "3", "--d", "2", "--realization", "split"],
}


class TestUnwritableOut:
    @pytest.mark.parametrize("sub", sorted(_OUT_COMMANDS))
    def test_missing_directory_is_usage_error(self, sub, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "out.txt")
        code, out, err = run(_OUT_COMMANDS[sub] + ["--out", target], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(target) in err and "No such file or directory" in err

    @pytest.mark.parametrize("sub", sorted(_OUT_COMMANDS))
    def test_directory_is_usage_error(self, sub, tmp_path, capsys):
        code, out, err = run(_OUT_COMMANDS[sub] + ["--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(str(tmp_path)) in err and "Is a directory" in err


# Argument vectors for the CLI contract.  Each slot (the positional, each
# of the subcommand's flags, now and then a foreign flag) takes a valid token
# most of the time and an invalid one otherwise.  The only valid sizes are
# q = 3 and p <= 5, so an example costs milliseconds once its group is built.
_TOKENS = {  # flag: (valid, invalid)
    "--q": (["3"], ["4", "25", "2", "-3", "abc", ""]),
    "--theta": (["1", "3", "0,1", "1,3"], ["2", "0", "-1", "1,1", "x", "1,x", ""]),
    "--format": (["csv", "json"], ["xml"]),
    "--threads": (["1", "2"], ["0", "-1", "x"]),
    "--p": (["3", "5"], ["4", "9", "1", "-3", "x"]),
    "--a": (["1"], ["2", "0", "x"]),
    "--d": (["2", "4", "1", "3", "6"], ["5", "0", "-2", "x"]),
    "--realization": (["nonsplit", "split"], ["both"]),
    "--out": (["<file>"], ["<missing>", "<dir>", ""]),
}
_POSITIONAL = {  # subcommand: (valid, invalid)
    "chartable": (["sl2", "gl2", "u2"], ["so5", ""]),
    "cuspidal": (["sl2", "gl2", "u2"], ["so5"]),
    "verify": (["level0", "restriction", "endoscopic", "normbij", "level0_basechange"], ["heis2"]),
    "heis": ([], ["extra"]),
    "bogus": ([], ["sl2"]),
}
_FLAGS = {
    "chartable": ["--q", "--format", "--out"],
    "cuspidal": ["--q", "--theta", "--format", "--out"],
    "verify": ["--q", "--out"],
    "heis": ["--p", "--a", "--d", "--realization", "--out"],
    "bogus": [],
}


@st.composite
def cli_argvs(draw):
    def token(valid, invalid):
        bad = not valid or draw(st.integers(0, 5)) == 0
        return draw(st.sampled_from(invalid if bad else valid))

    sub = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [sub]
    valid, invalid = _POSITIONAL[sub]
    if valid or draw(st.integers(0, 5)) == 0:
        argv.append(token(valid, invalid))
    flags = [f for f in _FLAGS[sub] if draw(st.integers(0, 5)) > 0]
    if draw(st.integers(0, 5)) == 0:
        flags.append(draw(st.sampled_from(sorted(_TOKENS))))
    for flag in flags:
        argv += [flag, token(*_TOKENS[flag])]
    return argv


def _with_out_paths(argv, root: Path) -> list[str]:
    paths = {
        "<file>": str(root / "out.txt"),
        "<missing>": str(root / "missing" / "out.txt"),
        "<dir>": str(root),
    }
    return [paths.get(tok, tok) for tok in argv]


class TestContractProperty:
    @given(cli_argvs())
    @example(["chartable", "sl2", "--q", "3", "--out", "<missing>"])
    @example(["verify", "level0", "--q", "3", "--out", "<dir>"])
    @example(["heis", "--p", "3", "--d", "4", "--realization", "nonsplit", "--out", "<file>"])
    @example(["cuspidal", "u2", "--q", "3", "--theta", "0,1", "--format", "json"])
    @settings(max_examples=50, deadline=None)
    def test_exit_code_and_stderr(self, argv):
        with tempfile.TemporaryDirectory() as root:
            argv = _with_out_paths(argv, Path(root))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()


class TestCanonicalParse:
    """parse_argv reads only the canonical form and agrees with argparse
    wherever it reads anything; every other argv goes to argparse."""

    @given(cli_argvs())
    @settings(max_examples=300, deadline=None)
    def test_a_namespace_is_the_one_argparse_gives(self, argv):
        args = parse_argv(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            "chartable sl2",
            "chartable u2 --q 9 --format json --out x.json",
            "cuspidal u2 --theta 0,1 --q 5",
            "verify level0",
            "verify endoscopic_finite --q 7 --out x.json",
            "heis --realization split --d 4 --p 3",
            "heis --p 3 --a 2 --d 4 --realization nonsplit",
        ],
    )
    def test_canonical_commands_are_read(self, argv):
        args = parse_argv(argv.split())
        assert args is not None
        assert vars(args) == vars(build_parser().parse_args(argv.split()))

    def test_an_empty_value_is_a_value(self):
        argv = ["chartable", "sl2", "--out", ""]
        assert vars(parse_argv(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["chartable", "sl2", "--q=5"],
            ["heis", "--p", "3", "--d", "4", "--real", "nonsplit"],
            ["chartable", "sl2", "--q", "3", "--q", "5"],
            ["chartable", "--q", "5", "sl2"],
            ["chartable", "sl2", "--", "--q", "5"],
            ["chartable", "--", "sl2"],
            ["heis", "--p", "-3", "--d", "4", "--realization", "split"],
            ["heis", "--p", "3", "--d", "4"],
            ["chartable", "sl2", "--q"],
            ["chartable", "sl2", "--q", "4"],
            ["chartable", "so5"],
            ["chartable", "--help"],
            ["--help"],
            [],
        ],
    )
    def test_other_spellings_go_to_argparse(self, argv, monkeypatch, capsys):
        assert parse_argv(argv) is None
        try:
            expected = vars(build_parser().parse_args(argv))
        except SystemExit as e:  # help or a usage error: the same text and code
            printed = capsys.readouterr()
            assert main(argv) == (e.code or 0)
            assert capsys.readouterr() == printed
            return
        seen = []
        monkeypatch.setitem(cli._COMMANDS, expected["subcommand"], lambda args: seen.append(vars(args)) or 0)
        assert main(argv) == 0
        assert seen == [expected]


class TestInternalError:
    @pytest.mark.parametrize(
        "exc,line",
        [
            (AssertionError("class size does not divide group order"),
             "internal error: AssertionError: class size does not divide group order\n"),
            (KeyError((1, 2)), "internal error: KeyError: (1, 2)\n"),
        ],
        ids=["AssertionError", "KeyError"],
    )
    def test_exits_3_with_one_line(self, exc, line, monkeypatch, capsys):
        def broken(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "chartable", broken)
        code, out, err = run(["chartable", "sl2", "--q", "3"], capsys)
        assert code == 3
        assert out == ""
        assert err == line

    @pytest.mark.parametrize(
        "argv",
        [["heis", "--p", "3", "--d", "4", "--realization", "nonsplit"], ["verify", "heis"]],
        ids=["heis", "verify heis"],
    )
    def test_a_broken_multiplicity_invariant_exits_3(self, argv, monkeypatch, capsys):
        # traces[0] off by one leaves a non-integer multiplicity: an
        # invariant of a certified extension, not a usage error.
        extend = heis.extend

        def off_by_one(rep, action):
            exts = extend(rep, action)
            traces = (exts[0].traces[0] + 1,) + exts[0].traces[1:]
            for e in exts:
                e.traces = traces
            return exts

        monkeypatch.setattr(heis, "extend", off_by_one)
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: AssertionError: multiplicity is not an integer for label 0\n"

    @staticmethod
    def _off_by_one(real, pick):
        def perturbed(*args):
            values = real(*args)
            ci = pick(values)
            values[ci] = values[ci] + 1
            return values

        return perturbed

    def test_a_transfer_matching_no_cuspidal_exits_3(self, monkeypatch, capsys):
        # A formula fault, not a usage error: sigma0 identifies nothing.
        ctx = cuspchar.gl2_context(3)
        pick = lambda values: next(iter(ctx.elliptic_reps))
        monkeypatch.setattr(
            cuspchar, "_sigma0_values", self._off_by_one(cuspchar._sigma0_values, pick)
        )
        code, out, err = run(["verify", "endoscopic", "--q", "3"], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "internal error: IdentificationError: no cuspidal identification for "
            "the built class function (formula transcription bug)\n"
        )

    def test_an_ennola_mismatch_exits_3_from_cuspidal_and_fails_a_check(
        self, monkeypatch, capsys
    ):
        pick = lambda values: next(iter(values))
        monkeypatch.setattr(
            cuspchar, "_u2_torus_values", self._off_by_one(cuspchar._u2_torus_values, pick)
        )
        code, out, err = run(["cuspidal", "u2", "--q", "3"], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "internal error: IdentificationError: Ennola mismatch: no oracle "
            "irreducible fits the torus values\n"
        )
        # The endoscopic suite reports it as its failed U2 check.
        code, out, err = run(["verify", "endoscopic", "--q", "3"], capsys)
        assert (code, err) == (1, "")
        failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert failed == ["u2_unique_oracle_match"]

    def test_a_wrong_galois_permutation_exits_3(
        self, swapped_galois_permutation, monkeypatch, capsys
    ):
        # The rows it spreads are no characters: the oracle's certificate
        # raises.  A fresh context cache, so the table is built under the patch.
        monkeypatch.setitem(
            cuspchar.FAMILIES, "u2", functools.lru_cache(maxsize=None)(cuspchar._U2Context)
        )
        code, out, err = run(["chartable", "u2", "--q", "5"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: AssertionError: ")
        assert len(swapped_galois_permutation) == 1

    def test_exit_codes_are_documented(self, capsys):
        _, out, _ = run(["--help"], capsys)
        assert "3 internal error" in " ".join(out.split())


class TestOptionInventory:
    """Every option string each subcommand accepts, read from the parser: a
    new option has to change this inventory on purpose."""

    def test_option_strings_per_subcommand(self):
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: sorted(opt for action in sub._actions for opt in action.option_strings)
            for name, sub in subparsers.choices.items()
        }
        assert options == {
            "chartable": ["--format", "--help", "--out", "--q", "-h"],
            "cuspidal": ["--format", "--help", "--out", "--q", "--theta", "-h"],
            "verify": ["--help", "--out", "--q", "-h"],
            "heis": ["--a", "--d", "--help", "--out", "--p", "--realization", "-h"],
        }
        assert sorted(opt for a in parser._actions for opt in a.option_strings) == ["--help", "-h"]


class TestHelp:
    def test_top_level_help_exits_0(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "chartable" in out and "verify" in out

    @pytest.mark.parametrize("sub", ["chartable", "cuspidal", "verify", "heis"])
    def test_subcommand_help(self, sub, capsys):
        code, out, _ = run([sub, "--help"], capsys)
        assert code == 0
        assert "--out" in out

    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 2


class TestModuleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "basechange.cli", "chartable", "sl2", "--q", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("class,")

    def test_cold_import_skips_dataclasses_and_inspect(self):
        # About 6 ms of every cold command; the report model needs neither.
        code = "import sys, basechange.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_commands_never_load_fractions_or_decimal(self):
        # About 2 ms of every cold command; exact rationals need neither.
        code = (
            "import contextlib, io, sys\n"
            "from basechange.cli import main\n"
            "for argv in (%r, %r, %r, %r):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv.split()) == 0, argv\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
        ) % (
            "chartable u2 --q 3 --format json",
            "verify restriction --q 3",
            "verify endoscopic --q 3",
            "heis --p 3 --d 4 --realization nonsplit",
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_canonical_commands_never_load_argparse_or_numbers(self):
        # About 5 ms of every cold command: the grammar table reads a
        # canonical command, and cyclo needs numbers only for a Fraction.
        code = (
            "import contextlib, io, sys\n"
            "from basechange.cli import main\n"
            "for argv in (%r, %r, %r, %r):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv.split()) == 0, argv\n"
            "print(sorted({'argparse', 'gettext', 'numbers'} & set(sys.modules)))\n"
        ) % (
            "chartable u2 --q 3 --format json",
            "cuspidal gl2 --q 3 --theta 1",
            "verify endoscopic --q 3",
            "heis --p 3 --d 4 --realization nonsplit",
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("--help", "dae15e7c4159672d316843642edf06455419e80bb631d0b8487b034d56eacbf4"),
            ("chartable --help", "3b5dbf5167e63f87b5ac7ba54a3613b37e4b445c8bad7a07a046c2707e3109ac"),
            ("cuspidal --help", "ea2e9232d7bdaacc3c55f6e89d444a85ff60d6f7bb77c3155505efb608af3141"),
            ("verify --help", "8521f0909f4b6c6f356de268113792c7aada1827878a00befb9cd80524cd9bf8"),
            ("heis --help", "680ace6d2061ceacf24664495bbf59fca9fed7aff91214cf7adfedbb28135b25"),
        ],
    )
    def test_help_text_is_unchanged(self, argv, digest):
        # Digests of the help printed by the hand-written parser the grammar
        # table replaced, the same on Python 3.10 to 3.13 at 80 columns.
        proc = subprocess.run(
            [sys.executable, "-m", "basechange.cli"] + argv.split(),
            capture_output=True,
            env=dict(os.environ, COLUMNS="80"),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    def test_usage_error_text_is_unchanged(self):
        # As the hand-written parser printed it; Python 3.13's argparse
        # lists the choices without quotes.
        usage = (
            "usage: basechange chartable [-h] [--q Q] [--format {csv,json}] [--out OUT]\n"
            "                            {sl2,gl2,u2}\n"
            "basechange chartable: error: argument family: invalid choice: 'xx' "
        )
        proc = subprocess.run(
            [sys.executable, "-m", "basechange.cli", "chartable", "xx", "--q", "3"],
            capture_output=True,
            text=True,
            env=dict(os.environ, COLUMNS="80"),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr in (
            usage + "(choose from 'sl2', 'gl2', 'u2')\n",
            usage + "(choose from sl2, gl2, u2)\n",
        )

    def test_csv_exports_never_load_json(self):
        # About 1 ms of every cold CSV export; only the JSON writer needs it.
        code = (
            "import contextlib, hashlib, io, sys\n"
            "from basechange.cli import main\n"
            "for argv in (%r, %r):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv.split()) == 0, argv\n"
            "print(sorted({'json'} & set(sys.modules)))\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    assert main(%r.split()) == 0\n"
            "print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        ) % ("chartable u2 --q 3", "cuspidal gl2 --q 3", "chartable u2 --q 3 --format json")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # The JSON export's digest, recorded before json left the CSV path.
        assert proc.stdout == (
            "[]\n756938d36e46b7cf606dc53cb6bc525a3956c89a8f3012d2f142050bb87f2273\n"
        )

    def test_main_freezes_the_import_time_heap(self, capsys):
        # The exit collections of a one-command process skip frozen objects.
        assert main(["chartable", "sl2", "--q", "3"]) == 0
        assert gc.get_freeze_count() > 0

    def test_module_invocation_verify_twice_identical(self):
        cmd = [sys.executable, "-m", "basechange.cli", "verify", "level0", "--q", "3"]
        p1 = subprocess.run(cmd, capture_output=True)
        p2 = subprocess.run(cmd, capture_output=True)
        assert p1.returncode == 0 and p2.returncode == 0
        assert p1.stdout == p2.stdout

"""Command-line front end: export character tables and cuspidal characters,
run verification suites, and run the extraspecial-group laboratory.

Exit codes: 0 when every executed check passes, 1 when any check fails,
2 on invalid arguments, 3 on an internal error (a one-line message on
stderr, no traceback).  Every command runs in one process, its parameter
points one after another, and its output is deterministic; the only
recognized environment variable is BASECHANGE_MAX_GROUP (size bound
override, a positive integer).

The grammar lives in ``usage``.  A canonical command (``SUB [POSITIONAL]
(--flag VALUE)...``) is read straight from its table; only help, usage
errors and other spellings argparse accepts (``--q=5``, an abbreviated or
repeated flag) load ``argparse``.

Each command loads only the modules it runs: ``chartable`` and
``cuspidal`` load this module, ``usage``, ``report`` and ``cuspchar`` with
its layers (``cyclo``, ``ffield``, ``grpcore``, ``rankone``); ``verify``
adds ``verify``, imported inside ``_cmd_verify``, and ``heis`` (the command,
or the heis suite) adds ``heis``, which ``verify`` imports on the suite's
first call.

Each command is one short process, so ``main`` first moves the import-time
heap (``site``, this package) to the collector's permanent
generation with ``gc.freeze()``: no collection, the interpreter's exit
collections included, walks those objects again.  Objects a command builds
are still collected as usual.  An in-process caller that runs ``main`` many
times can call ``gc.unfreeze()`` afterwards.
"""

from __future__ import annotations

import gc
import sys

from .cuspchar import family_context, gl2_cuspidal, sl2_cuspidal, u2_cuspidal
from .ffield import MultChar, NormOneChar
from .grpcore import max_group_order, table_to_csv, table_to_json
from .report import report_to_json
from .usage import FAMILY_CHOICES, SUITE_ALIASES, build_parser, parse_argv

# The grammar's family choices, the registry's names in its order.
_FAMILIES = FAMILY_CHOICES


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:  # a missing directory, a directory, no permission
        raise ValueError("cannot write --out %r: %s" % (out_path, e.strerror or e)) from None


def _cmd_chartable(args) -> int:
    ctx = family_context(args.family, args.q)
    if args.format == "csv":
        _emit(table_to_csv(ctx.group, ctx.table), args.out)
    else:
        _emit(report_to_json(table_to_json(ctx.group, ctx.table)), args.out)
    return 0


def _parse_theta(family: str, raw: str | None) -> int:
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            "%s parameter must be an integer exponent, e.g. --theta 1, got %r" % (family, raw)
        ) from None


def _parse_theta_pair(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(
            "u2 parameter must be two comma-separated integers, e.g. --theta 0,1"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            "u2 parameter must be an integer pair s1,s2, e.g. --theta 0,1, got %r" % raw
        ) from None


def _build_cuspidal(family: str, ctx, raw_theta: str | None):
    F, L = ctx.k0, ctx.l
    if family == "sl2":
        s = _parse_theta(family, raw_theta)
        cf = sl2_cuspidal(NormOneChar(L, F, s))
        return cf, {"theta": s}
    if family == "gl2":
        t = _parse_theta(family, raw_theta)
        cf = gl2_cuspidal(MultChar(L, t))
        return cf, {"theta": t}
    s1, s2 = _parse_theta_pair(raw_theta if raw_theta is not None else "0,1")
    cf = u2_cuspidal(NormOneChar(L, F, s1), NormOneChar(L, F, s2))
    return cf, {"theta1": s1, "theta2": s2}


def _cmd_cuspidal(args) -> int:
    ctx = family_context(args.family, args.q)  # the size bound before any field
    cf, param_info = _build_cuspidal(args.family, ctx, args.theta)
    if args.format == "csv":
        _emit(table_to_csv(ctx.group, [cf]), args.out)
    else:
        obj = table_to_json(ctx.group, [cf])
        obj["family"] = args.family
        obj["q"] = args.q
        obj["params"] = param_info
        _emit(report_to_json(obj), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES, suite_heisenberg

    suite_id = SUITE_ALIASES.get(args.suite, args.suite)
    if suite_id == "heisenberg":
        if args.q is not None:
            raise ValueError("verify heis takes no --q: the heis suite runs its five fixed tuples")
        report = suite_heisenberg()
    else:
        report = SUITES[suite_id](q=3 if args.q is None else args.q)
    _emit(report_to_json(report), args.out)
    return 0 if report.passed else 1


def _cmd_heis(args) -> int:
    from .verify import suite_heisenberg

    # The suite validates the configuration before any field or group is
    # built; a configuration it skips is a usage error here.
    report = suite_heisenberg([(args.p, args.a, args.d, args.realization)])
    for check in report.checks:
        if check.status == "skipped":
            raise ValueError(check.details)
    _emit(report_to_json(report), args.out)
    return 0 if report.passed else 1


_COMMANDS = {
    "chartable": _cmd_chartable,
    "cuspidal": _cmd_cuspidal,
    "verify": _cmd_verify,
    "heis": _cmd_heis,
}


def main(argv=None) -> int:
    """Run one command; returns its exit code.  Freezes every object alive
    at the call (the import-time heap) before the arguments are parsed; an
    in-process caller that runs ``main`` many times can ``gc.unfreeze()``."""
    gc.freeze()
    if argv is None:
        argv = sys.argv[1:]
    args = parse_argv(argv)
    if args is None:  # help, a usage error or another spelling argparse reads
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
    try:
        max_group_order()  # reject a malformed BASECHANGE_MAX_GROUP up front
        return _COMMANDS[args.subcommand](args)
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except Exception as e:  # an invariant broke: report it, never as a failed check
        sys.stderr.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return 3


if __name__ == "__main__":
    sys.exit(main())

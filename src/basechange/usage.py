"""The command-line grammar, written once as a table, and its two readers.

``COMMANDS`` maps each subcommand to its help line, its positional argument
(or None) and its flags; each positional and flag entry is the keyword
arguments of ``argparse``'s ``add_argument``.  ``parse_argv`` reads a
well-formed command straight from the table, with argparse's converters,
choices and defaults, and loads nothing.  ``build_parser`` builds the
argparse parser from the same table, for everything else: help,
abbreviations, ``--q=5``, repeated flags and every usage error, with
argparse's text and exit codes.  It is the only code that imports
``argparse``.
"""

from __future__ import annotations

from types import SimpleNamespace

from .cuspchar import FAMILIES
from .ffield import MAX_FIELD_SIZE, _factorize
from .verify import SUITES

SUITE_ALIASES = {
    "level0": "level0_basechange",
    "normbij": "norm_bijection",
    "restriction": "restriction_sl2",
    "endoscopic": "endoscopic_finite",
    "heis": "heisenberg",
}

FAMILY_CHOICES = tuple(FAMILIES)


def odd_prime_power(raw: str) -> int:
    """The ``--q`` converter: an odd prime power with q² within the field
    bound, or a ValueError whose text is the usage message."""
    try:
        q = int(raw)
    except ValueError:
        q = 0
    # The size bound comes first, so no huge q reaches the factorization.
    if q < 3 or q * q > MAX_FIELD_SIZE or q % 2 == 0 or len(_factorize(q)) != 1:
        raise ValueError(
            "q must be an odd prime power with q^2 <= %d, got %r" % (MAX_FIELD_SIZE, raw)
        )
    return q


_Q_HELP = "base field size (odd prime power)"
_OUT = {"default": None, "help": "output path (default stdout)"}
_FORMAT = {"choices": ("csv", "json"), "default": "csv"}

COMMANDS = {
    "chartable": {
        "help": "print the character table of a standard family",
        "positional": ("family", {"choices": FAMILY_CHOICES}),
        "flags": {
            "--q": {"type": odd_prime_power, "default": 3, "help": _Q_HELP},
            "--format": _FORMAT,
            "--out": _OUT,
        },
    },
    "cuspidal": {
        "help": "print one cuspidal character built by formula",
        "positional": ("family", {"choices": FAMILY_CHOICES}),
        "flags": {
            "--q": {"type": odd_prime_power, "default": 3, "help": _Q_HELP},
            "--theta": {
                "default": None,
                "help": "parameter: an exponent for sl2/gl2, a comma pair s1,s2 for u2 "
                "(defaults: 1, 1, and 0,1)",
            },
            "--format": _FORMAT,
            "--out": _OUT,
        },
    },
    "verify": {
        "help": "run a verification suite",
        "positional": (
            "suite",
            {"choices": sorted(SUITE_ALIASES) + sorted(SUITES), "help": "suite name (short or full)"},
        ),
        "flags": {
            "--q": {"type": odd_prime_power, "help": "base field size (odd prime power, default 3)"},
            "--out": {"default": None, "help": "report path (default stdout)"},
        },
    },
    "heis": {
        "help": "run the extraspecial-group checks for one configuration",
        "positional": None,
        "flags": {
            "--p": {"type": int, "required": True, "help": "odd prime"},
            "--a": {"type": int, "default": 1, "help": "half-rank of the space (only 1 is supported)"},
            "--d": {"type": int, "required": True, "help": "torus order"},
            "--realization": {"choices": ("split", "nonsplit"), "required": True},
            "--out": {"default": None, "help": "report path (default stdout)"},
        },
    },
}

_INVALID = object()


def _value(spec: dict, raw: str):
    """``raw`` converted and checked as argparse does, or ``_INVALID``; a
    token that starts with "-" is never read as a value here."""
    if raw.startswith("-"):
        return _INVALID
    convert = spec.get("type")
    if convert is not None:
        try:
            raw = convert(raw)
        except ValueError:
            return _INVALID
    choices = spec.get("choices")
    return _INVALID if choices is not None and raw not in choices else raw


def parse_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse would give for a canonical command,
    ``SUB [POSITIONAL] (--flag VALUE)...`` with each flag at most once,
    exact flag names, no "=", no value that starts with "-" and every
    required flag present; None for any other argv, valid or not."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = COMMANDS[argv[0]]
    ns = {"subcommand": argv[0]}
    rest = list(argv[1:])
    if command["positional"] is not None:
        name, spec = command["positional"]
        if not rest or (value := _value(spec, rest.pop(0))) is _INVALID:
            return None
        ns[name] = value
    flags = command["flags"]
    if len(rest) % 2:
        return None
    given = {}
    for flag, raw in zip(rest[::2], rest[1::2]):
        spec = flags.get(flag)
        if spec is None or flag in given or (value := _value(spec, raw)) is _INVALID:
            return None
        given[flag] = value
    for flag, spec in flags.items():
        if flag in given:
            ns[flag[2:]] = given[flag]
        elif spec.get("required"):
            return None
        else:
            ns[flag[2:]] = spec.get("default")
    return SimpleNamespace(**ns)


def build_parser():
    """The argparse parser of the grammar.  A converter other than ``int``
    raises ValueError with its usage message; argparse is handed it as an
    ArgumentTypeError, so the message is printed as written."""
    import argparse

    def argparse_type(convert):
        def checked(raw):
            try:
                return convert(raw)
            except ValueError as e:
                raise argparse.ArgumentTypeError(str(e)) from None

        return checked

    def add(sub_parser, name, spec):
        convert = spec.get("type")
        if convert is not None and convert is not int:
            spec = dict(spec, type=argparse_type(convert))
        sub_parser.add_argument(name, **spec)

    parser = argparse.ArgumentParser(
        prog="basechange",
        description="Exact verification laboratory for cuspidal characters "
        "of rank-one groups over small finite fields.",
        epilog="exit codes: 0 every check passed, 1 a check failed, "
        "2 invalid arguments, 3 internal error",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, grammar in COMMANDS.items():
        sub_parser = sub.add_parser(command, help=grammar["help"])
        if grammar["positional"] is not None:
            add(sub_parser, *grammar["positional"])
        for flag, spec in grammar["flags"].items():
            add(sub_parser, flag, spec)
    return parser

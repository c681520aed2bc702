"""Run one ``basechange`` CLI command with layer wrappers installed.

    python perfbench/launch.py MODE REPORT_FD CMD_ID CLI_ARG...

MODE ``setup`` wraps only the set-up entry points of ``layers.SETUP_SPANS``;
MODE ``trace`` wraps every callable of ``layers.SPANS`` and counts the
cyclotomic operations of ``layers.COUNTED``.  Standard output, standard
error and the exit status are those of ``python -m basechange.cli
CLI_ARG...``.  At exit the spans and counters are written as JSON lines to
the inherited file descriptor REPORT_FD.  The source tree is not modified:
wrappers are bound over the module and class attributes in memory only.
"""

from __future__ import annotations

import importlib
import os
import sys
import time


def _resolve(module, attr: str):
    """The object holding ``attr`` (a module or a class) and the last name."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _rebind(original, replacement):
    """Point every module-level name and registry entry of ``basechange``
    that refers to ``original`` at ``replacement``; this reaches the names
    bound by ``from .x import f`` as well as the defining module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "basechange" or mod_name.startswith("basechange.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
            elif type(value) is dict:
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def install(tracer, mode: str) -> list:
    """Install the wrappers for ``mode``; returns the context caches to read
    at exit (none in ``setup`` mode)."""
    from layers import CONTEXT_CACHES, COUNTED, SETUP_SPANS, SPANS

    def module(name):
        return importlib.import_module("basechange." + name)

    # Taken before wrapping: the originals carry cache_info().
    caches = [getattr(module(m), name) for m, name in CONTEXT_CACHES]
    for mod_name, attr, span, count in SPANS if mode == "trace" else SETUP_SPANS:
        owner, name = _resolve(module(mod_name), attr)
        original = getattr(owner, name)
        wrapped = tracer.wrap(span, original, count)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
        else:
            _rebind(original, wrapped)
    if mode != "trace":
        return []
    for mod_name, attr, counter in COUNTED:
        owner, name = _resolve(module(mod_name), attr)
        setattr(owner, name, tracer.counting(counter, getattr(owner, name)))
    return caches


def peak_rss_kib() -> int:
    """High-water resident set of this process image.  Unlike ``ru_maxrss``
    it does not count the memory of the parent it was forked from."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, report_fd, cmd_id = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    argv = sys.argv[4:]
    if mode not in ("setup", "trace"):
        raise SystemExit("unknown mode %r" % mode)
    import basechange.cli as cli

    imported = time.monotonic()
    from tracer import Tracer

    tracer = Tracer(cmd_id)
    caches = install(tracer, mode)
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        for fn in caches:
            info = fn.cache_info()
            tracer.counters["cuspchar.context_hits"] += info.hits
            tracer.counters["cuspchar.context_misses"] += info.misses
        with os.fdopen(report_fd, "w") as fh:
            tracer.write_jsonl(fh, {"imported": imported, "peak_rss_kib": peak_rss_kib()})
    return code


if __name__ == "__main__":
    sys.exit(main())

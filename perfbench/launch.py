"""Child entry point: run one ``repro`` command line, as ``python -m repro``.

Usage::

    python3 launch.py READY_FILE TRACE_PREFIX|- REPRO_ARGS...

Writes to ``READY_FILE`` the ``time.perf_counter`` reading (a
system-wide monotonic clock on Linux, so the parent can subtract its own
reading taken before the spawn) at which the CLI has finished parsing
its arguments and is about to dispatch.  With a ``TRACE_PREFIX`` the
layer functions are wrapped by :class:`tracer.Tracer` and the spans are
written to ``TRACE_PREFIX.json``/``.bin`` when the command returns.
"""

from __future__ import annotations

import argparse
import sys
import time


def _stamp_when_parsed(ready_file: str) -> None:
    parse_args = argparse.ArgumentParser.parse_args

    def stamped(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        with open(ready_file, "w") as handle:
            handle.write(repr(time.perf_counter()))
        argparse.ArgumentParser.parse_args = parse_args
        return namespace

    argparse.ArgumentParser.parse_args = stamped


def main(argv: "list[str]") -> int:
    ready_file, trace_prefix, *repro_args = argv
    _stamp_when_parsed(ready_file)
    if trace_prefix == "-":
        from repro.cli import main as repro_main

        return repro_main(repro_args)

    from tracer import Tracer

    tracer = Tracer()
    index = tracer.open(tracer.intern("cli.import"))
    from repro.cli import main as repro_main

    tracer.close(index)
    tracer.install()
    try:
        code = repro_main(repro_args)
    finally:
        tracer.uninstall()
    from repro.explore.context import process_context

    tracer.write(trace_prefix, {"context": process_context().stats.as_dict()})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Runs the repro CLI in this process, as ``python -m repro`` does.

Usage::

    python3 perfbench/child.py SETUP_FILE [--trace TRACE_FILE] -- CLI_ARGS...
    python3 perfbench/child.py SETUP_FILE --setup-only

The benchmark spawns this instead of ``python -m repro`` so it can see
where set-up ends.  Once ``import repro.cli`` and ``registry.load_all()``
have returned, before ``main()`` dispatches, the CLOCK_MONOTONIC time is
written to SETUP_FILE; the parent subtracts its own spawn time.
``--setup-only`` exits there.

With ``--trace``, the layer wrappers of ``tracer.py`` are installed
after that point, ``main()`` itself is traced as the ``cli`` layer, and
the spans, the ledger and the program's counters
are written to TRACE_FILE when ``main()`` returns.  stdout and stderr
are the CLI's own.
"""

import json
import sys
import time


def main(argv):
    setup_file, rest = argv[0], argv[1:]
    setup_only = rest == ["--setup-only"]
    trace_file = None
    if rest[:1] == ["--trace"]:
        trace_file, rest = rest[1], rest[2:]
    if not setup_only and rest[:1] != ["--"]:
        raise SystemExit(__doc__)
    cli_args = rest[1:]

    import repro.cli
    from repro.experiments import registry

    registry.load_all()
    setup_done = time.monotonic()
    with open(setup_file, "w") as handle:
        json.dump({"setup_done": setup_done}, handle)
    if setup_only:
        return 0
    if trace_file is None:
        return repro.cli.main(cli_args)

    from repro.core import instrument
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap(repro.cli.main, "cli", "cli.main")(cli_args)
    finally:
        tracer.write(trace_file, counters=instrument.snapshot())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run ``repro.cli`` with every layer boundary traced.

Usage: ``python bootstrap.py TRACE_JSON CLI_ARG...`` — the same
arguments ``python -m repro.cli`` takes.  The Chrome trace is written
to ``TRACE_JSON`` when the CLI returns, also when it fails.
"""

from __future__ import annotations

import sys

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    # Import the CLI first so every by-name import of a traced function
    # already exists when install() rebinds it.
    import repro.cli

    tracer = Tracer()
    install(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

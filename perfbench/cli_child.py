"""Traced stand-in for ``python -m awrlab.cli`` (cli-batch, --trace 1).

Usage: python -X importtime cli_child.py TRACE_JSON SUBCOMMAND [ARGS...]

Imports awrlab inside a ``cli.import`` span, runs ``awrlab.cli.run`` inside
a ``cli.run`` span with the tracer's wrappers installed, writes the spans and
counts to TRACE_JSON and exits with the CLI's exit code.
"""

import json
import sys

from tracer import Instrumentation, Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(window=1)
    tracer.op = 0
    code = 1
    try:
        idx = tracer.open("cli.import")
        import awrlab.cli

        tracer.close(idx)
        with Instrumentation(tracer):
            idx = tracer.open("cli.run")
            try:
                code = awrlab.cli.run(argv)
            finally:
                tracer.close(idx)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

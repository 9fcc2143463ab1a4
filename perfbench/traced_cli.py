"""Run one tokenlens subcommand with outside-in tracing.

    python3 perfbench/traced_cli.py SPANS_JSON -- <tokenlens cli arguments>

Rebinds the traced public functions (see spans.PLAIN_WRAPS), calls
tokenlens.cli.main(argv) inside a root span ``cli.main`` and writes the
spans to SPANS_JSON when main returns or raises. The exit code is main's.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = spans.Tracer(run_id=f"{os.getpid()}")
    spans.install(tracer)
    import tokenlens.cli

    try:
        return tracer.call("cli.main", tokenlens.cli.main, (argv,), {})
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())

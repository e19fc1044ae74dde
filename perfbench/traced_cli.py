"""One traced CLI request: the equivalent of ``python -m qscat ARGS`` with
the tracer's wrappers installed.

    python perfbench/traced_cli.py OUT.json ARGS...

The request's stdout and exit code are the CLI's own; counts, self times and
spans go to OUT.json.
"""

import json
import sys

from tracer import Tracer

import qscat.cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.reset(keep_spans=True)
    tracer.install()
    try:
        code = qscat.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w") as f:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans, "absent": tracer.absent}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())

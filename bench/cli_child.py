"""One traced cold CLI command, for the `cli-cold` workload's traced run.

    python3 bench/cli_child.py SPANS_JSON <beveridge command and options>

Times the cold ``import beveridge_accounting.cli``, installs the same span
wrappers as the in-process workloads, calls ``cli.main`` and writes the
import time and the recorded spans to SPANS_JSON.  Exits with the
command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = perf_counter()
    import beveridge_accounting.cli as cli
    import_s = perf_counter() - t0

    from spans import Tracer
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps({"import_s": import_s, **tracer.dump()}))
    return code


if __name__ == "__main__":
    sys.exit(main())

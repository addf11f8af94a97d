"""`python -m lpnse.cli` with the benchmark's layer spans installed.

The traced pipeline2d run starts each CLI command through this file so
the wrappers in spans.py enter the child process.  Environment:

  PERFBENCH_SPAWN   perf_counter reading taken by the parent just before
                    it started this process (system-wide on Linux)
  PERFBENCH_UNIT    unit id stamped on every span
  PERFBENCH_SPANS   path the span list is written to as JSON on exit
"""

import json
import os
import sys
import time


def main() -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    import lpnse.cli

    imported = time.perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.unit = int(os.environ["PERFBENCH_UNIT"])
    tracer.record("cli.startup", spawn, imported)
    spans.install(tracer)
    try:
        return lpnse.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())

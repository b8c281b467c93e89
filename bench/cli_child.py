"""One cold CLI run with spans, as the traced ``cli_cold`` workload makes it.

Usage: python bench/cli_child.py RECORD.json COMMAND [ARGS...]

Times the import of ``nullcartan.cli`` in this fresh interpreter, installs the
span collector, runs ``main`` in process (its report goes to stdout, its exit
code becomes this process's) and writes the op record to RECORD.json.
"""

import json
import sys
import time

from spans import Tracer

if __name__ == "__main__":
    record_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import nullcartan.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.record("cli.import", import_s)
    tracer.install()
    main = tracer.wrap(f"cli.main.{argv[0]}", cli.main)
    code = main(argv)
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.end_op(), fh)
    sys.exit(code)

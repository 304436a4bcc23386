"""`python -m chaincodes.cli` with the benchmark's spans around the
library's public functions.  The CLI report still goes to standard
output; the spans go to standard error as the last line, one JSON object.

    python3 perfbench/cli_traced.py ARGS...
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chaincodes import cli  # noqa: E402

import tracing  # noqa: E402

if __name__ == "__main__":
    with tracing.Tracer() as tracer:
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.dump()) + "\n")
    sys.exit(code)

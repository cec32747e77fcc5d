"""Exit non-zero unless every file named on the command line is strict JSON.

Python's json module reads NaN, Infinity and -Infinity, which strict JSON
forbids; this check refuses them.

    python .github/strict_json.py out/summary.json out/sweep.json
"""

import json
import sys


def _refuse(constant):
    sys.exit(f"non-standard JSON constant {constant}")


for path in sys.argv[1:]:
    with open(path) as handle:
        json.loads(handle.read(), parse_constant=_refuse)

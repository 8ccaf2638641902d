"""Equivalence before timing: re-render the golden resilience reports.

Runs every case of ``tests/faults/golden_cases`` and compares the
canonical render with the committed fixture under ``tests/faults/data``
byte for byte.  Prints one JSON line ``{"golden": {name: ok}}`` and exits
0 only when every report matches.  ``run.py`` starts this as a separate
process so the peak memory of the golden campaigns stays out of the
workload's own measurement.

Usage, from the repository root::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests" / "faults")]
    import golden_cases  # noqa: E402  (found through the path above)

    results = {}
    for name, case in sorted(golden_cases.CASES.items()):
        expected = golden_cases.fixture_path(name).read_text(
            encoding="utf-8")
        rendered = golden_cases.build_report(case).render() + "\n"
        results[name] = rendered == expected
    print(json.dumps({"golden": results}, sort_keys=True))
    return 0 if results and all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

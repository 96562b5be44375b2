"""Where the benchmark finds the checkout it measures, and where it writes.

Importing this module puts the checkout's `src/` first on `sys.path`, so
`import posp` measures the source tree, not an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".perfbench"
PINNED = BENCH / "hashes.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def checkout_ready() -> bool:
    """True when the package source and the shipped scenarios are present."""
    return ((SRC / "posp" / "__init__.py").is_file()
            and (SCENARIOS / "golden_hashes.json").is_file())

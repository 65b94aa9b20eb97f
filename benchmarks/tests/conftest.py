import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

"""Test set-up: make the program (``src/``) and ``perfbench`` importable.

Run the benchmark's own tests with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

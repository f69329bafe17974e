"""``python -m benchmarks.ledger run|probes|compare`` (see cli.py)."""

import sys
from pathlib import Path

# PYTHONPATH=src is the documented way; fall back to this checkout's src
_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.append(str(_SRC))

from .cli import main  # noqa: E402

sys.exit(main())

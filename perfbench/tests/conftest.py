"""Make ``dacebench`` and the program importable, BLAS pinned first."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from dacebench.env import pin_blas  # noqa: E402

pin_blas()

"""Let a source checkout run the suite without an install.

``pythonpath`` in pyproject.toml puts ``src/`` on this process's path; the
acceptance run of ``python -m quadcover`` is a child process, so ``src/`` is
also put on its ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# keeps the tests directory importable for the oracle helpers
import os
from pathlib import Path

# pyproject.toml puts src on this process's path; the tests that run
# `python -m ginalg` in a subprocess need it in PYTHONPATH too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# pyproject's pytest `pythonpath` puts src/ on sys.path in this process only;
# the CLI tests that run `python -m dickesim` in a child need it in the environment
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

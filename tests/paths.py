"""Where the repository is, and how to run its source in a child interpreter."""

import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """This environment with the package's `src/` first on the path."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

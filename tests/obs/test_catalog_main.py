"""``python -m repro.obs.catalog`` prints the table with a clean stderr.

``import repro`` loads the catalogue, so running it as a plain module
made runpy warn that the module was already imported; the catalogue is
a package whose ``__main__`` does the printing.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.obs import catalog_table

SRC = Path(__file__).resolve().parents[2] / "src"


def test_catalog_main_prints_table_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "repro.obs.catalog"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stderr == ""
    assert done.stdout == catalog_table() + "\n"

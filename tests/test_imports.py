"""Importing the package leaves scipy's optimize and integrate modules unloaded.

The histogram path runs on numpy alone; scipy is imported by the Gaussian
fiber alignment, the elliptic integral and the scalar generators on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import numpy as np
import jeffreys_centers as jc
jc.jeffreys_centroid_cat(jc.HistogramSet.uniform(np.array([[0.2, 0.8], [0.6, 0.4]])))
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
"""


def test_histogram_path_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"

"""The histogram and Gaussian centers leave scipy's optimize and integrate modules unloaded.

Both paths run on numpy alone; scipy is imported on first use by the elliptic
integral and the scalar generators' quadrature and bracketed root finding.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT = """
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
"""

HISTOGRAM_PROBE = """
import sys
import numpy as np
import jeffreys_centers as jc
jc.jeffreys_centroid_cat(jc.HistogramSet.uniform(np.array([[0.2, 0.8], [0.6, 0.4]])))
""" + REPORT

# d = 3 runs the fiber alignment; the means differ so its solve takes steps
GAUSSIAN_PROBE = """
import sys
import numpy as np
import jeffreys_centers as jc
rng = np.random.default_rng(0)
gs = []
for _ in range(4):
    a = rng.normal(size=(3, 3))
    gs.append(jc.GaussianParam(rng.normal(size=3), jc.SPDMatrix(a @ a.T + 3.0 * np.eye(3))))
jc.jfr_center_mvn(gs)
jc.gb_center_mvn(gs)
""" + REPORT


def loaded_scipy_modules(probe: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return out.stdout.strip()


def test_histogram_path_leaves_scipy_unloaded():
    assert loaded_scipy_modules(HISTOGRAM_PROBE) == "[]"


def test_gaussian_path_leaves_scipy_unloaded():
    assert loaded_scipy_modules(GAUSSIAN_PROBE) == "[]"

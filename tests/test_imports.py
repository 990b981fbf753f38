"""The library runs on numpy alone.

With scipy blocked, the package imports and every public center, divergence
and loss runs, and so do the oracles that moved from the package to the tests;
the histogram and Gaussian centers also leave scipy's optimize and integrate
modules unloaded where scipy is installed; and the import alone does not load
``numpy.polynomial``, whose Gauss-Legendre nodes the scalar JFR center builds
on first use, nor the front end (``cli``, ``bench``), so a program that imports
the library runs none of the command's code.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

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

WITHOUT_SCIPY_PROBE = """
import math
import os
import sys
import tempfile
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import jeffreys_centers as jc
from jeffreys_centers.cli import main
from oracles import c_of_lambda, squared_generator

rows = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
hset = jc.HistogramSet.uniform(rows)
jc.jeffreys_centroid_cat(hset)
jc.jfr_center_cat(hset)
jc.gb_center_cat(hset)
jc.unnormalized_center(hset)
c_of_lambda(*hset.means, 0.0)

gs = [jc.GaussianParam([0.0, 0.0], [[1.0, 0.3], [0.3, 0.8]]),
      jc.GaussianParam([2.0, 1.0], [[1.5, -0.4], [-0.4, 0.6]])]
jc.jfr_center_mvn(gs)
jc.gb_center_mvn(gs)
jc.fisher_rao_midpoint_mvn(*gs)
jc.jeffreys_centroid_centered([g.cov for g in gs])
jc.sld_centroid([g.cov for g in gs])

pair = jc.WeightedParamSet.of([[1.0], [4.0]])
for gen in (jc.burg_generator(1), jc.shannon_generator(1), squared_generator(1)):
    jc.gb_center(gen, pair)
jc.gb_center(jc.mvn_generator(2), jc.WeightedParamSet.of([jc.mvn_to_natural(g) for g in gs]))

p, q = (jc.SimplexPoint(r) for r in rows)
for div in (jc.kl_cat, jc.jeffreys_cat, jc.tv_cat):
    div(p, q)
jc.jeffreys_loss_cat(hset, p)
for div in (jc.kl_mvn, jc.jeffreys_mvn):
    div(*gs)
jc.jeffreys_loss_mvn(gs, None, gs[0])
for div in (jc.logdet_div, jc.symmetrized_logdet, jc.trace_metric_distance):
    div(gs[0].cov, gs[1].cov)
burg = jc.burg_generator(1)
jc.bregman_div(burg, [1.0], [4.0])
jc.symmetrized_bregman(burg, [1.0], [4.0])
jc.jeffreys_loss(burg, pair, [2.0])

poisson = jc.ScalarGenerator(f_prime=math.exp, f_second=math.exp, domain=(-math.inf, math.inf))
jc.jfr_center_1d(poisson, [0.5, 1.0, 3.0])
jc.lambert_w0(np.array([0.5, 3.0, 1e300]))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "histograms.csv")
    with open(path, "w") as fh:
        fh.write("0.2,0.3,0.5\\n0.6,0.3,0.1\\n")
    assert main(["compute", "--family", "categorical", "--method", "gb",
                 "--input", path, "--reference"]) == 0
print("ok", "scipy" in sys.modules and sys.modules["scipy"] is not None)
"""

IMPORT_PROBE = """
import sys
import jeffreys_centers
print("numpy.polynomial" in sys.modules)
"""

FRONT_END_PROBE = """
import sys
import jeffreys_centers
print(sorted(m for m in ("jeffreys_centers.cli", "jeffreys_centers.bench") if m in sys.modules))
"""


def run_probe(probe: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
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
    assert run_probe(HISTOGRAM_PROBE) == "[]"


def test_gaussian_path_leaves_scipy_unloaded():
    assert run_probe(GAUSSIAN_PROBE) == "[]"


def test_every_public_center_runs_with_scipy_blocked():
    assert run_probe(WITHOUT_SCIPY_PROBE).splitlines()[-1] == "ok False"


def test_the_import_leaves_numpy_polynomial_unloaded():
    assert run_probe(IMPORT_PROBE) == "False"


def test_the_import_leaves_the_front_end_unloaded():
    assert run_probe(FRONT_END_PROBE) == "[]"

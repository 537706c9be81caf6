"""Start-up cost: importing kaclab and running an untilted simulation loads
neither scipy nor jsonschema; the functions that need them import them.
Tilted runs and the freeze experiment load no quadrature.  Where the
compiled kernel loads, every distance lists its pairs and solves its
transport problem in C, and loads no scipy module at all."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import kaclab as kl

_SCRIPT = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema"))

import kaclab, kaclab.config_io, kaclab.cli
after_import = heavy()
cfg = kaclab.SimConfig(n=300, t_max=0.5, kernel=kaclab.Kernel.HARD_SPHERE, seed=5)
traj = kaclab.simulate(cfg)
print(json.dumps({"after_import": after_import, "after_simulate": heavy(),
                  "events": len(traj.log)}))
"""


def test_import_and_untilted_simulate_load_no_scipy_or_jsonschema(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kl.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["events"] > 0
    assert out["after_import"] == []
    assert out["after_simulate"] == []


_TILT_SCRIPT = """
import json, sys
import kaclab
from kaclab.kinetics import Kernel

ref = kaclab.ReferenceMeasure(3)
theta = kaclab.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
plan = kaclab.design_freeze_experiment(ref, theta, 4.0, 4)
scheme = kaclab.TiltingScheme.pairwise(1.0, 0.0, initial_tilt=plan.initial_tilt)
traj = kaclab.simulate(kaclab.SimConfig(n=300, t_max=0.5, kernel=Kernel.HARD_SPHERE, seed=5), scheme)
report = kaclab.run_experiment(n=300, kernel=Kernel.HARD_SPHERE, theta=theta, M=4.0, r=4, n_runs=1)
print(json.dumps({"initial_term": traj.rn_ledger.initial_term, "runs": len(report.dynamic_costs),
                  "integrate": "scipy.integrate" in sys.modules}))
"""


def test_tilted_runs_import_no_quadrature(tmp_path):
    # the tilt's normalisation, cumulant and draws are closed forms in
    # scipy.special; scipy.integrate would add about 26 MB to a run
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kl.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TILT_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["initial_term"] != 0.0 and out["runs"] == 1
    assert not out["integrate"]


_FLUX_SCRIPT = """
import json, sys
import numpy as np
import kaclab
from kaclab import _kloop

rng = np.random.default_rng(0)
mu = kaclab.WeightedMeasure(rng.normal(size=(9, 4)), np.full(9, 1.0 / 9))
nu = kaclab.WeightedMeasure(rng.normal(size=(6, 4)), np.full(6, 0.125))
value = kaclab.flux_distance(mu, nu)
print(json.dumps({"kernel": _kloop.library() is not None, "value": value,
                  "optimize": "scipy.optimize" in sys.modules}))
"""


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_unequal_unit_flux_distance_loads_no_lp(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kl.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FLUX_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["kernel"]
    assert out["value"] > 0.0
    assert not out["optimize"]


_DISTANCE_SCRIPT = """
import json, sys
import numpy as np
import kaclab
from kaclab import _kloop

rng = np.random.default_rng(1)
# equal units: the route an assignment once took
mu = kaclab.WeightedMeasure(rng.normal(size=(40, 3)), np.full(40, 0.025))
nu = kaclab.WeightedMeasure(rng.normal(size=(40, 3)) + 0.5, np.full(40, 0.025))
bl = kaclab.bl_distance(mu, nu)
f1 = kaclab.WeightedMeasure(rng.normal(size=(30, 10)), np.full(30, 0.01))
f2 = kaclab.WeightedMeasure(rng.normal(size=(20, 10)) * 0.3, np.full(20, 0.02))
flux = kaclab.flux_distance(f1, f2)
print(json.dumps({"kernel": _kloop.library() is not None, "bl": bl, "flux": flux,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_distances_load_no_scipy(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kl.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DISTANCE_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["kernel"]
    assert 0.0 < out["bl"] <= 2.0 and out["flux"] > 0.0
    assert out["scipy"] == []

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the fast demos: 01 drives the closed m4 law (maxwell_m4_coeffs and
# maxwell_m4_curve), 03 the energy-concentration construction of the
# counterexample (run_experiment with freezing), 04 dynamic_cost(mode="exact")
# and Xi_2 end to end
@pytest.mark.parametrize("demo", ["01_equilibrium_and_relaxation.py",
                                  "03_energy_concentration_experiment.py",
                                  "04_rate_function_evaluation.py"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

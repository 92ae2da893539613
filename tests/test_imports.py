"""The package runs on numpy alone: no library path imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# a fresh interpreter in which every scipy import fails: this suite's own
# modules import scipy, and a path that needs it raises here
SCRIPT = r"""
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

import numpy as np

import circlyap
from circlyap import (CharacteristicEscape, CharflowConfig,
                      GeneralNonlinearity, LagrangianEvaluator,
                      NonlinearityO2, ScalarField, SolverConfig, evolve,
                      integrate)
from circlyap.harness import ScenarioConfig, equilibrium_profile, run_scenario
from circlyap.matano import SeparatedEvaluator

# the scalar queries
nl = NonlinearityO2(f_bar=lambda u, q: 2.0 * u * (1.0 - u * u) + q * u,
                    f_bar_q=lambda u, q: u + 0.0 * q)
LagrangianEvaluator(nl).L(0.6, 1.3)
gen = GeneralNonlinearity(
    f=lambda x, u, p: 5.0 * u * (1.0 - u * u) + 0.5 * p,
    f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), 0.5),
    x_periodic=False)
SeparatedEvaluator(gen).L(0.4, 0.3, 1.0)
evolve(nl, 0.0, 1.0, 0.5)
equilibrium_profile(50.0, 1.0, 64)

# an escape: q = 1 / (1 - u) crosses the bound 1e6 at u = 1 - 1e-6
blowup = NonlinearityO2(f_bar=lambda u, q: -q * q,
                        f_bar_q=lambda u, q: -2.0 * q)
try:
    evolve(blowup, 0.0, 10.0, 1.0, CharflowConfig(escape_bound=1e6))
except CharacteristicEscape as exc:
    assert abs(exc.at - (1.0 - 1e-6)) <= 1e-9, exc.at
else:
    raise AssertionError("no escape")

# RK4, and ETDRK4 on every boundary condition, tabulated and per call
cubic = GeneralNonlinearity(f=lambda x, u, p: u * (1.0 - u * u),
                            f_p=lambda x, u, p: 0.0 * p)
for bc in ("periodic", "dirichlet", "neumann"):
    for n in (64, 600):
        x = np.linspace(0.0, 1.0, n, endpoint=bc != "periodic")
        u0 = ScalarField(1.2 * x * (1.0 - x), 1.0, bc)
        schemes = [dict(dt=1e-6, scheme="etdrk4")]
        if n == 64:
            schemes.append(dict(scheme="rk4"))
        for kw in schemes:
            traj = integrate(cubic, 1.0, u0, SolverConfig(
                n=n, t_end=1e-5, save_every=10**9, **kw))
            assert not traj.blew_up, (bc, n, kw)

# a planar_embedding run: the planar oracle and a periodic ETDRK4 solve
_, extras = run_scenario(ScenarioConfig(
    scenario="planar_embedding",
    solver=SolverConfig(n=64, dt=0.5, t_end=1.0, save_every=4,
                        scheme="etdrk4")), write=False)
assert extras["status"] == "ok", extras

assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print("numpy only")
"""


def test_no_library_path_imports_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "numpy only"

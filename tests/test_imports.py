"""``import circlyap`` loads numpy only; each scipy module loads on the
path that uses it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# a fresh interpreter: this suite's own modules import scipy
SCRIPT = r"""
import json, sys

LAZY = ("scipy.integrate", "scipy.optimize", "scipy.fft")
seen = {}

def loaded(stage):
    seen[stage] = sorted(m for m in LAZY if m in sys.modules)

import circlyap
seen["scipy_after_import"] = sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import numpy as np
from circlyap import (GeneralNonlinearity, LagrangianEvaluator,
                      NonlinearityO2, ScalarField, SolverConfig, evolve,
                      integrate, verify_equilibrium_first_integral)
from circlyap.matano import SeparatedEvaluator

nl = NonlinearityO2(f_bar=lambda u, q: 2.0 * u * (1.0 - u * u) + q * u,
                    f_bar_q=lambda u, q: u + 0.0 * q)
LagrangianEvaluator(nl).L(0.6, 1.3)
gen = GeneralNonlinearity(
    f=lambda x, u, p: 5.0 * u * (1.0 - u * u) + 0.5 * p,
    f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), 0.5),
    x_periodic=False)
SeparatedEvaluator(gen).L(0.4, 0.3, 1.0)
evolve(nl, 0.0, 1.0, 0.5)
verify_equilibrium_first_integral(nl, 0.1, 0.5, 1.0)
loaded("scalar_queries_and_first_integral")
from circlyap import harness
harness.equilibrium_profile(50.0, 1.0, 64)
loaded("equilibrium_profile")
cubic = GeneralNonlinearity(f=lambda x, u, p: u * (1.0 - u * u),
                            f_p=lambda x, u, p: 0.0 * p)
n = 32
u0 = ScalarField(0.3 * np.sin(2 * np.pi * np.arange(n) / n), 1.0)
integrate(cubic, 1.0, u0, SolverConfig(n=n, t_end=1e-3, save_every=10**9))
loaded("scalar_queries_and_rk4")
integrate(cubic, 1.0, u0, SolverConfig(n=n, dt=1e-3, t_end=1e-2,
                                       save_every=10**9, scheme="etdrk4"))
loaded("etdrk4")
print(json.dumps(seen))
"""


def test_scipy_loads_only_where_it_is_used():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"scipy_after_import": [],
                    "scalar_queries_and_first_integral": [],
                    "equilibrium_profile": [],
                    "scalar_queries_and_rk4": [],
                    "etdrk4": ["scipy.fft"]}

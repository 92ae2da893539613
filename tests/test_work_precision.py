"""The precision guard of the scenario tolerance.

A scenario run solves its characteristics at ``harness.SCENARIO_CHARFLOW``,
looser than the library default. On the q-nonlinear circle field and the
separated-BC field whose exponent g is not linear in x, the cases of
``tools/work_precision.py`` where a tolerance error shows, V and the
dissipation must stay within 1e-9, relative, of a rel_tol 1e-12
reference.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from circlyap import harness
from circlyap.charflow import CharflowConfig


def _load_tool():
    path = Path(__file__).resolve().parent.parent / "tools" \
        / "work_precision.py"
    spec = importlib.util.spec_from_file_location("work_precision", path)
    tool = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up there
    sys.modules[spec.name] = tool
    spec.loader.exec_module(tool)
    return tool


wp = _load_tool()
CASES = {
    "tanh_a1": lambda: wp.tanh_case(1.0, 256),
    "tanh_a2": lambda: wp.tanh_case(2.0, 256),
    "separated_sin2p": lambda: wp.separated_case(128),
}


def _worst_error(case, cfg):
    *_, V_ref, D_ref = wp.measure(case, wp.REFERENCE)
    _, _, V, D = wp.measure(case, cfg)
    return max(wp.errors(V, D, V_ref, D_ref))


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenario_default_holds_V_and_D_within_the_bound(name):
    assert _worst_error(CASES[name](), harness.SCENARIO_CHARFLOW) <= wp.BOUND


@pytest.mark.parametrize("name", ["tanh_a2", "separated_sin2p"])
def test_a_loose_tolerance_breaks_the_bound(name):
    # the cases can see a tolerance error: at rel_tol 1e-6 they read
    # 1.8e-7 and 4.9e-8
    loose = CharflowConfig(rel_tol=1e-6, abs_tol=1e-8)
    assert _worst_error(CASES[name](), loose) > 10 * wp.BOUND


def test_tool_counts_rhs_calls_and_restores_the_driver():
    real = wp.charflow.solve_characteristics
    calls, *_ = wp.measure(CASES["tanh_a1"](), wp.REFERENCE)
    assert calls > 0
    assert wp.charflow.solve_characteristics is real


def test_tool_passes_at_the_tiny_size(capsys):
    assert wp.main(["--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the quadrature line, information only, names the first three cases
    [quad] = [line for line in lines if line.startswith("quadrature, 16 "
                                                         "against 64 nodes")]
    assert sorted(part.split()[0] for part in
                  quad.split(": ")[1].split(", ")) == sorted(CASES)
    assert lines[-1].startswith("scenario default rel_tol 1e-08, abs_tol "
                                "1e-10: worst error")
    assert lines[-1].endswith("within 1e-09")

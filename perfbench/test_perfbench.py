"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import golden  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mzi_sensitivity import cli  # noqa: E402


@pytest.fixture(autouse=True)
def one_sweep_thread(monkeypatch):
    # the tracer keeps one call stack, as in the benchmark's own runs
    monkeypatch.setenv("MZI_OPT_THREADS", "1")


def _tiny(variable, tmp_path):
    doc = {
        "input": {"port0": {"kind": "squeezed_vacuum", "squeeze_mag": 1.2},
                  "port1": {"kind": "coherent", "amplitude_mag": 100.0}},
        "pmc": "coh_sqz_vac",
        "scheme": "difference_intensity",
        "sweep": {"variable": variable, "from": 0.2, "to": 0.8, "points": 3},
        "output_path": "tiny.csv",
    }
    return cli.run_scenario(cli.scenario_from_json(doc), out_dir=str(tmp_path))


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if isinstance(getattr(module, "__dict__", None), dict)
        for attr, value in list(vars(module).items())
        if callable(value)
    }


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _bindings()
    with tracer.Tracer() as tr:
        assert tracer.is_wrapper(cli.run_scenario)
        assert tracer.is_wrapper(cli.joint_optimize)
        _tiny("phi", tmp_path)
    assert tr.calls("cli.run_scenario") == 1
    after = _bindings()
    assert not [key for key, value in after.items() if tracer.is_wrapper(value)]
    assert all(after[key] is value for key, value in before.items() if key in after)


def test_tiny_scenarios_give_the_expected_counts(tmp_path):
    per_request, joint = {}, {}
    for variable in ("phi", "tau2"):
        with tracer.Tracer() as tr:
            _tiny(variable, tmp_path)
        assert tr.calls("optimize.optimal_working_point") > 0
        assert tr.calls("cli.run_scenario") == 1
        per_request[variable] = tr.joint_request_level
        joint[variable] = tr.calls("optimize.joint_optimize")
    # the per-row optimizer calls of a tau2 sweep are not request-level calls
    assert per_request["phi"] >= 1
    assert per_request["tau2"] == per_request["phi"] == joint["phi"]
    assert joint["tau2"] == per_request["tau2"] + 3  # one per row


def test_tracer_refuses_the_sweep_thread_pool(monkeypatch):
    monkeypatch.setenv("MZI_OPT_THREADS", "2")
    with pytest.raises(RuntimeError, match="MZI_OPT_THREADS=1"):
        tracer.Tracer().install()
    assert not tracer.is_wrapper(cli.run_scenario)


def _traced_counts(seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "phi_scan",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] not in ("s",)
    }


def test_per_layer_counts_repeat_exactly():
    first, second = _traced_counts(3), _traced_counts(3)
    assert first == second
    assert first["cli.joint_per_request"] > 0
    assert first["optimize.optimal_working_point.calls"] > 0


def test_golden_compare_flags_a_moved_value(tmp_path):
    summary = _tiny("phi", tmp_path)
    header, rows, _ = workloads.read_csv(summary["output_path"])
    reference = {
        "entry": golden.entry(summary, header, rows, str(tmp_path)),
        "tolerances": {"csv": golden.CSV_TOLERANCES, "summary": golden.SUMMARY_TOLERANCES},
    }
    assert golden.compare(reference, golden.entry(summary, header, rows, str(tmp_path))) == []
    rows[1][2] = repr(float(rows[1][2]) * (1.0 + 1e-5))
    moved = golden.compare(reference, golden.entry(summary, header, rows, str(tmp_path)))
    assert moved == [f"csv.delta_phi[1]: {float(rows[1][2])!r} vs golden "
                     f"{reference['entry']['columns']['delta_phi'][1]!r}"]


@pytest.mark.parametrize("count, percentile", [(28, 18 / 28), (100, 0.90), (5, 1.0)])
def test_tail_keeps_ten_samples_beyond(count, percentile):
    value, p = run.tail([float(i) for i in range(count)])
    assert p == pytest.approx(100.0 * percentile)
    assert count - 1 - value == (10 if count > 10 else 0)

"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

Layers are the package modules.  ``presets`` is data only and has none.
``BENCHMARK.json`` lists the per-layer metrics a run reports; ``metrics``
computes them, together with the call count and self time of every other
traced function.
"""
from __future__ import annotations

# the end-to-end metric a per-layer metric should move, by the longest
# prefix of its name
MOVES = {
    "states": "rows_per_s on alpha_scan, phi_scan",
    "mzi_core": "rows_per_s on alpha_scan, figures",
    "detection": "rows_per_s on figures, phi_scan",
    "qfi": "rows_per_s on phi_scan, alpha_scan",
    "optimize": "rows_per_s on figures, request_ms_p50 on phi_scan",
    "optimize.optimize_bs1": "rows_per_s on alpha_scan",
    "fock_oracle": "rows_per_s, request_ms_tail on oracle_check",
    "cli": "request_ms_p50 on phi_scan",
    "trace": "nothing: it is traced minus untraced request time",
}


def moves(name: str) -> str:
    prefix = max((p for p in MOVES if name == p or name.startswith(p + ".")), key=len)
    return MOVES[prefix]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tr, run, cache, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run, as {name: value}."""
    values = {}
    for name, stat in tr.stats.items():
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.self_s"] = stat.self_s
    joint = tr.calls("optimize.joint_optimize")
    builds = tr.calls("fock_oracle.build_state")
    values.update({
        "detection.sensitivity_evals": tr.sensitivity_evals(),
        "detection.self_s": tr.layer_self_s("detection"),
        "detection.zero_derivative": tr.layer_zero_derivative("detection"),
        "qfi.self_s": tr.layer_self_s("qfi"),
        "optimize.fallback_frac": _ratio(tr.joint_fallback, tr.joint_reports),
        "optimize.hessian_verified_frac": _ratio(tr.joint_hessian_verified, tr.joint_reports),
        "optimize.evals_per_joint": _ratio(tr.evals_in("optimize.joint_optimize"), joint),
        "fock_oracle.block_cache_hit_frac": _ratio(cache.hits, cache.hits + cache.misses),
        "fock_oracle.joint_dim_mean": _ratio(tr.amplitude_sizes, builds),
        "cli.joint_per_request": _ratio(tr.joint_request_level, tr.calls("cli.run_scenario")),
        "cli.empty_fields": run.empty_fields,
        "cli.csv_bytes": run.csv_bytes,
        "trace.overhead_s": overhead_s,
    })
    return values

"""Golden manifest of the ``figures`` workload.

The manifest holds, for each of the 28 bundled presets, every summary field
and every CSV column as computed by the commit that introduced the
benchmark, together with one tolerance per field and per column.  Every
``figures`` run is compared against it; a preset with any field outside its
tolerance counts as a failed request.

Write it (once) with::

    PYTHONPATH=src MZI_OPT_THREADS=1 python3 perfbench/golden.py

The script refuses to replace an existing manifest.  It must never be
regenerated to hide a difference: a change that moves an output beyond its
tolerance is a behaviour change, and deleting and regenerating the manifest
shows up as such in its diff.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import sys
import tempfile

SHOWN = 5  # mismatching rows listed per column
MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "figures.json.gz")

# |actual - golden| <= abs + rel * |golden|; "angle" compares on the circle
CSV_TOLERANCES = {
    "sweep_var": {"exact": True},
    "value": {"rel": 1e-12, "abs": 1e-12},
    "delta_phi": {"rel": 1e-6, "abs": 0.0},
    "qcrb_2p": {"rel": 1e-9, "abs": 0.0},
    "qcrb_i": {"rel": 1e-9, "abs": 0.0},
    "extinction_rate": {"rel": 1e-6, "abs": 1e-9},
    "mean_n4": {"rel": 1e-6, "abs": 1e-6},
}
SUMMARY_TOLERANCES = {
    "scenario": {"exact": True},
    "scheme": {"exact": True},
    "reference": {"exact": True},
    "pmc": {"exact": True},
    "tau1": {"rel": 0.0, "abs": 1e-6},
    "tau2": {"rel": 0.0, "abs": 1e-6},
    "theta": {"rel": 0.0, "abs": 1e-6},
    "theta_prime": {"rel": 0.0, "abs": 1e-6},
    "phi_opt": {"rel": 0.0, "abs": 1e-6, "angle": True},
    "phi_local": {"rel": 0.0, "abs": 1e-6, "angle": True},
    "delta_phi_opt": {"rel": 1e-8, "abs": 0.0},
    "qcrb_2p": {"rel": 1e-9, "abs": 0.0},
    "qcrb_i": {"rel": 1e-9, "abs": 0.0},
    "extinction_rate": {"rel": 1e-6, "abs": 1e-9},
    "mean_n4": {"rel": 1e-6, "abs": 1e-6},
    "mean_total_photons": {"rel": 1e-12, "abs": 0.0},
    "hessian_verified": {"exact": True},
    "degenerate": {"exact": True},
    "fallback_used": {"exact": True},
    "output_path": {"exact": True},
}


def _cell(text: str):
    return float(text) if text else None


def entry(summary: dict, header: str, rows: list, out_dir: str) -> dict:
    """Manifest entry of one preset run: its summary and CSV columns."""
    summary = dict(summary, output_path=os.path.relpath(summary["output_path"], out_dir))
    names = header.split(",")
    columns = {
        name: [row[i] if name == "sweep_var" else _cell(row[i]) for row in rows]
        for i, name in enumerate(names)
    }
    return {"summary": summary, "header": header, "rows": len(rows), "columns": columns}


def within(actual, golden, tol: dict) -> bool:
    if tol.get("exact") or golden is None or isinstance(golden, (bool, str)):
        return actual == golden
    if actual is None or isinstance(actual, (bool, str)):
        return False
    diff = abs(actual - golden)
    if tol.get("angle"):
        diff = min(diff % (2.0 * math.pi), -diff % (2.0 * math.pi))
    return diff <= tol["abs"] + tol["rel"] * abs(golden) or actual == golden


def compare(reference: dict, actual: dict) -> list[str]:
    """Every field of ``actual`` outside its tolerance (the first few per column)."""
    golden, tolerances = reference["entry"], reference["tolerances"]
    problems = []
    for name, tol in tolerances["summary"].items():
        a, g = actual["summary"].get(name), golden["summary"].get(name)
        if not within(a, g, tol):
            problems.append(f"summary.{name}: {a!r} vs golden {g!r}")
    if actual["header"] != golden["header"]:
        return problems + [f"CSV header {actual['header']!r} vs golden {golden['header']!r}"]
    if actual["rows"] != golden["rows"]:
        return problems + [f"{actual['rows']} CSV rows vs golden {golden['rows']}"]
    for name, tol in tolerances["csv"].items():
        bad = [
            (i, a, g)
            for i, (a, g) in enumerate(zip(actual["columns"][name], golden["columns"][name]))
            if not within(a, g, tol)
        ]
        for i, a, g in bad[:SHOWN]:
            problems.append(f"csv.{name}[{i}]: {a!r} vs golden {g!r}")
        if len(bad) > SHOWN:
            problems.append(f"csv.{name}: {len(bad) - SHOWN} more rows differ")
    return problems


def load(path: str = MANIFEST) -> dict:
    """Manifest as {label: {"entry": ..., "tolerances": ...}}."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        doc = json.load(handle)
    tolerances = doc["tolerances"]
    return {label: {"entry": e, "tolerances": tolerances} for label, e in doc["presets"].items()}


def write(path: str) -> int:
    import workloads
    from mzi_sensitivity import cli

    presets = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.dirname(path))) as out_dir:
        for req in workloads.figures_block():
            summary = cli.run_scenario(req.scenario, out_dir=out_dir, label=req.label)
            header, rows, _ = workloads.read_csv(summary["output_path"])
            presets[req.label] = entry(summary, header, rows, out_dir)
            print(f"{req.label}: {len(rows)} rows", file=sys.stderr)
    doc = {"tolerances": {"csv": CSV_TOLERANCES, "summary": SUMMARY_TOLERANCES},
           "presets": presets}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return 0


def main() -> int:
    if os.path.exists(MANIFEST):
        print(f"{MANIFEST} exists; refusing to regenerate it", file=sys.stderr)
        return 2
    if os.environ.get("MZI_OPT_THREADS") != "1":
        print("set MZI_OPT_THREADS=1, as the workload does", file=sys.stderr)
        return 2
    return write(MANIFEST)


if __name__ == "__main__":
    sys.exit(main())

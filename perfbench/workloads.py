"""Seeded workloads of the benchmark and the checks on their outputs.

Every workload is a sequence of *blocks*.  A block is a fixed mix of
request types whose inputs are drawn from the seed, so the mix (and with it
the cost of a block) is about the same for every seed and only the physics
inputs change.  The program itself only ever receives the generated
scenario documents and oracle configurations.

Workloads
---------
figures       the 28 bundled presets, in the order ``scripts/reproduce_figures.py``
              runs them; one block is the whole set and the seed is unused.
phi_scan      ``phi`` sweeps with enough points that row evaluation (detection,
              qfi, states) takes about two thirds of a request and the two
              optimizer calls the rest.
alpha_scan    ``alpha`` sweeps with ``bs1: "auto"``: every row rebuilds the
              moments and reruns the BS1 QFI scan and the joint optimizer.
oracle_check  desk-scale configurations checked against the truncated
              Fock-space oracle; the only workload that reaches fock_oracle.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from mzi_sensitivity import cli, detection, fock_oracle, mzi_core, presets, qfi, states
from mzi_sensitivity.errors import MziError

PI = math.pi
TWO_PI = 2.0 * math.pi

# the CSV schema is part of the contract, so it is pinned here rather than
# read back from the program
CSV_HEADER = "sweep_var,value,delta_phi,qcrb_2p,qcrb_i,extinction_rate,mean_n4"
CSV_COLUMNS = tuple(CSV_HEADER.split(","))

# Untraced, on one AMD EPYC core, a phi request costs about 29 ms for its
# optimizer calls plus 12.5 us a row, so rows take 30% of it at the presets'
# 1001 points, 53% at 2501 and 68% at 5001: the smallest round count at
# which the rows still outweigh the optimizer after a change that halves
# their cost.
PHI_POINTS = 5001
ALPHA_POINTS = 17
# the phi windows the presets plot
PHI_WINDOWS = ((0.0, TWO_PI), (0.9 * PI, 1.1 * PI), (0.95 * PI, 1.05 * PI))
# relative slack of the Cramer-Rao invariant and the oracle agreement (criterion 7b)
QCRB_SLACK = 1e-9
ORACLE_RTOL = 1e-6
ORACLE_CFG = fock_oracle.OracleConfig(tail_tolerance=1e-11, max_joint_dimension=16384)
# requests per block of the oracle workload: every (port 0, port 1) family pair
ORACLE_FAMILIES = ("coherent", "squeezed_vacuum", "squeezed_coherent", "fock")
ORACLE_GRID = (0.125, 0.375, 0.625, 0.875)  # centres of four equal strata
STRATA = 5  # slices per drawn input of the sweep workloads


@dataclass
class Request:
    """One unit of client work: a scenario for ``cli.run_scenario`` or an
    oracle configuration."""

    label: str
    scenario: Optional[cli.Scenario] = None
    doc: Optional[dict] = None
    oracle: Optional[tuple] = None  # (InputState, BsAngles, phi)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

class Stratified:
    """Uniform draws from ``rng``, the ``j``-th draw of a block confined to
    slice ``(index + j) % STRATA`` of ``STRATA`` equal slices of its range.

    The slice of each input rotates with the block index, so a run of a few
    blocks covers every range evenly, and the seed changes the inputs rather
    than how many of them land in the costly corners (a port 0 nearly as
    bright as port 1 next to a balanced BS1 makes the optimizer fall back to
    its grid scan).
    ``STRATA`` is odd, so every slice meets both BS1 choices, which
    alternate from block to block.
    """

    def __init__(self, rng: random.Random, index: int):
        self.rng, self.index, self.draws = rng, index, 0

    def uniform(self, lo: float, hi: float) -> float:
        k = (self.index + self.draws) % STRATA
        self.draws += 1
        return lo + (hi - lo) * (k + self.rng.random()) / STRATA

    def randint(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _coherent(mag: float) -> dict:
    return {"kind": "coherent", "amplitude_mag": mag}


def _sqz_vac(r: float) -> dict:
    return {"kind": "squeezed_vacuum", "squeeze_mag": r}


def _sqz_coh(mag: float, r: float) -> dict:
    return {"kind": "squeezed_coherent", "amplitude_mag": mag, "squeeze_mag": r}


def _fock(n: int) -> dict:
    return {"kind": "fock", "fock_n": n}


def _dual(pmc: str):
    def build(rng: random.Random, alpha: float) -> dict:
        # port 0 stays the dimmer displaced beam, as in the presets (beta/alpha <= 0.64)
        return {"port0": _sqz_coh(alpha * rng.uniform(0.05, 0.7), rng.uniform(0.2, 1.2)),
                "port1": _sqz_coh(alpha, rng.uniform(0.1, 0.6))}
    return build


# Every preset input family as (name, pmc, build(rng, port-1 amplitude)).
# Ranges follow the presets: |alpha| in [1, 1e3], squeeze r <= 1.2 on port 0
# and <= 0.6 on a bright port 1, Fock n <= 3.
FAMILIES = (
    ("coh_sqzvac", "coh_sqz_vac",
     lambda rng, a: {"port0": _sqz_vac(rng.uniform(0.2, 1.2)), "port1": _coherent(a)}),
    ("sqzcoh_sqzvac", "sqz_coh_sqz_vac",
     lambda rng, a: {"port0": _sqz_vac(rng.uniform(0.2, 1.2)),
                     "port1": _sqz_coh(a, rng.uniform(0.1, 0.6))}),
    ("dual_pmc1", "pmc1", _dual("pmc1")),
    ("dual_pmc2", "pmc2", _dual("pmc2")),
    ("dual_pmc3", "pmc3", _dual("pmc3")),
    ("coh_fock", None,
     lambda rng, a: {"port0": _fock(rng.randint(1, 3)), "port1": _coherent(a)}),
)

# Scheme pairings per family.  The coherent + Fock family is run with
# homodyne detection only, as in its preset: with an intensity scheme every
# optimizer call of that family falls back to the 201x201 grid.
_SCHEMES = ("difference_intensity", "single_mode_intensity", "balanced_homodyne")


def _schemes_for(family: str) -> tuple[str, ...]:
    return ("balanced_homodyne",) if family == "coh_fock" else _SCHEMES


def _scenario_doc(family_input: dict, pmc: Optional[str], scheme: str, sweep: dict,
                  bs1="auto") -> dict:
    return {
        "input": family_input,
        "pmc": pmc,
        "scheme": scheme,
        "reference": "external" if scheme == "balanced_homodyne" else "none",
        "bs1": bs1,
        "sweep": sweep,
        "output_path": "request.csv",
    }


def phi_scan_block(rng: random.Random, index: int) -> list[Request]:
    """Every (family, scheme) pairing once, as a ``phi`` sweep.  The preset
    windows and the optimized/balanced BS1 choice rotate over the pairings,
    so every block has the same mix."""
    rng = Stratified(rng, index)
    out = []
    k = index
    for family, pmc, build in FAMILIES:
        doc = build(rng, _log_uniform(rng, 1.0, 1e3))
        for scheme in _schemes_for(family):
            lo, hi = PHI_WINDOWS[k % len(PHI_WINDOWS)]
            bs1 = ("auto", 0.5)[k % 2]  # presets compare optimized and balanced BS1
            k += 1
            sweep = {"variable": "phi", "from": lo, "to": hi, "points": PHI_POINTS}
            d = _scenario_doc(doc, pmc, scheme, sweep, bs1)
            out.append(Request(f"phi_scan/{index}/{family}/{scheme}", doc=d))
    return out


def alpha_scan_block(rng: random.Random, index: int) -> list[Request]:
    """Every (family, scheme) pairing once, as an ``alpha`` sweep with BS1 free.

    The input is built at the low end of the sweep, so a dimmer port 0
    stays dimmer than port 1 on every row.
    """
    rng = Stratified(rng, index)
    out = []
    for family, pmc, build in FAMILIES:
        lo, hi = sorted(_log_uniform(rng, 1.0, 1e3) for _ in range(2))
        doc = build(rng, lo)
        sweep = {"variable": "alpha", "from": lo, "to": hi, "points": ALPHA_POINTS}
        for scheme in _schemes_for(family):
            d = _scenario_doc(doc, pmc, scheme, sweep)
            out.append(Request(f"alpha_scan/{index}/{family}/{scheme}", doc=d))
    return out


def _desk_mode(family: str, u_mag: float, u_sq: float, phases: tuple) -> states.ModeSpec:
    """Desk-scale single-mode input with the ranges of acceptance criterion
    7b (amplitudes <= 2, squeeze <= 0.7, Fock n <= 3); ``u_mag`` and
    ``u_sq`` in [0, 1] place the magnitudes in their ranges."""
    if family == "coherent":
        return states.coherent(0.6 + 1.4 * u_mag, phases[0])
    if family == "squeezed_vacuum":
        return states.squeezed_vacuum(0.15 + 0.55 * u_sq, phases[1])
    if family == "squeezed_coherent":
        return states.squeezed_coherent(0.4 + 1.2 * u_mag, phases[0], 0.1 + 0.6 * u_sq, phases[1])
    return states.fock(1 + min(int(3 * u_mag), 2))


def _golden_phases(k: int) -> tuple:
    """Two well-spread phases for the ``k``-th mode (golden-ratio sequence)."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    return TWO_PI * ((k * g) % 1.0), TWO_PI * ((k * g * g) % 1.0)


def oracle_block(rng: random.Random, index: int) -> list[Request]:
    """Every (port 0, port 1) family pair once, with random angles and phi.

    The oracle's cost and memory grow steeply with the photon numbers, and
    its truncation also depends on the phases, so the states are not drawn:
    magnitudes walk a fixed grid over the ranges (amplitude and squeeze
    rising together, then opposed) and phases a golden-ratio sequence.  A
    run of the same length then does the same work for every seed; the
    seed draws the beam-splitter angles and the working point.
    """
    out = []
    opposed = (index // len(ORACLE_GRID)) % 2
    for i, f0 in enumerate(ORACLE_FAMILIES):
        for j, f1 in enumerate(ORACLE_FAMILIES):
            modes = []
            for port, step in ((0, index + j), (1, index + i)):
                u = ORACLE_GRID[step % len(ORACLE_GRID)]
                k = 2 * (len(out) + len(ORACLE_FAMILIES) ** 2 * index) + port
                modes.append((u, 1.0 - u if opposed else u, _golden_phases(k)))
            state = states.InputState(
                port0=_desk_mode(f0, *modes[0]), port1=_desk_mode(f1, *modes[1])
            )
            angles = mzi_core.BsAngles(rng.uniform(0.3, PI - 0.3), rng.uniform(0.3, PI - 0.3))
            phi = rng.uniform(0.2, TWO_PI - 0.2)
            out.append(Request(f"oracle_check/{index}/{f0}+{f1}", oracle=(state, angles, phi)))
    return out


def figures_block() -> list[Request]:
    """All bundled presets, in the order of ``scripts/reproduce_figures.py``."""
    return [
        Request(name, scenario=scenario)
        for preset in presets.PRESET_IDS
        for name, scenario in presets.resolve_preset(preset)
    ]


_BLOCKS = {
    "figures": lambda rng, index: figures_block(),
    "phi_scan": phi_scan_block,
    "alpha_scan": alpha_scan_block,
    "oracle_check": oracle_block,
}


def block(workload: str, seed: int, index: int) -> list[Request]:
    """Block ``index`` of ``workload`` at ``seed``, with its scenario
    documents parsed (parsing is client work, not a request)."""
    out = _BLOCKS[workload](random.Random(f"{workload}:{seed}:{index}"), index)
    for req in out:
        if req.doc is not None:
            req.scenario = cli.scenario_from_json(req.doc)
    return out


def warmup_request(workload: str) -> Request:
    """A small fixed request of the workload's kind, run once during set-up."""
    if workload == "oracle_check":
        state = states.InputState(port0=states.squeezed_vacuum(0.5), port1=states.coherent(1.5))
        return Request("warmup", oracle=(state, mzi_core.BsAngles(1.0, 2.0), 1.3))
    doc = _scenario_doc(
        {"port0": _sqz_vac(1.2), "port1": _coherent(100.0)}, "coh_sqz_vac",
        "difference_intensity", {"variable": "phi", "from": 0.0, "to": TWO_PI, "points": 5},
    )
    return Request("warmup", scenario=cli.scenario_from_json(doc), doc=doc)


# ---------------------------------------------------------------------------
# requests and checks
# ---------------------------------------------------------------------------

# the exceptions the CLI maps to its documented exit codes 2, 3 and 4
DOCUMENTED_ERRORS = (ValueError, KeyError, MziError, OSError)


def documented(exc: BaseException) -> bool:
    return isinstance(exc, DOCUMENTED_ERRORS)


def call_request(req: Request, out_dir: str):
    """The timed part of a request.  Returns the program's result."""
    if req.oracle is not None:
        return oracle_evaluate(*req.oracle)
    return cli.run_scenario(req.scenario, out_dir=out_dir, label=req.label)


def oracle_evaluate(state, angles, phi) -> dict:
    """Closed forms and oracle values of one desk-scale configuration."""
    m = states.schwinger_moments(state)
    fm = states.field_moments(state)
    report = qfi.qfi_report(qfi.fisher_matrix(state, angles.theta))
    phi_local = detection.default_local_oscillator_phase(fm)
    phases = mzi_core.PhaseConfig(mzi_core.Convention.EXTERNAL_REFERENCE, phi, phi_local)
    out = {
        "moments": m,
        "field": fm,
        "f_i": report.f_i,
        "oracle_moments": fock_oracle.oracle_schwinger_moments(state, ORACLE_CFG),
        "oracle_field": fock_oracle.oracle_field_moments(state, ORACLE_CFG),
        "oracle_f_i": fock_oracle.oracle_qfi_single(state, angles.theta, ORACLE_CFG),
        "schemes": {},
    }
    for scheme in detection.Scheme:
        try:
            if scheme is detection.Scheme.DIFFERENCE_INTENSITY:
                analytic = detection.sensitivity_difference(m, angles, phi).delta_phi
                bound = report.qcrb_2p
            elif scheme is detection.Scheme.SINGLE_MODE_INTENSITY:
                analytic = detection.sensitivity_single(m, angles, phi).delta_phi
                bound = report.qcrb_2p
            else:
                analytic = detection.sensitivity_homodyne(fm, angles, phi, phi_local).delta_phi
                bound = report.qcrb_i
        except detection.ZeroDerivative:
            continue
        numeric = fock_oracle.oracle_sensitivity(state, angles, phases, scheme, ORACLE_CFG)
        out["schemes"][scheme.value] = (analytic, numeric, bound)
    return out


def _rel(a: complex, o: complex) -> float:
    return abs(a - o) / max(1.0, abs(o))


def check_oracle(result: dict) -> list[str]:
    """Criterion 7b at the same tolerance: moments, F_i and sensitivities agree
    with the oracle, and every sensitivity respects its Cramer-Rao bound."""
    problems = []
    for kind, oracle_kind in (("moments", "oracle_moments"), ("field", "oracle_field")):
        a, o = result[kind], result[oracle_kind]
        for name in a.__dataclass_fields__:
            err = _rel(getattr(a, name), getattr(o, name))
            if not err < ORACLE_RTOL:
                problems.append(f"{kind}.{name}: closed form vs oracle rel {err:.2e}")
    err = _rel(result["f_i"], result["oracle_f_i"])
    if not err < ORACLE_RTOL:
        problems.append(f"f_i: closed form vs oracle rel {err:.2e}")
    for scheme, (analytic, numeric, bound) in result["schemes"].items():
        err = abs(analytic - numeric) / max(abs(numeric), 1e-10)
        if not err < ORACLE_RTOL:
            problems.append(
                f"{scheme}: delta_phi {analytic:.9g} vs oracle {numeric:.9g} rel {err:.2e}"
            )
        if not analytic >= bound * (1.0 - QCRB_SLACK):
            problems.append(f"{scheme}: delta_phi {analytic:.9g} below QCRB {bound:.9g}")
    return problems


def read_csv(path: str) -> tuple[str, list[list[str]], int]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()
    header = lines[0] if lines else ""
    return header, [line.split(",") for line in lines[1:]], len(text.encode("utf-8"))


def _float(cell: str) -> Optional[float]:
    return float(cell) if cell else None


def check_sweep(scenario: cli.Scenario, summary: dict, header: str, rows: list) -> list[str]:
    """Schema, row count and the Cramer-Rao invariant of every non-empty row."""
    problems = []
    if header != CSV_HEADER:
        problems.append(f"CSV header {header!r} != {CSV_HEADER!r}")
        return problems
    spec = scenario.sweep
    expected = 1 if spec.start == spec.stop else spec.points
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    homodyne = scenario.scheme is detection.Scheme.BALANCED_HOMODYNE
    bad_rows = []
    for i, row in enumerate(rows):
        if len(row) != len(CSV_COLUMNS):
            bad_rows.append(f"row {i}: {len(row)} fields")
            continue
        if row[0] != spec.variable:
            bad_rows.append(f"row {i}: sweep_var {row[0]!r}")
        delta_phi, qcrb = _float(row[2]), _float(row[4] if homodyne else row[3])
        if delta_phi is None:
            continue
        if qcrb is None or not delta_phi >= qcrb * (1.0 - QCRB_SLACK):
            bad_rows.append(f"row {i}: delta_phi {delta_phi!r} below QCRB {qcrb!r}")
    problems += bad_rows[:5]
    if len(bad_rows) > 5:
        problems.append(f"{len(bad_rows) - 5} more rows fail")
    qcrb = summary["qcrb_i"] if homodyne else summary["qcrb_2p"]
    if not summary["delta_phi_opt"] >= qcrb * (1.0 - QCRB_SLACK):
        problems.append(f"summary: delta_phi_opt {summary['delta_phi_opt']!r} below QCRB {qcrb!r}")
    return problems


def count_empty(rows: list) -> int:
    return sum(1 for row in rows for cell in row if cell == "")

"""The benchmark's workloads: seeded inputs, timed cases and output checks.

Each workload builds one pass of cases from the workload seed; the runner
repeats the pass.  A case's ``run`` is the only timed call and goes through
kcprobe's public names.  ``reference`` computes the expected outputs; it runs
in a process of its own, so that its memory and time never mix with the
measured ones.  ``check`` compares an output with that reference after the
timed call.  Why each workload exists is written down in ``README.md`` next
to this file.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import kcprobe as kp
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
INPUTS = BENCH_DIR / "inputs"
CLI_EXPECTED = BENCH_DIR / "expected" / "cli_mix.json"
# Every probability, defect or witness value must sit this close to its reference.
TOL = kp.DEFAULT.oracle_agreement


@dataclass
class Case:
    label: str
    run: Callable[[Path], object]
    check: Callable[[object, object, Path], list]  # (output, reference, out dir) -> problems
    items: Callable[[object], int]
    reference: Callable[[], object] = field(default=lambda: None)


@dataclass
class Workload:
    name: str
    build: Callable[[int], tuple]  # seed -> (warm-up case, cases of one pass)
    # Nominal seconds per pass: a run makes round(seconds / pass_seconds) passes.
    pass_seconds: float


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _protocol(rng: np.random.Generator, model, n: int):
    """Random X/Y axes for a qubit probe, the Fourier meter otherwise."""
    if model.probe_dim == 2:
        axes = "".join(rng.choice(["X", "Y"], size=n))
        return kp.qubit_xy_protocol(model, axes), axes
    return kp.fourier_protocol(model, n), "F" * n


def _far(value: float, expected: float) -> bool:
    return not abs(value - expected) <= TOL


def _worst(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got, dtype=float) - want)))


# --- consistency scans ----------------------------------------------------


def kc_reference(steps, n_max: int, states, commuting: bool) -> dict:
    """Reference defects and verdict of one ``check_kc_all`` call."""
    norms, state_defects = ref.kc_defects(steps, n_max, states)
    verdict = "consistent" if commuting else "violated"
    worst = float(norms.max())
    if (worst > kp.DEFAULT.kc) != (verdict == "violated") or 1e-11 < worst < 1e-7:
        raise RuntimeError(f"generated input has an ambiguous KC verdict (max defect {worst:.3e})")
    return {"verdict": verdict, "norms": norms, "state_defects": state_defects}


def kc_problems(report, want: dict) -> list:
    problems = []
    if report.verdict != want["verdict"]:
        problems.append(f"verdict {report.verdict}, expected {want['verdict']}")
    if len(report.entries) != want["norms"].size:
        return problems + [f"{len(report.entries)} entries, expected {want['norms'].size}"]
    err = _worst([e.operator_defect for e in report.entries], want["norms"])
    if not err <= TOL:
        problems.append(f"operator defect off by {err:.3e}")
    if want["state_defects"].shape[1]:
        err = _worst([e.state_defects for e in report.entries], want["state_defects"])
        if not err <= TOL:
            problems.append(f"state defect off by {err:.3e}")
    if _far(report.max_operator_defect, float(want["norms"].max())):
        problems.append("max operator defect differs from the reference")
    return problems


def _kc_case(label: str, model, axes: str, protocol, n_max: int, states, commuting: bool) -> Case:
    def reference() -> dict:
        steps = ref.step_kraus(model.hamiltonians, axes, [model.step_time] * n_max)
        return kc_reference(steps, n_max, states, commuting)

    return Case(
        label=label,
        run=lambda tmp: kp.check_kc_all(protocol, n_max, states),
        check=lambda report, want, tmp: kc_problems(report, want),
        items=lambda report: len(report.entries),
        reference=reference,
    )


# Noncommuting shapes (d_P, d_S, n_max), then one commuting model.  Four fast
# cases, two middle ones and four at n_max 10, so that the p50 and the tail
# latency fall in the middle of a group of similar cases, not between two.
KC_DEEP_SHAPES = (
    (2, 2, 8), (2, 2, 9), (2, 2, 10), (2, 4, 8), (2, 4, 9), (2, 4, 10), (2, 4, 10), (3, 3, 6), (4, 3, 5)
)
KC_DEEP_COMMUTING = (2, 4, 10)


def build_kc_deep(seed: int):
    rng = _rng(seed, 1)
    shapes = [(s, False) for s in KC_DEEP_SHAPES] + [(KC_DEEP_COMMUTING, True)]
    cases = []
    for k, ((d_p, d_s, n_max), commuting) in enumerate(shapes):
        model = kp.random_model(_draw_seed(rng), d_p, d_s, commuting)
        protocol, axes = _protocol(rng, model, n_max)
        states = [np.eye(d_s, dtype=complex) / d_s, _density(rng, d_s)]
        kind = "commuting" if commuting else "random"
        label = f"kc {k}: {kind} dP={d_p} dS={d_s} n={n_max}"
        cases.append(_kc_case(label, model, axes, protocol, n_max, states, commuting))
    return cases[0], cases


# --- oracle replay --------------------------------------------------------

# (d_P, d_S, n_max, commuting, meter) of the random models in one pass.  With
# the cases added below a pass has 15, an odd count, so that the p50 falls
# inside one case's samples.
ORACLE_MODELS = (
    (2, 2, 4, False, "X"),
    (2, 3, 4, False, "Y"),
    (2, 4, 3, False, "XY"),
    (3, 2, 4, False, "F"),
    (3, 3, 4, False, "F"),
    (3, 4, 3, False, "F"),
    (2, 4, 4, True, "X"),
    (2, 2, 4, True, "Y"),
    (2, 3, 3, True, "Y"),
    (3, 3, 3, True, "F"),
)


# classical_noise_model's documented form: scalar Hamiltonians +1 and -1 on a
# one-dimensional system, run for the accumulated phase of each segment, so
# the X meter's Kraus scalars are cos(alpha) and -i sin(alpha).
NOISE_HAMILTONIANS = (np.array([[1.0]]), np.array([[-1.0]]))


def _oracle_case(label: str, protocol, rho, n_max: int, commutative: bool, hams, axes: str, times) -> Case:
    """``hams``, ``axes`` and ``times`` are the generated inputs behind ``protocol``."""
    d_p = protocol.probe_dim

    def reference() -> dict:
        steps = ref.step_kraus(hams, axes, times)
        _, defects = ref.kc_defects(steps, n_max, [rho])
        return {
            "probabilities": [ref.probabilities(steps[:n], rho) for n in range(1, n_max + 1)],
            "state_defects": defects[:, 0],
        }

    def check(report, want, tmp) -> list:
        problems = []
        if not report.agrees:
            problems.append("oracle report says agrees: false")
        if report.n_max != n_max or len(report.per_n) != n_max:
            problems.append(f"report covers n_max={report.n_max}, expected {n_max}")
        values = [report.max_abs_discrepancy, report.max_defect_discrepancy, *report.per_n]
        if report.commutative != commutative:
            problems.append(f"commutative={report.commutative}, expected {commutative}")
        elif commutative:
            values.append(report.max_product_form_discrepancy)
        elif report.max_product_form_discrepancy is not None:
            problems.append("product-form discrepancy reported for a noncommutative model")
        if any(_far(v, 0.0) for v in values):
            problems.append(f"discrepancy {max(values):.3e} above {TOL:g}")
        # The report only says that kcprobe's two routes agree with each
        # other, so the fast route is also held against the reference.
        for n, expected in enumerate(want["probabilities"], start=1):
            table = kp.full_distribution(protocol, rho, n).table
            got = [table[seq] for seq in itertools.product(range(d_p), repeat=n)]
            err = _worst(got, expected)
            if not err <= TOL:
                problems.append(f"n={n} probabilities off by {err:.3e}")
        got = [
            kp.kc_defect_state(protocol, rho, n, j, fixed)
            for n in range(2, n_max + 1)
            for j in range(1, n)
            for fixed in itertools.product(range(d_p), repeat=n - 1)
        ]
        err = _worst(got, want["state_defects"])
        if not err <= TOL:
            problems.append(f"state defects off by {err:.3e}")
        return problems

    return Case(
        label=label,
        run=lambda tmp: kp.oracle_compare(protocol, rho, n_max),
        check=check,
        items=lambda report: sum(d_p**n for n in range(1, n_max + 1)),
        reference=reference,
    )


def build_oracle_replay(seed: int):
    rng = _rng(seed, 2)
    cases = []
    for d_p, d_s, n_max, commuting, meter in ORACLE_MODELS:
        model = kp.random_model(
            _draw_seed(rng), d_p, d_s, commuting, step_time=float(rng.uniform(0.3, 1.5))
        )
        if meter == "F":
            protocol, axes = kp.fourier_protocol(model, n_max), "F" * n_max
        elif meter == "XY":
            protocol, axes = _protocol(rng, model, n_max)
        else:
            axes = meter * n_max
            protocol = kp.qubit_xy_protocol(model, axes)
        kind = "commuting" if commuting else "random"
        label = f"oracle {kind} {meter} dP={d_p} dS={d_s} n={n_max}"
        times = [model.step_time] * n_max
        rho = _density(rng, d_s)
        cases.append(_oracle_case(label, protocol, rho, n_max, commuting, model.hamiltonians, axes, times))
    one = np.array([[1.0]], dtype=complex)
    for k in range(2):
        realization = kp.random_noise_realization(_draw_seed(rng), 5)
        protocol = kp.classical_noise_model(realization, 4)
        phases = [x * t for x, t in zip(realization.xis, realization.durations)][:4]
        cases.append(_oracle_case(
            f"oracle classical noise {k}", protocol, one, 4, True, NOISE_HAMILTONIANS, "XXXX", phases
        ))
    coupling = [[float(rng.uniform(0.5, 1.5)), 0.0, 0.0]]
    nv = kp.nv_center_model(1, float(rng.uniform(0.5, 1.5)), 0.0, coupling, float(rng.uniform(0.5, 2.0)))
    for axis in "XY":
        protocol = kp.qubit_xy_protocol(nv, axis * 3)
        cases.append(_oracle_case(
            f"oracle nv {axis}", protocol, np.eye(2) / 2, 3, False, nv.hamiltonians, axis * 3, [nv.step_time] * 3
        ))
    protocol, rho = kp.lg_search_instance(_draw_seed(rng), 0)
    cases.append(_oracle_case(
        "oracle lg instance 0", protocol, rho, 2, False, protocol.model.hamiltonians, "XX", protocol.step_times
    ))
    return cases[0], cases


# --- command line ---------------------------------------------------------

CLI_COMMANDS = {
    "run classical_noise": ["run", "classical_noise.json"],
    "run commuting_random": ["run", "commuting_random.json"],
    "run nv_sweep": ["run", "nv_sweep.json"],
    "run search_degenerate": ["run", "search_degenerate.json"],
    "run sigma_pair_y": ["run", "sigma_pair_y.json"],
    "oracle commuting_random": ["oracle", "commuting_random.json"],
    "search search_degenerate": ["search", "search_degenerate.json"],
    "sweep omega": ["sweep", "nv_sweep.json", "--param", "omega", "--grid", "0:2:21"],
    "sweep t": ["sweep", "nv_sweep.json", "--param", "t", "--grid", "0.05:20:400"],
}
CLI_OUTPUTS = {"run": "report.json", "oracle": "oracle.json", "search": "search.json", "sweep": "sweep.csv"}


def cli_argv(label: str, out_dir: Path) -> list:
    command, config, *rest = CLI_COMMANDS[label]
    return [command, str(INPUTS / config), *rest, "--out", str(out_dir)]


def read_cli_outputs(label: str, out_dir: Path):
    """Parsed primary output of one command: JSON, or CSV rows as floats."""
    path = out_dir / CLI_OUTPUTS[CLI_COMMANDS[label][0]]
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        return {"header": header, "rows": [[float(x) for x in row] for row in rows]}
    return json.loads(path.read_text(encoding="utf-8"))


def call_cli(label: str, out_dir: Path) -> int:
    # Looked up on every call, so a traced run sees its wrapper.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return kp.cli.main(cli_argv(label, out_dir))


def _diff(got, want, path: str = "") -> list:
    """Differences between two parsed outputs; numbers may differ by TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '/'}: keys differ"]
        return [p for k in want for p in _diff(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _diff(g, w, f"{path}/{i}")]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, numeric) or _far(got, want):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _disagreements(data) -> bool:
    if isinstance(data, dict):
        return data.get("agrees") is False or any(_disagreements(v) for v in data.values())
    if isinstance(data, list):
        return any(_disagreements(v) for v in data)
    return False


@functools.cache
def _cli_expected() -> dict:
    return json.loads(CLI_EXPECTED.read_text(encoding="utf-8"))


def build_cli_mix(seed: int):
    import kcprobe.cli  # noqa: F401  (the import is part of this workload's set-up)

    def make(label: str) -> Case:
        def check(code, want, out_dir) -> list:
            if code != want["exit"]:
                return [f"exit code {code}, expected {want['exit']}"]
            # `kcprobe oracle` exits 0 even when its report disagrees.
            got = read_cli_outputs(label, out_dir)
            problems = ["an oracle report says agrees: false"] if _disagreements(got) else []
            return problems + _diff(got, want["output"])[:5]

        return Case(
            label=label,
            run=lambda out_dir: call_cli(label, out_dir),
            check=check,
            items=lambda code: 1,
            reference=lambda: _cli_expected()[label],
        )

    order = list(CLI_COMMANDS)
    _rng(seed, 3).shuffle(order)
    cases = [make(label) for label in order]
    warm = next(c for c in cases if c.label == "run sigma_pair_y")
    return warm, cases


# --- algebra --------------------------------------------------------------


def _algebra_case(label: str, model, rng) -> Case:
    protocol, axes = _protocol(rng, model, 3)

    def reference() -> dict:
        commutator = ref.max_commutator(model.hamiltonians)
        commuting = commutator <= kp.DEFAULT.commutator
        steps = ref.step_kraus(model.hamiltonians, axes, [model.step_time] * 3)
        gaps = [
            float(np.min(np.diff(np.linalg.eigvalsh(k.conj().T @ k)))) for step in steps for k in step
        ]
        return {
            "kc": kc_reference(steps, 3, [], commuting),
            "dimension": ref.algebra_dimension(model.hamiltonians),
            "commutant_dimension": len(ref.commutant(model.hamiltonians)),
            "commutator": commutator,
            "commuting": commuting,
            "gaps": gaps,
        }

    def check(output, want, tmp) -> list:
        report, kc_report = output
        problems = kc_problems(kc_report, want["kc"])
        for key in ("dimension", "commutant_dimension"):
            if getattr(report, key) != want[key]:
                problems.append(f"{key} {getattr(report, key)}, expected {want[key]}")
        if report.commutative != want["commuting"]:
            problems.append(f"commutative={report.commutative} is wrong")
        if _far(report.max_generator_commutator, want["commutator"]):
            problems.append("generator commutator differs from the reference")
        rows = report.effect_nondegeneracy or ()
        if len(rows) != len(want["gaps"]):
            problems.append(f"{len(rows)} effect rows, expected {len(want['gaps'])}")
        elif any(_far(r["min_gap"], g) for r, g in zip(rows, want["gaps"])):
            problems.append("effect gaps differ from the reference")
        return problems

    return Case(
        label=label,
        run=lambda tmp: (kp.algebra_report(model, protocol), kp.check_kc_all(protocol, 3)),
        check=check,
        items=lambda output: 1,
        reference=reference,
    )


def _commutant_case(label: str, model) -> Case:
    def check(basis, dimension, tmp) -> list:
        if basis.dimension != dimension:
            return [f"commutant dimension {basis.dimension}, expected {dimension}"]
        members = np.array(basis.basis)
        gram = np.einsum("iab,jab->ij", members.conj(), members)
        worst = max(float(np.linalg.norm(m @ h - h @ m)) for m in members for h in model.hamiltonians)
        problems = [] if worst <= kp.DEFAULT.nullspace else [f"member commutator {worst:.3e}"]
        if np.max(np.abs(gram - np.eye(len(members)))) > 1e-9:
            problems.append("commutant basis is not orthonormal")
        return problems

    return Case(
        label=label,
        run=lambda tmp: kp.commutant_basis(model.hamiltonians),
        check=check,
        items=lambda basis: 1,
        reference=lambda: len(ref.commutant(model.hamiltonians)),
    )


def build_algebra_wide(seed: int):
    rng = _rng(seed, 4)
    cases = []
    # Eleven models in a pass, four of them alike, so that the median latency
    # falls among those four models' samples rather than between two sizes.
    baths = ((2, False),) * 4 + ((2, True), (3, False), (3, True))
    for k, (n_nuclei, same) in enumerate(baths):
        if same:
            couplings = np.tile(rng.uniform(0.2, 1.0, size=3), (n_nuclei, 1))
        else:
            couplings = rng.uniform(-1.0, 1.0, size=(n_nuclei, 3))
        model = kp.nv_center_model(
            n_nuclei, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.5)), couplings
        )
        kind = "identical" if same else "varied"
        cases.append(_algebra_case(f"algebra spin bath {k}: {n_nuclei} nuclei, {kind}", model, rng))
    for d_s, commuting in ((6, False), (8, False), (8, True)):
        model = kp.random_model(_draw_seed(rng), 2, d_s, commuting)
        kind = "commuting" if commuting else "random"
        cases.append(_algebra_case(f"algebra {kind} dS={d_s}", model, rng))
    bath = kp.nv_center_model(4, 1.0, 0.0, rng.uniform(-1.0, 1.0, size=(4, 3)))
    cases.append(_commutant_case("commutant spin bath 4 (d=16)", bath))
    return cases[0], cases


# On the 2-vCPU x86 box the benchmark was defined on, a pass took about 3 s in
# kc_deep, 2-2.6 s in cli_mix and algebra_wide, and 0.5 s in oracle_replay.
# The first three are set to make 7 passes at --seconds 20: then the p50 and
# the tail (10 samples above it) fall in the middle of a case's samples, not
# at the edge between two case sizes, where they spread most.  oracle_replay
# makes 30, because its output checks take about as long as its cases.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kc_deep", build_kc_deep, 3.0),
        Workload("oracle_replay", build_oracle_replay, 0.67),
        Workload("cli_mix", build_cli_mix, 2.85),
        Workload("algebra_wide", build_algebra_wide, 2.85),
    )
}


def record_cli_expected() -> None:
    """Write the reference outputs of every command at the current commit."""
    import kcprobe.cli  # noqa: F401

    scratch = BENCH_DIR.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    expected = {}
    for label in CLI_COMMANDS:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            code = call_cli(label, Path(tmp))
            expected[label] = {"exit": code, "output": read_cli_outputs(label, Path(tmp))}
    CLI_EXPECTED.write_text(json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")

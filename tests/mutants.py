"""A register of mutation checks: named edits of the source that the tests must kill.

Each :class:`Mutant` names a file, one exact snippet of it and its
replacement, and the tests expected to fail once the snippet is replaced.
``tests/test_mutants.py`` (Tier-1) checks only that each snippet occurs
exactly once, so the register cannot rot silently: a refactor that moves the
code must move the mutant too.

Running a mutant is not part of Tier-1.  From the repository root::

    python -m tests.mutants [name ...]

copies the tree (without ``.git`` and caches) to a temporary directory, for
each named mutant (all of them by default) applies it there, runs its killing
tests there, and reports ``killed`` (by the first failing test) or
``survived``, with the time.  It exits 0
when every mutant run was killed, 1 otherwise, and 2 for an unknown name.

Rules:

- a change that rewrites code a mutant targets moves the mutant with it, or
  retires it with a CHANGES.md line that says why;
- a mutant's killing tests may grow, but never shrink to make it pass;
- every mutation check recorded in CHANGES.md is added here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root
    breaks: str  # what the mutation gets wrong

    def apply(self, root: Path) -> None:
        """Replace the snippet in the copy of the tree at ``root``."""
        path = root / self.path
        source = path.read_text(encoding="utf-8")
        if source.count(self.snippet) != 1:
            raise ValueError(f"{self.name}: the snippet occurs {source.count(self.snippet)} times in {self.path}")
        path.write_text(source.replace(self.snippet, self.replacement), encoding="utf-8")


SEQUENCES = "src/kcprobe/sequences.py"
MODEL = "src/kcprobe/model.py"
SCENARIOS = "src/kcprobe/scenarios.py"
LINALG = "src/kcprobe/linalg.py"
ALGEBRA = "src/kcprobe/algebra.py"

MUTANTS = (
    Mutant(
        name="meter_ket_without_conj",
        path=MODEL,
        snippet="    return preparation.amplitudes * meter.states.conj()\n",
        replacement="    return preparation.amplitudes * meter.states\n",
        killers=("tests/test_acceptance.py",),
        breaks="a cycle's Kraus operators read the meter ket, not its bra, so a complex meter (Y) measures the wrong basis",
    ),
    Mutant(
        name="probability_stacks_twice_as_long",
        path=SEQUENCES,
        snippet="    count = _block_len(d) // (4 * d_p)  # a stack holds at most d_P count, a quarter block\n",
        replacement="    count = _block_len(d) // (2 * d_p)  # a stack holds at most d_P count, a quarter block\n",
        killers=("tests/test_sequences.py::TestPrefixTensorProbabilities::test_memory_stays_within_the_block_bound",),
        breaks="the probability route's stacks fill half a block each, past its two-block bound",
    ),
    Mutant(
        name="probability_state_made_real",
        path=SEQUENCES,
        snippet="        z = (_basis(d) @ rho.T.ravel()).view(float).reshape(-1, 2)\n",
        replacement="        z = np.stack([(_basis(d) @ rho.T.ravel()).real, np.zeros(d * d)], axis=1)\n",
        killers=("tests/test_sequences.py::TestPrefixTensorProbabilities", "tests/test_sequences.py::TestOneBornRuleGuard"),
        breaks="tr(rho E) loses its imaginary part, so a non-Hermitian state passes the Born-rule guard",
    ),
    Mutant(
        name="probability_head_offset",
        path=SEQUENCES,
        snippet="        out[d_p * start : d_p * start + len(vals)] = _born_rule(vals, tol)\n",
        replacement="        out[start : start + len(vals)] = _born_rule(vals, tol)\n",
        killers=("tests/test_sequences.py::TestPrefixTensorProbabilities::test_leading_steps_walked_in_blocks",),
        breaks="a walked head's probabilities land at the offset of its prefix, not of its sequences",
    ),
    Mutant(
        name="commutant_fallback_dropped",
        path="src/kcprobe/algebra.py",
        snippet="    if np.any((cut / 100.0 <= svals) & (svals <= top)):\n        return None\n",
        replacement="    if False:\n        return None\n",
        killers=("tests/test_properties.py::test_the_restricted_commutant_reports_as_the_full_stack",),
        breaks="a restricted commutant stands even where its singular values cannot decide as the full stack's",
    ),
    Mutant(
        name="commutant_window_without_k",
        path="src/kcprobe/algebra.py",
        snippet="    top = 100.0 * cut * (1.0 + l_norm * c_norm / gap) / np.sqrt(1.0 - slack**2)\n",
        replacement="    top = 100.0 * cut\n",
        killers=("tests/test_properties.py::test_the_restricted_commutant_reports_as_the_full_stack",),
        breaks="the fallback window ignores how far the restriction can lower a singular value",
    ),
    Mutant(
        name="oracle_tables_keyed_by_length",
        path="src/kcprobe/oracle.py",
        snippet="    return tuple(id(protocol.step_measurements[s]) for s in steps)\n",
        replacement="    return len(steps)\n",
        killers=("tests/test_oracle.py",),
        breaks="step lists of one length share a chain table, so distinct steps read another list's effects",
    ),
    Mutant(
        name="sweep_chunk_without_transfers",
        path="src/kcprobe/cli.py",
        snippet="    kept = max(16 * d_p * d**2, 2 * sequences._kept_bytes(d_p, d))  # the unitaries are freed before the scans\n",
        replacement="    kept = 16 * d_p * d**2\n",
        killers=("tests/test_config_cli.py::TestSweepCommand::test_a_chunk_stays_within_the_block_bound",),
        breaks="a sweep chunk is sized without its transfers, so it holds more than its block bound",
    ),
    Mutant(
        name="grid_points_on_the_first_model",
        path=MODEL,
        snippet="        return _assemble(self.models[g], self.preparation, self.step_bases, None, steps)\n",
        replacement="        return _assemble(self.models[0], self.preparation, self.step_bases, None, steps)\n",
        killers=(
            "tests/test_cli_golden.py",
            "tests/test_properties.py::test_a_grid_reads_each_point_as_that_point_alone",
        ),
        breaks="every assembled grid point carries the first point's model",
    ),
    Mutant(
        name="grid_step_times_one_ulp_up",
        path=MODEL,
        snippet="            np.array([m.step_time for m in models])[:, None, None],\n",
        replacement="            np.nextafter(np.array([m.step_time for m in models]), np.inf)[:, None, None],\n",
        killers=(
            "tests/test_model.py::TestStackedCycles::test_each_protocol_step_is_its_cycle_built_alone",
            "tests/test_scenarios.py::TestSearchScreen::test_a_broken_phase_names_the_reference_loops_first_candidate",
        ),
        breaks="every cycle at its model's own step time is built one ulp later than that step time",
    ),
    Mutant(
        name="effects_traded_between_outcomes",
        path=MODEL,
        snippet="    effects /= 2\n",
        replacement=(
            "    effects /= 2\n"
            "    effects[..., 0, :, :] -= np.eye(effects.shape[-1])\n"
            "    effects[..., 1, :, :] += np.eye(effects.shape[-1])\n"
        ),
        killers=(
            "tests/test_model.py::TestStackedCycles::test_a_complete_cycle_has_positive_effects",
            "tests/test_cli_golden.py",
        ),
        breaks="a Hermitian piece moves from outcome 0's effect to outcome 1's: complete, but not positive",
    ),
    Mutant(
        name="carried_sum_overwritten",
        path=SEQUENCES,
        snippet="            carry[k - len(sizes)] += stack[row]\n",
        replacement="            carry[k - len(sizes)] = stack[row]\n",
        killers=(
            "tests/test_properties.py::test_every_n_read_off_the_deepest_sweep_matches_its_own_sweep",
            "tests/test_sequences.py::TestBlockScan",
        ),
        breaks="a level read off a deeper sweep keeps only the last block's part of its sum",
    ),
    Mutant(
        name="level_bound_unbounded",
        path=SEQUENCES,
        snippet="_LEVEL_BOUND = 1e-13\n",
        replacement="_LEVEL_BOUND = 1e300\n",
        killers=("tests/test_sequences.py::TestBlockScan::test_a_completeness_residual_bounds_the_levels",),
        breaks="every level is read off the deepest sweep, however far the completeness residuals move it",
    ),
    Mutant(
        name="level_bound_not_reset",
        path=SEQUENCES,
        snippet="            tops, bound = tops | 1 << n, 0.0\n",
        replacement="            tops = tops | 1 << n\n",
        killers=("tests/test_sequences.py::TestBlockScan",),
        breaks="below a swept n the bound still counts the residuals above it, so levels are swept needlessly",
    ),
    Mutant(
        name="swept_n_not_cleared",
        path=SEQUENCES,
        snippet="            asked[j] &= ~upto\n",
        replacement="            asked[j] |= 0\n",
        killers=("tests/test_sequences.py::TestBlockScan",),
        breaks="a deeper sweep reads again the levels that a shallower sweep already wrote",
    ),
    Mutant(
        name="grid_fault_rescans_the_found_point_only",
        path=SEQUENCES,
        snippet="        for g in range(found[0] + 1):\n",
        replacement="        for g in (found[0],):\n",
        killers=(
            "tests/test_sequences.py::TestBlockScan::test_a_grid_raises_its_first_bad_point_s_own_fault",
            "tests/test_sequences.py::TestBlockScan::test_a_grid_above_the_cut_raises_its_first_bad_point_s_own_fault",
        ),
        breaks="a grid raises the fault of the point its batched scan found, not of the first bad point",
    ),
    Mutant(
        name="fault_pairs_not_scanned_alone",
        path=SEQUENCES,
        snippet="    for pair in pairs if len(pairs) > 1 else ():\n",
        replacement="    for pair in ():\n",
        killers=(
            "tests/test_sequences.py::TestStateFreeScan::test_a_non_finite_step_raises_alike_without_a_warning",
            "tests/test_sequences.py::TestBlockScan::test_a_bad_final_step_names_one_entry_on_both_sides_of_the_cut",
        ),
        breaks="a fault of several pairs names the entry the deepest sweep met first, not the first in entry order",
    ),
    Mutant(
        name="fault_pairs_walked_in_reverse",
        path=SEQUENCES,
        snippet="    for pair in pairs if len(pairs) > 1 else ():\n",
        replacement="    for pair in reversed(pairs) if len(pairs) > 1 else ():\n",
        killers=(
            "tests/test_sequences.py::TestStateFreeScan::test_a_non_finite_step_raises_alike_without_a_warning",
            "tests/test_sequences.py::TestBlockScan::test_a_bad_final_step_names_one_entry_on_both_sides_of_the_cut",
        ),
        breaks="a fault of several pairs names the first bad entry of the last bad pair",
    ),
    Mutant(
        name="block_errstate_dropped",
        path=SEQUENCES,
        snippet=(
            '            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect fails below\n'
            "                j, start, stack = next(blocks)\n"
        ),
        replacement="            if True:\n                j, start, stack = next(blocks)\n",
        killers=("tests/test_sequences.py::TestStateFreeScan::test_a_non_finite_step_raises_alike_without_a_warning",),
        breaks="a non-finite step warns (an error under the suite's filters) before its fault is raised",
    ),
    Mutant(
        name="step_outcomes_reordered",
        path=SEQUENCES,
        snippet=(
            "    total = pulled[0] + pulled[1] if len(pulled) > 1 else pulled[0].copy()\n"
            "    for m in range(2, len(pulled)):\n"
            "        total += pulled[m]\n"
            "    total -= post\n"
        ),
        replacement=(
            "    total = pulled[0] - post\n"
            "    for m in range(1, len(pulled)):\n"
            "        total += pulled[m]\n"
        ),
        killers=("tests/test_sequences.py::TestCheckKCAll::test_a_step_s_outcomes_add_in_order",),
        breaks="a step defect is rounded in another order, so no scan is bit for bit the last one",
    ),
    Mutant(
        name="n2_max_read_off_every_pair",
        path=SEQUENCES,
        snippet="    max_defect_n2 = max_defect if n_max == 2 else float(entries._pair(2, 1)[0].max())\n",
        replacement="    max_defect_n2 = max_defect\n",
        killers=("tests/test_sequences.py::TestCheckKCAll::test_a_blind_middle_step_leaves_the_verdict_to_n3",),
        breaks="decided_by_n2_j1 reads the largest defect of every pair, so it is always true",
    ),
    Mutant(
        name="table_defect_m_j_on_the_last_step",
        path="src/kcprobe/oracle.py",
        snippet=(
            "    full = tables[_key(protocol, _steps(n))].reshape(-1, d_p, after, d, d)  # m_j on axis 1\n"
            "    before, later = np.divmod(np.arange(rows.start, rows.stop), after)\n"
            "    out = full[before, 0, later]\n"
            "    for m_j in range(1, d_p):\n"
            "        out += full[before, m_j, later]\n"
        ),
        replacement=(
            "    full = tables[_key(protocol, _steps(n))].reshape(-1, after, d_p, d, d)\n"
            "    before, later = np.divmod(np.arange(rows.start, rows.stop), after)\n"
            "    out = full[before, later, 0]\n"
            "    for m_j in range(1, d_p):\n"
            "        out += full[before, later, m_j]\n"
        ),
        killers=("tests/test_oracle.py::test_held_tables_report_as_the_per_piece_chains",),
        breaks="a naive defect read off the tables sums the last step's outcome, not step j's",
    ),
    Mutant(
        name="sweep_models_before_the_first_stacks",
        path="src/kcprobe/cli.py",
        snippet=(
            "            except InvariantViolation:\n"
            "                if models:  # the points before it raise their own violation first\n"
            "                    _grids(models, preparation, bases)\n"
            "                raise\n"
        ),
        replacement="            except InvariantViolation:\n                raise\n",
        killers=("tests/test_config_cli.py::TestSweepCommand::test_the_first_bad_point_names_the_config_error",),
        breaks="a chunk's model that fails to build is named before an earlier point whose stacks fail",
    ),
    Mutant(
        name="one_column_pull_not_doubled",
        path=SEQUENCES,
        snippet="    if count == 1:\n        columns = np.concatenate((columns, columns), axis=-1)\n",
        replacement="    if False:\n        columns = np.concatenate((columns, columns), axis=-1)\n",
        killers=(
            "tests/test_sequences.py::TestBlockScan::test_chunked_scan_gives_the_same_report",
            "tests/test_sequences.py::TestTransfer::test_the_report_does_not_depend_on_the_chunking",
        ),
        breaks="a one-operator pull-back is a matrix-vector product, rounded otherwise than a column of a longer stack",
    ),
    Mutant(
        name="commutant_without_anti_hermitian_parts",
        path="src/kcprobe/algebra.py",
        snippet="    parts = [(g + g.conj().T) / 2 for g in mats] + [(g - g.conj().T) / 2j for g in mats]\n",
        replacement="    parts = [(g + g.conj().T) / 2 for g in mats]\n",
        killers=(
            "tests/test_algebra.py::TestDoubleCommutant::test_non_hermitian_generator_yields_star_algebra",
            "tests/test_algebra.py::TestRealCommutant::test_raising_operator_gives_the_commutant_of_its_star_closure",
        ),
        breaks="a non-Hermitian generator's commutant is that of its Hermitian part alone",
    ),
    Mutant(
        name="screen_states_completeness_again",
        path=SCENARIOS,
        snippet="        effects = _cycles(weights, unitaries, DEFAULT)[1]\n",
        replacement=(
            "        effects = _cycles(weights, unitaries, DEFAULT)[1]\n"
            "        if not effects.size:\n"
            '            raise InvariantViolation("effects do not sum to the identity")\n'
        ),
        killers=("tests/test_package.py::test_each_input_rule_is_checked_in_one_function",),
        breaks="the completeness rule is stated a second time, outside the one Kraus builder",
    ),
    Mutant(
        name="oracle_defect_gate_dropped",
        path="src/kcprobe/oracle.py",
        snippet="    max_defect = float(np.max(_defect_gaps(protocol, pairs, tables), initial=0.0))\n",
        replacement="    max_defect = 0.0\n",
        killers=(
            "tests/test_oracle.py::test_a_shifted_defect_route_disagrees",
            "tests/test_config_cli.py::TestRunOracleCheck::test_a_shifted_defect_route_fails_both_commands",
        ),
        breaks="the oracle compares no operator defect, so a wrong scan still agrees",
    ),
    Mutant(
        name="staged_outputs_not_cleaned_up",
        path="src/kcprobe/cli.py",
        snippet="    finally:\n        for tmp, _ in staged:\n            tmp.unlink(missing_ok=True)\n",
        replacement="",
        killers=(
            "tests/test_config_cli.py::TestOutputErrors::test_a_failed_write_keeps_the_earlier_bundle",
            "tests/test_config_cli.py::TestStrictJSON::test_a_non_finite_result_writes_no_bundle",
        ),
        breaks="a failed write leaves its temporary files in the output directory",
    ),
    Mutant(
        name="witness_axes_swapped",
        path="src/kcprobe/cli.py",
        snippet='    return {axis: (xy_meter_basis(axis),) * n for axis in "XY"}\n',
        replacement='    return {axis: (xy_meter_basis("XY".replace(axis, "")),) * n for axis in "XY"}\n',
        killers=(
            "tests/test_cli_golden.py",
            "tests/test_config_cli.py::TestWitnessProtocols::test_witnesses_read_the_configured_preparation",
        ),
        breaks="the X witnesses read the Y protocol and the Y witnesses the X protocol",
    ),
    Mutant(
        name="shared_tolerance_dict",
        path="src/kcprobe/tolerances.py",
        snippet="        return dict(self._fields)\n",
        replacement="        return self._fields\n",
        killers=("tests/test_config_cli.py::TestConfigLoading::test_each_report_echoes_tolerances_of_its_own",),
        breaks="every report shares one tolerance dict, so editing one report's edits all, DEFAULT's too",
    ),
    Mutant(
        name="draw_blocks_swapped",
        path=SCENARIOS,
        snippet="    g = scale * (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / np.sqrt(2.0)\n",
        replacement="    g = scale * (draws[..., 1, :, :] + 1j * draws[..., 0, :, :]) / np.sqrt(2.0)\n",
        killers=("tests/test_scenarios.py::TestRandomModel::test_the_draw_is_the_reference_loop",),
        breaks="a noncommuting draw reads its imaginary block as the real one, so no model is the recorded draw of its seed",
    ),
    Mutant(
        name="redraw_on_the_wrong_trial",
        path=SCENARIOS,
        snippet="        rng = np.random.default_rng(seeds[c])\n",
        replacement="        rng = np.random.default_rng(seeds[c - 1])\n",
        killers=("tests/test_scenarios.py::TestRandomModel::test_a_forced_redraw_lands_on_its_own_trial",),
        breaks="a trial below the redraw cut is redrawn from the generator of the trial before it in the stack",
    ),
    Mutant(
        name="screen_axes_misaligned",
        path=SCENARIOS,
        snippet="    weights = np.stack([by_axis[a] for a in axes])[:, None]  # (C, 1, d_P, d_P)\n",
        replacement="    weights = np.stack([by_axis[a] for a in axes[::-1]])[:, None]  # (C, 1, d_P, d_P)\n",
        killers=("tests/test_scenarios.py::TestSearchScreen::test_each_candidate_is_screened_along_its_own_axis",),
        breaks="the screen reads each trial's eigensystems along another trial's meter axis",
    ),
    Mutant(
        name="trial_stacks_not_counted",
        path=SCENARIOS,
        snippet="    chunk = max(1, _screen_pairs(probe_dim, system_dim) // (len(t_grid) + 1))\n",
        replacement="    chunk = max(1, _screen_pairs(probe_dim, system_dim) // max(1, len(t_grid)))\n",
        killers=("tests/test_scenarios.py::TestSearchScreen::test_a_chunk_counts_its_trials_own_stacks",),
        breaks="a chunk is sized without its trials' draws, Hamiltonians and eigensystems, past its block on a short grid",
    ),
    Mutant(
        name="search_shape_unchecked",
        path=SCENARIOS,
        snippet="    _random_shape(probe_dim, system_dim)\n    axes = ",
        replacement="    axes = ",
        killers=("tests/test_scenarios.py::TestCounterexampleSearch::test_trials_keep_random_model_s_shape_limits",),
        breaks="the search draws trials of a shape that random_model refuses (a probe of one level redraws forever)",
    ),
    Mutant(
        name="scale_bound_dropped",
        path=SCENARIOS,
        snippet="    if not abs(scale) <= _MAX_SCALE:\n",
        replacement="    if False:\n",
        killers=("tests/test_scenarios.py::TestRandomModel::test_a_scale_whose_draw_could_overflow_is_refused",),
        breaks="a scale whose draw overflows is drawn: an OverflowError, a RuntimeWarning or a misleading Hermitian fault",
    ),
    Mutant(
        name="frobenius_complex_sum",
        path=LINALG,
        snippet="    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))\n",
        replacement="    return np.sqrt(np.vecdot(flat, flat).real)\n",
        killers=("tests/test_linalg.py::test_stacked_norm_is_the_norm_bit_for_bit",),
        breaks="the stacked norm sums one complex dot, which rounds otherwise than np.linalg.norm for about one matrix in five",
    ),
    Mutant(
        name="commutator_norms_misaligned",
        path=ALGEBRA,
        snippet="            norms[..., n] = _frobenius(a @ b - b @ a)\n",
        replacement="            norms[..., n] = np.flip(_frobenius(a @ b - b @ a))\n",
        killers=(
            "tests/test_scenarios.py::TestRandomModel::test_a_forced_redraw_lands_on_its_own_trial",
            "tests/test_config_cli.py::TestSweepCommand::test_commutator_norm_is_read_once_per_chunk",
        ),
        breaks="a stack's norms land on its sets in reverse order, so a trial is redrawn on another's norm and a sweep row reads another point's",
    ),
    Mutant(
        name="commutator_overflow_unchecked",
        path=ALGEBRA,
        snippet="    if not (math.isfinite(worst) and math.isfinite(scale)):\n",
        replacement="    if False:\n",
        killers=("tests/test_algebra.py::TestIsCommutative::test_an_overflowing_norm_is_a_numerical_fault",),
        breaks="an overflowing commutator or generator norm gives a verdict: sigma_x and sigma_z commute from 1e154 on",
    ),
    Mutant(
        name="screen_gap_from_the_wrong_time",
        path=SCENARIOS,
        snippet="        largest[:, start : start + width] = np.broadcast_to(gaps, effects.shape[:-2]).max(axis=-1)\n",
        replacement="        largest[:, start : start + width] = np.broadcast_to(gaps, effects.shape[:-2])[:, ::-1].max(axis=-1)\n",
        killers=(
            "tests/test_scenarios.py::TestSearchScreen::test_the_screen_keeps_the_candidates_with_all_effects_degenerate",
        ),
        breaks="the gap a finding reports is read at another time of the candidate's grid",
    ),
)


def _copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "kcprobe-out")
    shutil.copytree(ROOT, target, ignore=ignore)


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply ``mutant`` to a copy of the tree and run its killing tests there:
    ``("killed by <test>" | "survived" | "error (pytest exit N)", seconds)``."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kcprobe-mutant-") as tmp:
        root = Path(tmp) / "repo"
        _copy_tree(root)
        mutant.apply(root)
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.killers]
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode == 1:
        failed = [
            line.partition(" ")[2].split(" - ")[0]
            for line in done.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))
        ]
        outcome = f"killed by {failed[0] if failed else 'a failing test'}"
    else:
        outcome = "survived" if done.returncode == 0 else f"error (pytest exit {done.returncode})"
    return outcome, time.perf_counter() - started


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s) {unknown}; known: {sorted(by_name)}", file=sys.stderr)
        return 2
    failed = False
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        outcome, seconds = run(mutant)
        print(f"{mutant.name}: {outcome} in {seconds:.1f} s", flush=True)
        failed |= not outcome.startswith("killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

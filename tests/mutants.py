"""Mutation probe: does tier-1 fail each hand-written mutant of src/dairypv?

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

Each mutant swaps one string that occurs exactly once in a source file. For each,
the checkout is copied to a temporary directory, the mutant is applied to the copy
and `pytest -x -q` runs there without tests/test_dispatch.py (whose reruns repeat
the golden tests under other numpy dispatch paths) and tests/test_mutants.py (which
fails on any mutated source, since it checks this list against the source). A failing
run kills the mutant.
The checkout itself is never written. An equivalent mutant changes no result on any
reachable input, so it survives by design; its note says why. The exit status is 1
when a mutant that is not equivalent survives.

Not collected by pytest (no test_ prefix) and not run in CI: it takes minutes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/dairypv
    old: str
    new: str
    note: str
    equivalent: bool = False


# For the stateful mutants: the number of this call (1, 2, ...) in the process, from a
# list kept on an imported module.
_CALL_NUMBER = '((_c := vars({0}).setdefault("_mutant_calls", [])), _c.append(0), len(_c))[2]'

MUTANTS = [
    # the three equivalents: each survives tier-1 because no input can tell it apart
    Mutant("sign_select_gt", "engine.py",
           "np.maximum(e, utilities >= 0)", "np.maximum(e, utilities > 0)",
           "at U = +-0, e = exp(-0) = 1, so max(e, U >= 0) = max(e, U > 0) = 1",
           equivalent=True),
    Mutant("beta_filter_le", "engine.py",
           "np.flatnonzero(draws < params.beta)", "np.flatnonzero(draws <= params.beta)",
           "p < beta always, so a draw equal to beta is scored but never adopts",
           equivalent=True),
    Mutant("refine_tolerance_gt", "calibration.py",
           "step >= REFINE_TOLERANCE:", "step > REFINE_TOLERANCE:",
           "no halving of _INITIAL_STEP (5/19) equals 1e-6; "
           "test_no_halved_step_equals_the_tolerance_so_gt_and_ge_agree", equivalent=True),

    # the probability kernel and the hazard recurrence
    Mutant("sign_select_flipped", "engine.py",
           "np.maximum(e, utilities >= 0)", "np.maximum(e, utilities <= 0)",
           "test_criterion_3_probability_properties"),
    Mutant("clip_cap_is_beta", "engine.py",
           "p.clip(_TINY, np.nextafter(beta, 0.0), out=p)", "p.clip(_TINY, beta, out=p)",
           "criterion 3's saturated tails"),
    Mutant("hazard_without_depletion", "engine.py",
           "level = level + p * (total_farmers - level)", "level = level + p * total_farmers",
           "criterion 4"),

    # the per-year kernel steps
    Mutant("clip_skipped_whenever_steps_are_given", "engine.py",
           "return lowest < 0.0, not (bounded and beta >= 2.0**-1000)",
           "return lowest < 0.0, False",
           "test_kernel_with_needed_steps_matches_full_kernel, "
           "test_beta_filter_drops_no_adopter"),
    Mutant("nonnegative_branch_on_a_mixed_year", "engine.py",
           "return lowest < 0.0, not", "return highest < 0.0, not",
           "test_kernel_with_needed_steps_matches_full_kernel, "
           "test_beta_filter_drops_no_adopter"),
    Mutant("clip_bound_40", "engine.py", "<= 36.0", "<= 40.0",
           "test_kernel_with_needed_steps_matches_full_kernel"),
    Mutant("beta_floor_dropped", "engine.py",
           "not (bounded and beta >= 2.0**-1000)", "not bounded",
           "test_kernel_with_needed_steps_matches_full_kernel"),
    Mutant("utility_cost_column_reversed", "engine.py",
           "[[params.pv_cost_max], [params.midpoint_cost], [params.pv_cost_min]]",
           "[[params.pv_cost_min], [params.midpoint_cost], [params.pv_cost_max]]",
           "the steps come from the wrong ends: "
           "test_every_step_example_takes_each_kernel_path, "
           "test_utility_rows_hold_the_midpoint_and_bound_every_farmer"),

    # the stochastic loops and their draw streams
    Mutant("mc_adopts_below_0_9_p", "engine.py",
           "candidates[draws[candidates] < probabilities]",
           "candidates[draws[candidates] < 0.9 * probabilities]",
           "criterion 5, test_counts_follow_the_binomial_law"),
    Mutant("mc_adopts_at_p", "engine.py",
           "candidates[draws[candidates] < probabilities]",
           "candidates[draws[candidates] <= probabilities]",
           "test_a_draw_equal_to_p_does_not_adopt[monte-carlo]"),
    Mutant("run_adopts_at_p", "engine.py",
           "piece[rng.random(len(piece)) >= p]", "piece[rng.random(len(piece)) > p]",
           "test_a_draw_equal_to_p_does_not_adopt[run]"),
    Mutant("run_seeded_from_entropy", "engine.py",
           "np.random.PCG64(params.seed)", "np.random.PCG64()",
           "criterion 7, test_beta_filter_drops_no_adopter"),
    Mutant("mc_seeded_from_entropy", "engine.py",
           "np.random.PCG64(seed)", "np.random.PCG64()", "criterion 7"),
    Mutant("mc_costs_at_the_midpoint", "engine.py",
           "size=params.total_farmers)\n    for energy_price, subsidy, year_steps in",
           "size=params.total_farmers)\n    costs[:] = params.midpoint_cost\n"
           "    for energy_price, subsidy, year_steps in",
           "test_counts_follow_the_binomial_law, "
           "test_adoption_years_follow_the_multinomial_law"),
    Mutant("mc_first_years_draws_reused", "engine.py",
           "draws = rng.random(len(costs))",
           'first = locals().get("first"); '
           "first = rng.random(len(costs)) if first is None else first; "
           "draws = first[:len(costs)]",
           "test_counts_follow_the_binomial_law, "
           "test_adoption_years_follow_the_multinomial_law"),
    Mutant("mc_adopters_stay_in_the_pool", "engine.py",
           "        costs = np.delete(costs, adopters)\n"
           "        yield float(params.total_farmers - len(costs))",
           '        cumulative = locals().get("cumulative", 0) + len(adopters)\n'
           "        yield float(cumulative)",
           "no np.delete: an adopter is drawn and counted again; "
           "test_adoption_years_follow_the_multinomial_law"),
    Mutant("all_adopted_scores_the_dearest_farmer", "engine.py",
           "yearly_subsidies, midpoint[:, None], steps)",
           "yearly_subsidies, _utility(params, annuity, energy_prices, params.pv_cost_max, "
           "yearly_subsidies)[:, None], steps)",
           "test_beta_filter_drops_no_adopter's ALL_ADOPT example"),
    Mutant("all_adopted_branch_dropped", "engine.py", "if not remaining:", "if False:",
           "the means divide by zero farmers: "
           "TestStochasticRun::test_all_adopted_population_reports_zero_new"),
    Mutant("mean_utility_check_dropped", "engine.py",
           "if not math.isfinite(mean_u):", "if False:",
           "test_stochastic_mean_past_the_float_range_exits_1_naming_the_year"),
    Mutant("last_piece_runs_past_the_survivors", "engine.py",
           "min(start + _BLOCK, remaining)", "start + _BLOCK",
           "adopted farmers' stale costs are scored again: "
           "test_beta_filter_drops_no_adopter"),
    Mutant("mc_compacts_the_wrong_farmers", "engine.py",
           "costs = np.delete(costs, adopters)", "costs = costs[len(adopters):]",
           "the count is right, the survivors' costs are not; "
           "test_adoption_years_follow_the_multinomial_law"),

    # the input step
    Mutant("annuity_guard_dropped", "engine.py",
           "1.0 / denominator if denominator else math.inf", "1.0 / denominator",
           "1/0 once (1 + rate)^t underflows to 0: "
           "test_utilities_past_the_float_range_exit_1_before_any_work[200-*]"),
    Mutant("finiteness_check_dropped", "engine.py", "if not finite.all():", "if False:",
           "test_utilities_past_the_float_range_exit_1_before_any_work"),
    Mutant("first_finite_year_named", "engine.py",
           "int(np.argmin(finite))", "int(np.argmax(finite))",
           "TestRunSimulation::test_a_utility_past_float_range_names_its_own_year"),
    Mutant("midpoint_sum_overflows", "domain.py",
           "self.pv_cost_min / 2.0 + self.pv_cost_max / 2.0",
           "(self.pv_cost_min + self.pv_cost_max) / 2.0",
           "test_costs_whose_sum_leaves_float_range_keep_a_finite_midpoint[run], "
           "test_midpoint_cost_is_finite_and_has_the_bits_of_the_halved_sum"),

    # run_simulation's and run_monte_carlo's branches and argument checks
    Mutant("mode_test_negated", "engine.py",
           'params.mode == "deterministic"', 'params.mode != "deterministic"',
           "test_stdout_matches_golden_bytes[run.csv]"),
    Mutant("semantics_test_negated", "engine.py",
           'params.adoption_semantics == "hazard"', 'params.adoption_semantics != "hazard"',
           "test_stdout_matches_golden_bytes[run.csv]"),
    Mutant("literal_new_not_clamped", "engine.py",
           "max(0.0, level - prior)", "level - prior",
           "test_stdout_matches_golden_bytes[run_literal.csv], "
           "test_run_records_equal_numpy_kernel_curve"),
    Mutant("seed_check_dropped", "engine.py", "elif params.seed is None:", "elif False:",
           "TestRunSimulation::test_stochastic_mode_requires_seed"),
    Mutant("zero_replications_accepted", "engine.py",
           "if replications < 1:", "if replications < 0:",
           "test_replications_must_be_positive"),
    Mutant("largest_base_seed_rejected", "engine.py",
           "0 <= base_seed <= _UINT64_MAX", "0 <= base_seed < _UINT64_MAX",
           "test_seed_wraps_at_uint64"),

    # result records and summaries
    Mutant("digest_truncated", "engine.py",
           "params_digest=params.digest,", "params_digest=params.digest[:-1],",
           "test_stdout_matches_golden_bytes[run.json]"),
    Mutant("deterministic_n_grows_per_call", "engine.py",
           "n = float(params.total_farmers)",
           f"n = float(params.total_farmers) + {_CALL_NUMBER.format('math')} - 1",
           "test_run_records_equal_numpy_kernel_curve"),
    Mutant("mc_stores_base_seed_plus_one", "engine.py",
           "base_seed=base_seed, rows=rows", "base_seed=base_seed + 1, rows=rows",
           "test_render_matches_golden_bytes[monte_carlo_r8_seed5.json]"),
    Mutant("year_stats_std_check_dropped", "engine.py",
           "if self.std < 0:", "if False:",
           "test_result_constructors_reject_an_impossible_value[negative_std]"),
    Mutant("year_stats_min_check_dropped", "engine.py",
           "if not self.min <= self.mean <= self.max:", "if not self.mean <= self.max:",
           "test_result_constructors_reject_an_impossible_value[mean_below_min]"),
    Mutant("year_stats_max_check_dropped", "engine.py",
           "if not self.min <= self.mean <= self.max:", "if not self.min <= self.mean:",
           "test_result_constructors_reject_an_impossible_value[mean_above_max]"),

    # calibration
    Mutant("grid_best_without_pattern_search", "calibration.py",
           "value, reached_tol = _pattern_search(objective, point, start, _INITIAL_STEP)",
           "value, reached_tol = start, True", "criteria 1 and 6"),
    Mutant("search_starts_drift_per_call", "calibration.py",
           "            break\n        point = (math.log10(start[1]),",
           # the call's number, taken when its first pattern search starts
           "            break\n        drift = vars(objective).get(\"drift\") if "
           "\"drift\" in vars(objective) else "
           f"vars(objective).setdefault(\"drift\", {_CALL_NUMBER.format('math')} - 1)\n"
           "        point = (math.log10(start[1]) + 1e-9 * drift,",
           "test_calibration_matches_fixture, test_search_path_is_pinned"),
    Mutant("target_equal_to_total_rejected", "calibration.py",
           "0 <= value <= params.total_farmers", "0 <= value < params.total_farmers",
           "TestCalibrationTarget::test_validate_against_params"),

    # rendering and writing
    Mutant("csv_drops_last_row", "io.py",
           '[",".join(row) for row in texts]', '[",".join(row) for row in texts[:-1]]',
           "test_stdout_matches_golden_bytes[run.csv]"),
    Mutant("json_drops_last_record", "io.py",
           "for row in texts\n    ]", "for row in texts[:-1]\n    ]",
           "test_stdout_matches_golden_bytes[run.json]"),
    Mutant("mc_column_renamed", "io.py",
           '("mean_cumulative", _COUNT)', '("mean", _COUNT)',
           "test_stdout_matches_golden_bytes[monte_carlo_r8_seed5.csv]"),
    Mutant("csv_newline_grows_per_render", "io.py",
           'return "\\n".join(lines) + "\\n"',
           f'return "\\n".join(lines) + "\\n" * {_CALL_NUMBER.format("json")}',
           "test_render_matches_golden_bytes, test_output_matches_golden_bytes"),
    Mutant("write_newline_grows_per_write", "io.py",
           "handle.write(text)",
           f'handle.write(text + "\\n" * ({_CALL_NUMBER.format("os")} - 1))',
           "test_output_matches_golden_bytes, TestWriteResult::test_write_and_reread"),
    Mutant("new_out_file_mode_0600", "io.py", "0o666 & ~umask", "0o600",
           "TestWriteResult::test_mode_is_what_open_for_writing_leaves"),
    Mutant("out_symlink_replaced", "io.py",
           "target = Path(os.path.realpath(output_path))", "target = output_path",
           "TestWriteResult::test_a_symlink_is_written_through"),

    # the CSV reader's line numbers
    Mutant("line_number_one_early", "io.py",
           "line = reader.line_num", "line = reader.line_num - 1",
           "TestParseYearSeries::test_empty_lines_are_skipped_but_counted"),

    # the CLI
    Mutant("run_ignores_mode", "cli.py",
           '("mode", "seed", "adoption_semantics")', '("seed", "adoption_semantics")',
           "test_output_matches_golden_bytes[run_stochastic_seed11.csv]"),
    Mutant("run_ignores_semantics", "cli.py",
           '("mode", "seed", "adoption_semantics")', '("mode", "seed")',
           "test_output_matches_golden_bytes[run_literal.csv]"),
    Mutant("calibrate_defaults_to_csv", "cli.py",
           'format="json")', 'format="csv")',
           "test_output_matches_golden_bytes[calibrate_target_2022_grid.json]"),
    Mutant("usage_error_exits_2", "cli.py", "1 if exc.code else 0", "exc.code",
           "TestRunCommand::test_unknown_flag_exits_1_with_usage, "
           "test_help_exits_0_and_a_usage_error_exits_1"),

    # scenario and series validation, the error hierarchy
    Mutant("window_skips_the_first_year", "domain.py",
           "missing = [y for y in years if", "missing = [y for y in years[1:] if",
           "criterion 8"),
    Mutant("beta_zero_accepted", "domain.py",
           "if not 0 < self.beta <= 1:", "if not 0 <= self.beta <= 1:",
           "test_invalid_fields_are_named[overrides1-beta]"),
    Mutant("validation_error_not_a_value_error", "errors.py",
           "class ValidationError(DairyPvError, ValueError):",
           "class ValidationError(DairyPvError):",
           "test_every_error_is_a_package_error_and_input_errors_are_value_errors"),
]


def mutated(mutant, root):
    """The mutant's file under root with old replaced; old must occur exactly once."""
    text = (root / "src" / "dairypv" / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def killed(mutant):
    """Apply the mutant (if any) to a fresh copy of the checkout; True if tier-1 fails
    there."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".perfbench_runs", ".benchmarks")
    with tempfile.TemporaryDirectory(prefix="dairypv-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        if mutant:
            (copy / "src" / "dairypv" / mutant.file).write_text(mutated(mutant, copy))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_dispatch.py", "--ignore=tests/test_mutants.py"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode != 0


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    for mutant in chosen:  # check every old string before the first run
        mutated(mutant, ROOT)
    if killed(None):
        raise SystemExit("tier-1 fails on an unmutated copy of the checkout")
    unexplained = 0
    for mutant in chosen:
        if killed(mutant):
            verdict = "killed"
        elif mutant.equivalent:
            verdict = "survived (equivalent)"
        else:
            verdict, unexplained = "SURVIVED", unexplained + 1
        print(f"{verdict:22} {mutant.name}: {mutant.note}", flush=True)
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

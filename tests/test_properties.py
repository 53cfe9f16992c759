"""Property tests for the engine kernels and the stochastic yearly loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dairypv.calibration import (
    ALPHA_BOUNDS,
    BETA_BOUNDS,
    GRID_ALPHAS,
    GRID_BETAS,
    LOSS_KINDS,
    CalibrationTarget,
    _Objective,
)
from dairypv import engine
from dairypv.domain import ScenarioParams, YearSeries
from dairypv.io import load_default_scenario
from dairypv.engine import (
    _TINY,
    _annuity,
    _decay,
    _needed_steps,
    _probability_array,
    _stochastic_years,
    _utility,
    _yearly_inputs,
    run_simulation,
)
from reference import agent_utility, deterministic_curve, stochastic_run

SETTINGS = settings(max_examples=150, deadline=None)

utility_floats = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 1e300, -1e300]),
)
utility_arrays = hnp.arrays(np.float64, st.integers(0, 64), elements=utility_floats)
# alpha > 0 and beta in (0, 1]; 1e-323 is the smallest beta whose open
# interval (0, beta) holds a float.
alphas = st.one_of(st.floats(5e-324, 1e300), st.sampled_from([5e-324, 1e-12, 1.0, 1e300]))
betas = st.one_of(st.floats(1e-323, 1.0), st.sampled_from([1e-323, 1e-300, 0.0023, 1.0]))
farmer_counts = st.integers(1, 10**6)


def reals(low, high):
    return st.floats(low, high, allow_subnormal=False)


def two_branch_probability(utilities, alpha, beta, total_farmers):
    """The masked two-branch formula the kernel replaced, kept as reference."""
    x = alpha * utilities / total_farmers
    p = np.empty_like(x)
    pos = x >= 0
    p[pos] = beta / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    p[~pos] = beta * e / (1.0 + e)
    return np.clip(p, _TINY, math.nextafter(beta, 0.0))


@SETTINGS
@given(utility_arrays, alphas, betas, farmer_counts)
@example(np.array([-1e-300, 1e-300]), 1e-30, 1.0, 1)  # alpha*U underflows to -0.0 at U < 0
@example(np.array([-0.0, 0.0]), 1.0, 1.0, 1)
@example(np.array([-1e300, 1e300]), 1e300, 1.0, 1)  # alpha*U overflows to -inf and +inf
def test_kernel_matches_two_branch_formula_inside_open_interval(utilities, alpha, beta, n):
    with np.errstate(over="ignore"):
        expected = two_branch_probability(utilities, alpha, beta, n)
        p = _probability_array(utilities, alpha, beta, n)
    assert p.tobytes() == expected.tobytes()
    assert np.all(p > 0.0) and np.all(p < beta)


@SETTINGS
@given(utility_arrays, st.one_of(alphas, reals(*ALPHA_BOUNDS)), farmer_counts)
def test_decay_equals_the_signed_formula(utilities, alpha, n):
    with np.errstate(over="ignore"):
        e = np.exp(-np.abs(alpha * utilities / n))
        assert _decay(np.abs(utilities), alpha, n).tobytes() == e.tobytes()


@SETTINGS
@given(utility_arrays, alphas, betas, farmer_counts, st.data())
def test_kernel_on_subset_equals_subset_of_kernel(utilities, alpha, beta, n, data):
    picks = data.draw(hnp.arrays(np.bool_, len(utilities)))
    subset = np.flatnonzero(picks)
    with np.errstate(over="ignore"):
        full = _probability_array(utilities, alpha, beta, n)
        gathered = _probability_array(utilities[subset], alpha, beta, n)
    assert gathered.tobytes() == full[subset].tobytes()


@st.composite
def bounded_kernel_cases(draw):
    """(U, lowest, highest, alpha, beta, N) with every U inside [lowest, highest]; alpha is
    sometimes set to put alpha*max(|lowest|, |highest|)/N at the clip bound 36."""
    lowest = draw(utility_floats)
    highest = draw(st.one_of(st.floats(lowest, 1e300),
                             st.floats(lowest, max(lowest, 0.0) + 1e6)))
    utilities = draw(hnp.arrays(np.float64, st.integers(0, 64),
                                elements=st.floats(lowest, highest)))
    n = draw(farmer_counts)
    at_bound = 36.0 * n / max(abs(lowest), abs(highest), 5e-324)
    near = [a for a in (at_bound, math.nextafter(at_bound, 0.0),
                        math.nextafter(at_bound, math.inf)) if 0.0 < a < math.inf]
    alpha = draw(st.one_of(alphas, st.sampled_from(near)) if near else alphas)
    beta = draw(st.one_of(betas, st.sampled_from([2.0**-1000, math.nextafter(2.0**-1000, 0.0),
                                                  5e-324])))
    return utilities, lowest, highest, alpha, beta, n


@SETTINGS
@given(bounded_kernel_cases())
@example((np.array([-0.0, 0.0]), -0.0, 0.0, 1.0, 1.0, 1))  # U and |U| differ only at -0.0
@example((np.array([math.nextafter(36.0, 0.0)]), 0.0, math.nextafter(36.0, 0.0), 1.0, 1.0,
          1))  # x just below 36: no clip
@example((np.array([math.nextafter(36.0, 99.0)]), 0.0, math.nextafter(36.0, 99.0), 1.0, 1.0,
          1))  # x just above 36: the clip stays
@example((np.array([40.0]), 0.0, 40.0, 1.0, 1.0, 1))  # p rounds to beta and is cut
@example((np.array([-36.0, -1.0, 0.0, 36.0]), -36.0, 36.0, 1.0, 2.0**-1000, 1))  # no clip
@example((np.array([-36.0, 0.0, 36.0]), -36.0, 36.0, 1.0, 5e-324, 1))  # beta < 2**-1000
@example((np.array([-1.0, 1.0]), -1.0, 1.0, 1.0, 1.0, 1))  # a mixed year keeps the select
def test_kernel_with_needed_steps_matches_full_kernel(case):
    utilities, lowest, highest, alpha, beta, n = case
    steps = _needed_steps(lowest, highest, alpha, beta, n)
    with np.errstate(over="ignore"):
        full = _probability_array(utilities, alpha, beta, n)
        fewer = _probability_array(utilities, alpha, beta, n, steps)
    assert fewer.tobytes() == full.tobytes()


@SETTINGS
@given(utility_arrays, st.lists(alphas, min_size=1, max_size=4),
       st.lists(betas, min_size=1, max_size=4), farmer_counts)
@example(np.array([-1e300, -1e12]), [1e300, 100.0], [0.5], 1)  # p raised to _TINY
@example(np.array([1e300, 1e12]), [1e300, 100.0], [1.0, 0.0023], 1)  # cut below beta
def test_kernel_broadcasts_alpha_column_and_beta_row_bit_for_bit(utilities, alpha_list,
                                                                 beta_list, n):
    shape = (len(utilities), len(alpha_list), len(beta_list))
    with np.errstate(over="ignore"):
        p = _probability_array(np.broadcast_to(utilities[:, None, None], shape),
                               np.array(alpha_list)[:, None], np.array(beta_list), n)
        cells = [[_probability_array(utilities, alpha, beta, n) for beta in beta_list]
                 for alpha in alpha_list]
    assert [[[v.hex() for v in p[:, i, j].tolist()] for j in range(len(beta_list))]
            for i in range(len(alpha_list))] == [
        [[v.hex() for v in cell.tolist()] for cell in row] for row in cells]


@SETTINGS
@given(utility_arrays, st.data())
def test_kernels_write_into_no_argument(utilities, data):
    def scalar_or_array(values):
        return st.one_of(values, hnp.arrays(np.float64, len(utilities), elements=values))

    alpha, beta = data.draw(scalar_or_array(alphas)), data.draw(scalar_or_array(betas))
    prices, subsidies = (data.draw(hnp.arrays(np.float64, len(utilities),
                                              elements=reals(-1e6, 1e6))) for _ in range(2))
    magnitudes, n = np.abs(utilities), data.draw(farmer_counts)
    params = load_default_scenario()[0]
    arguments = (utilities, magnitudes, alpha, beta, prices, subsidies)
    before = [np.asarray(a).tobytes() for a in arguments]
    with np.errstate(all="ignore"):
        _utility(params, 12.5, prices, utilities, subsidies)
        _decay(magnitudes, alpha, n)
        _probability_array(utilities, alpha, beta, n)
    assert [np.asarray(a).tobytes() for a in arguments] == before


@st.composite
def stochastic_scenarios(draw):
    """Small stochastic scenario plus yearly prices and subsidies."""
    low = draw(reals(0.0, 20000.0))
    n_years = draw(st.integers(1, 6))
    params = ScenarioParams(
        pv_cost_min=low,
        pv_cost_max=low + draw(reals(0.0, 20000.0)),
        maintenance_rate=draw(reals(0.0, 0.2)),
        discount_rate=draw(reals(-0.05, 0.2)),
        total_farmers=draw(st.integers(1, 300)),
        start_year=2005,
        end_year=2004 + n_years,
        alpha=draw(reals(1e-3, 1e3)),
        beta=draw(st.one_of(reals(1e-3, 1.0), st.just(1.0))),
        mode="stochastic",
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    prices = np.array(draw(st.lists(reals(0.0, 0.5), min_size=n_years, max_size=n_years)))
    subsidies = np.array(draw(st.lists(reals(0.0, 1e4), min_size=n_years,
                                       max_size=n_years)))
    return params, prices, subsidies


def yearly_inputs(params, prices, subsidies):
    """_yearly_inputs of drawn price and subsidy arrays, each a YearSeries from start_year."""
    return _yearly_inputs(params, YearSeries(params.start_year, tuple(prices)),
                          YearSeries(params.start_year, tuple(subsidies)))


def piece_mean(values, block):
    """Sum of np.add.reduce over consecutive block-sized slices, left to right from
    -0.0, over the count; np.mean when block is None."""
    if block is None:
        return float(np.mean(values))
    total = -0.0
    for start in range(0, len(values), block):
        total += float(np.add.reduce(values[start:start + block]))
    return total / len(values)


def score_every_farmer(params, annuity, prices, subsidies, block):
    """The reference stochastic run as (mean utility, mean probability, new, cumulative)
    per year, the means taken by piece_mean."""
    prior = 0
    for utilities, p, _, cumulative in stochastic_run(params, annuity, prices, subsidies,
                                                      params.seed):
        new, prior = cumulative - prior, cumulative
        yield piece_mean(utilities, block), piece_mean(p, block), float(new), float(cumulative)


# all adopt in the first year: five farmers, beta = 1 and the probability capped below it
ALL_ADOPT = (ScenarioParams(pv_cost_min=0.0, pv_cost_max=1.0, maintenance_rate=0.0,
                            discount_rate=0.0, total_farmers=5, start_year=2005,
                            end_year=2007, alpha=1e3, beta=1.0, mode="stochastic", seed=3),
             np.array([0.5, 0.5, 0.5]), np.array([1e4, 1e4, 1e4]))


# four years of 300 farmers: mixed-sign U, U >= 0, p cut below beta, p raised to _TINY
EVERY_STEP = (replace(ALL_ADOPT[0], pv_cost_max=1e4, total_farmers=300, end_year=2008,
                      alpha=0.5, beta=0.5, seed=5),
              np.zeros(4), np.array([5e3, 1.5e4, 1e7, -1e7]))


def test_every_step_example_takes_each_kernel_path():
    _, _, _, _, steps = yearly_inputs(*EVERY_STEP)
    assert steps == [(True, False), (False, False), (False, True), (True, True)]


def few_adopt(total_farmers):
    """total_farmers farmers over three years, most of whom stay."""
    return (replace(ALL_ADOPT[0], total_farmers=total_farmers, alpha=1e-3, beta=0.01,
                    seed=17), ALL_ADOPT[1], ALL_ADOPT[2])


@settings(max_examples=100, deadline=None)
@given(stochastic_scenarios())
@example(ALL_ADOPT)
@example(EVERY_STEP)
@example((replace(EVERY_STEP[0], beta=1e-310), *EVERY_STEP[1:]))  # beta < 2**-1000: clipped
@example(few_adopt(1000))  # 8 pieces of at most 128 or 136
@example(few_adopt(128))  # in pieces of 128: a full last piece
@example(few_adopt(129))  # a last piece of one farmer
@example(few_adopt(256))  # a full last piece
@example(few_adopt(257))  # a last piece of one farmer
def test_beta_filter_drops_no_adopter(scenario):
    """Pieces of at most 128 or 136 farmers give the piece-summed reference's bits,
    and every generated population fits one piece of the default _BLOCK, so there
    the means are np.mean's bits.

    The draw-first beta filter of Monte Carlo finds the same adopters.
    """
    params = scenario[0]
    annuity, prices, subsidies, midpoint, steps = yearly_inputs(*scenario)
    for block, mean_block in ((128, 128), (136, 136), (engine._BLOCK, None)):
        expected = np.array(list(score_every_farmer(params, annuity, prices, subsidies,
                                                    mean_block)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_BLOCK", block)
            run = np.array(list(engine._stochastic_run(params, annuity, prices, subsidies,
                                                       midpoint, steps)))
        assert run.tobytes() == expected.tobytes()
    years = list(_stochastic_years(params, annuity, prices, subsidies, steps, params.seed))
    assert np.array(years).tobytes() == expected[:, 3].tobytes()


@SETTINGS
@given(stochastic_scenarios())
@example(EVERY_STEP)
def test_utility_rows_hold_the_midpoint_and_bound_every_farmer(scenario):
    """midpoint has the bits of U at midpoint_cost, and no farmer the engine's PCG64(seed)
    stream draws needs a kernel step that its year's steps lack: the steps are decided
    from U at the two ends of the cost range only."""
    params = scenario[0]
    annuity, prices, subsidies, midpoint, steps = yearly_inputs(*scenario)
    direct = _utility(params, annuity, prices, params.midpoint_cost, subsidies)
    assert midpoint.tobytes() == direct.tobytes()
    rng = np.random.Generator(np.random.PCG64(params.seed))
    costs = rng.uniform(params.pv_cost_min, params.pv_cost_max, size=params.total_farmers)
    farmers = _utility(params, annuity, prices, costs[:, None], subsidies)
    for year_steps, year_farmers in zip(steps, farmers.T.tolist()):
        for u in year_farmers:
            needed = _needed_steps(u, u, params.alpha, params.beta, params.total_farmers)
            assert all(year_step or not step for step, year_step in zip(needed, year_steps))


@SETTINGS
@given(stochastic_scenarios())
def test_utility_kernel_matches_npv_route(scenario):
    params, prices, subsidies = scenario
    annuity = _annuity(params)
    costs = np.linspace(params.pv_cost_min, params.pv_cost_max, 5)
    for price, subsidy in zip(prices, subsidies):
        for cost, utility in zip(costs, _utility(params, annuity, price, costs, subsidy)):
            direct = agent_utility(float(cost), params, float(price), float(subsidy))
            # cancellation between the terms bounds the error, not the result
            scale = (params.annual_generation_kwh * price * annuity
                     + (1.0 + params.maintenance_rate * annuity) * cost + subsidy)
            assert abs(utility - direct) <= 1e-12 * scale


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 18), elements=st.floats(-1e5, 1e5)),
       st.floats(1e-3, 1e3), st.floats(1e-4, 1.0), st.integers(1, 10**6))
def test_hazard_and_literal_invariants(utilities, alpha, beta, n):
    p, new, cumulative = deterministic_curve(utilities, alpha, beta, n, "hazard")
    prior = 0.0
    for p_t, new_t, level in zip(p, new, cumulative):
        assert new_t == p_t * (n - prior) and level == prior + new_t
        # fl(n - prior) may round up, carrying the sum at most one ulp past n
        assert prior <= level <= n + math.ulp(n)
        prior = level
    p, new, cumulative = deterministic_curve(utilities, alpha, beta, n, "literal")
    prior = 0.0
    for p_t, new_t, level in zip(p, new, cumulative):
        assert level == p_t * n and new_t == max(0.0, level - prior)
        prior = level


@st.composite
def calibration_targets(draw):
    """1-3 observations of the bundled 2005-2022 scenario at a random N."""
    n = draw(st.integers(1, 10**9))
    years = draw(st.lists(st.integers(2005, 2022), min_size=1, max_size=3, unique=True))
    values = draw(st.lists(st.floats(0.0, n), min_size=len(years), max_size=len(years)))
    loss = draw(st.sampled_from(["squared_error", "absolute_error"]))
    return n, CalibrationTarget(observations=tuple(zip(years, values)), loss=loss)


@settings(max_examples=60, deadline=None)
@given(calibration_targets(), reals(0.0, 40000.0))
# U < 0 every year at N = 1: e underflows for large alpha, p to 0, raised to _TINY
@example((1, CalibrationTarget(observations=((2005, 0.0), (2013, 0.0)),
                               loss="absolute_error")), 40000.0)
# U > 0 every year: p rounds to beta for large alpha and is cut to nextafter(beta, 0)
@example((1, CalibrationTarget(observations=((2006, 1.0), (2010, 0.5), (2022, 1.0)))), 0.0)
def test_grid_losses_equal_scalar_losses(drawn, cost):
    n, target = drawn
    params, prices, subsidies, _ = load_default_scenario()
    params = replace(params, total_farmers=n, pv_cost_min=cost, pv_cost_max=cost)
    grid = _Objective(params, prices, subsidies, target, budget=1).grid()
    # a fresh objective: its e lists come from one-alpha _decay calls, not grid rows
    scalar = _Objective(params, prices, subsidies, target, budget=1)
    scalar_losses = [scalar.loss(a, b) for a in GRID_ALPHAS for b in GRID_BETAS]
    assert [loss.hex() for loss, _, _ in grid] == [loss.hex() for loss in scalar_losses]
    assert [(a, b) for _, a, b in grid] == [(a, b) for a in GRID_ALPHAS for b in GRID_BETAS]


@st.composite
def loss_cases(draw):
    """Yearly subsidies over 1-18 years, N, and 1-3 (year index, cumulative adopters)."""
    subsidies = draw(st.lists(st.one_of(reals(-1e12, 1e12), reals(-1e5, 1e5)),
                              min_size=1, max_size=18))
    n = draw(st.integers(1, 10**9))
    indices = draw(st.lists(st.integers(0, len(subsidies) - 1), min_size=1, max_size=3,
                            unique=True))
    values = draw(st.lists(st.floats(0.0, n), min_size=len(indices), max_size=len(indices)))
    return subsidies, n, tuple(zip(indices, values))


def bundled_with_subsidies(yearly_subsidies, **overrides):
    """The bundled scenario cut to the given yearly subsidies: (params, prices, subsidies)."""
    params, prices, _, _ = load_default_scenario()
    params = replace(params, end_year=params.start_year + len(yearly_subsidies) - 1,
                     **overrides)
    return params, prices, YearSeries(params.start_year, tuple(yearly_subsidies))


@SETTINGS
@given(loss_cases(), alphas, betas)
@example(([-1e12], 1, ((0, 1.0),)), 100.0, 0.5)  # p underflows to 0 and is raised to _TINY
@example(([1e12], 1, ((0, 1.0),)), 100.0, 1.0)  # p rounds to 1 and is cut to nextafter(1, 0)
def test_run_records_equal_numpy_kernel_curve(case, alpha, beta):
    yearly_subsidies, n, _ = case
    for semantics in ("hazard", "literal"):
        params, prices, subsidies = bundled_with_subsidies(
            yearly_subsidies, total_farmers=n, alpha=alpha, beta=beta,
            adoption_semantics=semantics)
        records = run_simulation(params, prices, subsidies).records
        with np.errstate(over="ignore"):
            _, _, _, midpoint, _ = _yearly_inputs(params, prices, subsidies)
            expected = deterministic_curve(midpoint, alpha, beta, n, semantics)
        got = [[r.probability for r in records], [r.new_adopters for r in records],
               [r.cumulative_adopters for r in records]]
        assert [[v.hex() for v in column] for column in got] == [
            [v.hex() for v in column] for column in expected]


@SETTINGS
@given(loss_cases(), reals(*ALPHA_BOUNDS), reals(*BETA_BOUNDS))
@example(([-1e12], 1, ((0, 1.0),)), 100.0, 0.5)  # p underflows to 0 and is raised to _TINY
@example(([1e12], 1, ((0, 1.0),)), 100.0, 1.0)  # p rounds to 1 and is cut to nextafter(1, 0)
def test_scalar_loss_equals_engine_curve_loss(case, alpha, beta):
    yearly_subsidies, n, observed = case
    params, prices, subsidies = bundled_with_subsidies(yearly_subsidies, total_farmers=n)
    _, _, _, midpoint, _ = _yearly_inputs(params, prices, subsidies)
    _, _, cumulative = deterministic_curve(midpoint, alpha, beta, n, "hazard")
    for kind in LOSS_KINDS:
        target = CalibrationTarget(
            observations=tuple((params.start_year + i, v) for i, v in observed), loss=kind)
        expected = 0.0
        for index, value in observed:
            diff = cumulative[index] - value
            expected += diff * diff if kind == "squared_error" else abs(diff)
        loss = _Objective(params, prices, subsidies, target, budget=1).loss(alpha, beta)
        assert loss.hex() == expected.hex()

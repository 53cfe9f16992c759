import pytest
import yaml

from dairypv import load_default_scenario
from dairypv.domain import ScenarioParams


def make_params(**overrides):
    """ScenarioParams of the bundled economics over 2005-2022, other fields at their
    defaults, with the given overrides."""
    base = dict(
        pv_cost_min=5000.0,
        pv_cost_max=15000.0,
        maintenance_rate=0.02,
        discount_rate=0.04,
        total_farmers=18000,
        start_year=2005,
        end_year=2022,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def write_scenario(tmp_path, config=None, prices=None, subsidies=None, name="scenario.yaml"):
    """Write a minimal three-year scenario directory; returns the config path."""
    base = dict(
        pv_cost_min=5000,
        pv_cost_max=15000,
        maintenance_rate=0.02,
        discount_rate=0.04,
        total_farmers=18000,
        start_year=2005,
        end_year=2007,
        price_series="prices.csv",
        subsidy_series="subsidies.csv",
    )
    if config:
        base.update(config)
    if prices is None:
        prices = "year,price_eur_per_kwh\n2005,0.14\n2006,0.15\n2007,0.16\n"
    if subsidies is None:
        subsidies = "year,subsidy_eur\n2005,1000\n2006,1500\n2007,2000\n"
    (tmp_path / "prices.csv").write_text(prices)
    (tmp_path / "subsidies.csv").write_text(subsidies)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(base))
    return path


@pytest.fixture(scope="session")
def default_bundle():
    """Bundled baseline scenario: (params, prices, subsidies, target)."""
    return load_default_scenario()


@pytest.fixture()
def default_params(default_bundle):
    return default_bundle.params


@pytest.fixture()
def price_series(default_bundle):
    return default_bundle.prices


@pytest.fixture()
def subsidy_series(default_bundle):
    return default_bundle.subsidies

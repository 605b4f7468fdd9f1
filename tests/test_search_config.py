"""``SearchConfig`` is the single owner of every search knob's default and rule.

The contracts under test:

* any value of any field -- ints, floats, bools, strings, spec-grammar
  fragments -- either builds a config or raises ``ValueError``; never a
  ``TypeError`` or any other exception;
* a training system's keyword knobs, a fleet grid's ``search`` section and
  the constructor reject a bad value with the same message (the grid wraps
  it in :class:`~repro.fleet.GridSpecError`);
* ``dataclasses.replace`` and a system's keyword overrides re-validate, and
  the derived flags follow the parsed specs.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import GridSpecError, WorkloadGrid
from repro.fleet.grid import CONFIG_FIELDS
from repro.parallel.search import SearchConfig
from repro.sim.failures import DEFAULT_RECOVERY, FailureSpec
from repro.sim.schedules import ScheduleKind
from repro.sim.stochastic import DEFAULT_REPLICAS, JitterSpec
from repro.systems import MegatronSystem

FIELD_NAMES = tuple(f.name for f in fields(SearchConfig))

_SPEC_KEYS = (
    "compute", "link", "swap", "straggler", "mtbf", "process", "correlated",
    "preempt", "write", "restart", "interval", "elastic", "bogus", "",
)
_SPEC_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-10, max_value=10 ** 6).map(str),
    st.sampled_from([
        "weibull", "weibull:0.7", "poisson", "0.1:3", "0.3:8", "0.2:0",
        "21600:120", "nan", "inf", "-1", "", ":", "1e400",
    ]),
    st.text(max_size=6),
)
_SPEC_PART = st.one_of(
    st.builds(lambda key, value: f"{key}={value}", st.sampled_from(_SPEC_KEYS), _SPEC_VALUES),
    st.sampled_from(_SPEC_KEYS),
    _SPEC_VALUES,
)
#: Comma-joined fragments of the jitter, failure and recovery grammars.
SPEC_STRINGS = st.lists(_SPEC_PART, max_size=4).map(",".join)
NAMES = st.sampled_from([
    "auto", "1f1b", "gpipe", "zb-v", "interleaved", "ZB-H1", "fast", "event",
    "mean", "p99", "cvar", "ttrain_p99", "ttrain_bogus", "0", "0.05",
])
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=40),
    SPEC_STRINGS,
    NAMES,
)


def _build(**knobs) -> Optional[str]:
    """The ``ValueError`` message of ``SearchConfig(**knobs)``, or ``None``."""
    try:
        SearchConfig(**knobs)
    except ValueError as error:
        return str(error)
    return None


@settings(max_examples=400, deadline=None)
@given(knobs=st.dictionaries(st.sampled_from(FIELD_NAMES), VALUES, max_size=3))
def test_any_value_builds_or_raises_value_error(knobs):
    message = _build(**knobs)
    # A system's keyword knobs take the same single path.
    try:
        MegatronSystem(**knobs)
    except ValueError as error:
        assert str(error) == message
    else:
        assert message is None


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(CONFIG_FIELDS)), value=VALUES)
def test_grid_and_constructor_give_one_message(key, value):
    if key == "target_iterations" and value is None:
        value = 0  # the grid reads an explicit null as "use the default"
    message = _build(pipeline_schedule="auto", **{CONFIG_FIELDS[key]: value})
    spec = {"axes": {"model": ["7B"], "gpus": [8]}, "search": {key: value}}
    if message is None:
        grid = WorkloadGrid.from_spec(spec)
        assert grid.search.config == SearchConfig(
            pipeline_schedule="auto", **{CONFIG_FIELDS[key]: value},
        )
    else:
        with pytest.raises(GridSpecError) as raised:
            WorkloadGrid.from_spec(spec)
        assert str(raised.value) == f"bad search settings: {message}"


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.pipeline_schedule is ScheduleKind.ONE_F_ONE_B
        assert config.monte_carlo_replicas == DEFAULT_REPLICAS
        assert config.recovery is DEFAULT_RECOVERY
        assert not (config.monte_carlo_active or config.failures_active)
        assert not config.ttrain_scoring

    def test_spec_strings_are_parsed_once(self):
        config = SearchConfig(
            pipeline_schedule="zb-v", jitter="0.05", failures="mtbf=43200",
            recovery=None, risk_objective="ttrain_p99",
        )
        assert config.pipeline_schedule is ScheduleKind.ZB_V
        assert isinstance(config.jitter, JitterSpec) and config.monte_carlo_active
        assert config.failures == FailureSpec(mtbf_s=43200.0) and config.failures_active
        assert config.recovery is DEFAULT_RECOVERY
        assert (config.base_objective, config.ttrain_objective) == ("p99", "ttrain_p99")
        assert config.ttrain_scoring
        # Re-validating parsed values is the identity.
        assert replace(config) == config

    @pytest.mark.parametrize("objective, ttrain", [
        ("mean", "ttrain_mean"), ("cvar", "ttrain_cvar"), ("ttrain_p50", "ttrain_p50"),
    ])
    def test_ttrain_objective_name(self, objective, ttrain):
        assert SearchConfig(risk_objective=objective).ttrain_objective == ttrain

    def test_null_specs_are_inactive(self):
        config = SearchConfig(jitter="0", failures="0", risk_objective="ttrain_p99")
        assert config.jitter is not None and not config.monte_carlo_active
        assert config.failures is not None and not config.failures_active
        # Without an active failure process a ttrain_* objective scores its
        # base statistic; the system accepts it.
        assert not config.ttrain_scoring

    def test_replace_and_overrides_revalidate(self):
        with pytest.raises(ValueError, match="monte_carlo_seed"):
            replace(SearchConfig(), monte_carlo_seed=-1)
        base = SearchConfig(jitter="0.05", monte_carlo_replicas=4)
        system = MegatronSystem(config=base, monte_carlo_seed=3)
        assert system.config == replace(base, monte_carlo_seed=3)
        with pytest.raises(ValueError, match="risk_objective"):
            MegatronSystem(config=base, risk_objective="p42")

    def test_unknown_knob_is_a_type_error(self):
        with pytest.raises(TypeError):
            MegatronSystem(monte_carlo_sead=1)

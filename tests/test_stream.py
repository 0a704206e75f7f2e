import math

import pytest
from hypothesis import given, settings, strategies as st

import jsd_ref

from triefusion.stream import (
    ConceptSpec,
    DriftSchedule,
    generate_stream,
    lexical_drift_telemetry,
    render_template,
    rolling_drift,
)
from triefusion.vocab import VocabRegistry

OLD = ConceptSpec("concept-1", {"PLAN": "copper-4g", "BRAND": "telcoone"})
NEW = ConceptSpec("concept-2", {"PLAN": "quantum-5g", "BRAND": "nimbusnet"})
MID = ConceptSpec("concept-mid", {"PLAN": "hybrid", "BRAND": "telconimbus"})
TEMPLATES = [
    "please activate the {PLAN} package with {BRAND} now",
    "agents renewed the {PLAN} package under {BRAND} coverage",
]


def abrupt(switch=50, seed=7):
    return DriftSchedule("abrupt", (OLD, NEW), switch_points=(switch,), seed=seed)


class TestScheduleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            DriftSchedule("sudden", (OLD, NEW), switch_points=(5,))

    def test_switch_point_count(self):
        with pytest.raises(ValueError, match="2 concepts need exactly 1 switch points"):
            DriftSchedule("abrupt", (OLD, NEW), switch_points=())
        with pytest.raises(ValueError, match="3 concepts need exactly 2 switch points"):
            DriftSchedule("incremental", (OLD, MID, NEW), switch_points=(10,))

    def test_switch_points_increasing(self):
        with pytest.raises(ValueError, match="switch points must be strictly increasing"):
            DriftSchedule("incremental", (OLD, MID, NEW), switch_points=(30, 30))

    def test_gradual_needs_two_concepts_and_ramp(self):
        with pytest.raises(ValueError, match="gradual drift mixes exactly two concepts"):
            DriftSchedule("gradual", (OLD, MID, NEW), mixing_ramp=(0.5,))
        with pytest.raises(ValueError, match="gradual drift needs a mixing ramp"):
            DriftSchedule("gradual", (OLD, NEW))

    def test_ramp_monotone_and_bounded(self):
        with pytest.raises(ValueError, match="ramp must be monotone non-decreasing"):
            DriftSchedule("gradual", (OLD, NEW), mixing_ramp=(0.4, 0.2))
        with pytest.raises(ValueError, match=r"ramp probabilities must lie in \[0, 1\]"):
            DriftSchedule("gradual", (OLD, NEW), mixing_ramp=(0.4, 1.2))

    def test_duplicate_concept_ids(self):
        with pytest.raises(ValueError, match="duplicate concept ids"):
            DriftSchedule("abrupt", (OLD, OLD), switch_points=(5,))


class TestTemplates:
    def test_render(self):
        text = render_template(TEMPLATES[0], OLD)
        assert text == "please activate the copper-4g package with telcoone now"

    def test_missing_substitution(self):
        with pytest.raises(ValueError, match=r"placeholder \{MISSING\} has no value"):
            render_template("use {MISSING} here", OLD)

    def test_multi_token_value_spans(self):
        concept = ConceptSpec("c", {"PLAN": "talk plus net pack"})
        registry = VocabRegistry()
        schedule = DriftSchedule("abrupt", (concept,), seed=1)
        items = generate_stream(["buy the {PLAN} today"], schedule, 1, registry)
        span = items[0].spans[0]
        assert (span.start, span.end, span.value) == (2, 6, "talk plus net pack")
        assert items[0].reference_text == "buy the talk plus net pack today"


class TestGenerate:
    def test_abrupt_boundaries(self):
        registry = VocabRegistry()
        items = generate_stream(TEMPLATES, abrupt(switch=50), 100, registry)
        assert all(i.concept_id == "concept-1" for i in items[:50])
        assert all(i.concept_id == "concept-2" for i in items[50:])

    def test_incremental_boundaries(self):
        registry = VocabRegistry()
        schedule = DriftSchedule("incremental", (OLD, MID, NEW), switch_points=(30, 60), seed=3)
        items = generate_stream(TEMPLATES, schedule, 90, registry)
        assert [items[29].concept_id, items[30].concept_id] == ["concept-1", "concept-mid"]
        assert [items[59].concept_id, items[60].concept_id] == ["concept-mid", "concept-2"]

    def test_gradual_ramp_shifts_mixture(self):
        registry = VocabRegistry()
        ramp = tuple(i / 99 for i in range(100))
        schedule = DriftSchedule("gradual", (OLD, NEW), mixing_ramp=ramp, seed=5)
        items = generate_stream(TEMPLATES, schedule, 100, registry)
        first = sum(i.concept_id == "concept-2" for i in items[:50])
        second = sum(i.concept_id == "concept-2" for i in items[50:])
        assert first < second

    def test_deterministic_under_seed(self):
        a = generate_stream(TEMPLATES, abrupt(seed=9), 60, VocabRegistry())
        b = generate_stream(TEMPLATES, abrupt(seed=9), 60, VocabRegistry())
        assert a == b
        c = generate_stream(TEMPLATES, abrupt(seed=10), 60, VocabRegistry())
        assert a != c

    def test_prompt_is_pre_placeholder_prefix(self):
        registry = VocabRegistry()
        items = generate_stream(TEMPLATES, abrupt(), 10, registry)
        for item in items:
            assert item.reference[: len(item.prompt)] == item.prompt
            assert item.prompt_text in item.reference_text
            first_span = item.spans[0]
            assert len(item.prompt) == first_span.start

    def test_timestamps_strictly_increase(self):
        items = generate_stream(TEMPLATES, abrupt(), 30, VocabRegistry(), timestamp_step=7.5)
        stamps = [i.timestamp for i in items]
        assert stamps[0] == 7.5
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_template_without_placeholder_rejected(self):
        with pytest.raises(ValueError):
            generate_stream(["no placeholders here"], abrupt(), 5, VocabRegistry())


class TestTelemetry:
    def test_identical_windows(self):
        assert lexical_drift_telemetry(["a", "b"], ["a", "b"]) == 0.0

    def test_disjoint_windows(self):
        value = lexical_drift_telemetry(["a", "a"], ["b", "b"])
        assert value == pytest.approx(math.sqrt(math.log(2)), abs=1e-12)

    def test_worked_example(self):
        value = lexical_drift_telemetry(["a", "a", "b"], ["a", "b", "b"])
        assert value == pytest.approx(0.23797691540385263, abs=1e-12)

    def test_empty_window(self):
        with pytest.raises(ValueError, match="both windows must contain at least one token"):
            lexical_drift_telemetry([], ["a"])

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_reference_loop(self, data):
        # bit for bit against the loop as it stood before it was shared
        token = st.one_of(st.integers(min_value=0, max_value=30), st.text(max_size=3))
        window_a = data.draw(st.lists(token, min_size=1, max_size=60))
        window_b = data.draw(st.lists(token, min_size=1, max_size=60))
        assert lexical_drift_telemetry(window_a, window_b) == jsd_ref.lexical_drift_telemetry(
            window_a, window_b)

    def test_rolling_drift_spikes_at_switch(self):
        registry = VocabRegistry()
        items = generate_stream(TEMPLATES, abrupt(switch=50), 100, registry)
        series = dict(rolling_drift([i.reference for i in items], window=10))
        calm = series[40]  # both windows pre-drift
        spike = max(series[i] for i in range(50, 70))
        assert spike > calm + 0.05

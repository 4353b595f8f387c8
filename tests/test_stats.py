"""Frequency tables and the plain-text report."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from drivetriad import CommandClass, corpus_stats, render_report
from drivetriad.stats import class_frequencies, combo_frequencies, combo_label

C = CommandClass

TURN_ROAD = frozenset({C.TURN, C.ROAD})
DIST_TURN_ROAD = frozenset({C.DISTANCE, C.TURN, C.ROAD})
LOCATION = frozenset({C.LOCATION_NAME})


class TestClassFrequencies:
    def test_counts_and_zeros(self):
        counts = class_frequencies([TURN_ROAD, DIST_TURN_ROAD, LOCATION])
        assert counts[C.TURN] == 2
        assert counts[C.ROAD] == 2
        assert counts[C.DISTANCE] == 1
        assert counts[C.LOCATION_NAME] == 1
        assert counts[C.CARDINAL] == 0
        assert set(counts) == set(CommandClass)

    def test_empty_input_all_zero(self):
        counts = class_frequencies([])
        assert all(v == 0 for v in counts.values())
        assert set(counts) == set(CommandClass)

    def test_accepts_events_with_classes_attribute(self):
        class FakeEvent:
            def __init__(self, classes):
                self.classes = classes

        counts = class_frequencies([FakeEvent(TURN_ROAD)])
        assert counts[C.TURN] == 1


class TestComboFrequencies:
    def test_most_frequent_first(self):
        combos = combo_frequencies(
            [TURN_ROAD, DIST_TURN_ROAD, TURN_ROAD, LOCATION, TURN_ROAD]
        )
        assert combos[0] == (TURN_ROAD, 3)
        assert {c for c, _ in combos} == {TURN_ROAD, DIST_TURN_ROAD, LOCATION}

    def test_ties_break_lexicographically(self):
        a = frozenset({C.CARDINAL})
        b = frozenset({C.TURN})
        combos = combo_frequencies([b, a])
        assert [c for c, _ in combos] == [a, b]

    def test_empty_set_is_countable(self):
        combos = combo_frequencies([frozenset(), TURN_ROAD, frozenset()])
        assert (frozenset(), 2) in combos


class TestComboLabel:
    def test_sorted_display_labels(self):
        assert combo_label(DIST_TURN_ROAD) == "Distance, Road, Turn"
        assert (
            combo_label(frozenset({C.STATIC_OBJECT, C.LANE_INFORMATION}))
            == "Lane Information, Static Object"
        )

    def test_empty(self):
        assert combo_label(frozenset()) == "(none)"


class TestCorpusStats:
    def test_bundles_views(self):
        stats = corpus_stats("drive-1", [TURN_ROAD, LOCATION])
        assert stats.source_label == "drive-1"
        assert stats.total_events == 2
        assert stats.class_counts[C.TURN] == 1
        assert stats.combo_counts[LOCATION] == 1


@st.composite
def class_set_lists(draw):
    classes = list(CommandClass)
    sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(classes), max_size=4),
            max_size=30,
        )
    )
    return sets


class TestAccountingIdentities:
    @given(class_set_lists())
    def test_combo_totals_sum_to_event_count(self, sets):
        combos = combo_frequencies(sets)
        assert sum(count for _, count in combos) == len(sets)

    @given(class_set_lists())
    def test_class_count_equals_contributing_combos(self, sets):
        class_counts = class_frequencies(sets)
        combos = combo_frequencies(sets)
        for cls in CommandClass:
            from_combos = sum(count for combo, count in combos if cls in combo)
            assert class_counts[cls] == from_combos


class TestRenderReport:
    def _two_sources(self):
        return [
            corpus_stats("app-a", [TURN_ROAD, DIST_TURN_ROAD, TURN_ROAD]),
            corpus_stats("app-b", [LOCATION, TURN_ROAD]),
        ]

    def test_deterministic(self):
        stats = self._two_sources()
        assert render_report(stats) == render_report(stats)

    def test_structure(self):
        text = render_report(self._two_sources())
        assert text.startswith("Per-class instruction counts")
        assert "Multi-attribute combination counts" in text
        assert text.endswith("Total events: 5\n")
        header = next(
            line for line in text.splitlines() if line.startswith("| Class")
        )
        assert [h.strip() for h in header.strip("|").split("|")] == [
            "Class",
            "app-a",
            "app-b",
            "Total",
        ]

    def test_rows_ordered_by_total_then_label(self):
        text = render_report(self._two_sources())
        lines = text.splitlines()
        start = lines.index("Per-class instruction counts") + 4
        labels = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            labels.append(line.strip("|").split("|")[0].strip())
        # Turn and Road both 4, then Distance 1 and Location Name 1, then
        # the five absent classes alphabetically, all nine present.
        assert labels[:4] == ["Road", "Turn", "Distance", "Location Name"]
        assert len(labels) == len(CommandClass)
        assert labels[4:] == sorted(labels[4:])

    def test_combo_section_ranks_by_count(self):
        text = render_report(self._two_sources())
        lines = text.splitlines()
        start = lines.index("Multi-attribute combination counts") + 4
        first_combo = lines[start].strip("|").split("|")[0].strip()
        assert first_combo == "Road, Turn"

    def test_all_zero_source_renders(self):
        text = render_report([corpus_stats("quiet", [])])
        assert "Total events: 0" in text

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError):
            render_report([])

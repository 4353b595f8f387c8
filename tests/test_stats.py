"""Frequency tables and the plain-text report."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from drivetriad import CommandClass, corpus_stats, render_report
from drivetriad.stats import CorpusStats, check_label, combo_label

C = CommandClass

TURN_ROAD = frozenset({C.TURN, C.ROAD})
DIST_TURN_ROAD = frozenset({C.DISTANCE, C.TURN, C.ROAD})
LOCATION = frozenset({C.LOCATION_NAME})


def _table_rows(text, title):
    """The rows of one rendered table, each a list of stripped cells."""
    lines = text.splitlines()
    rows = []
    for line in lines[lines.index(title) + 4:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _combo_rows(sets):
    """(label, total) per combination row of a one-source report."""
    text = render_report([corpus_stats("s", sets)])
    return [
        (row[0], int(row[-1]))
        for row in _table_rows(text, "Multi-attribute combination counts")
    ]


class TestClassFrequencies:
    def test_counts_and_zeros(self):
        counts = corpus_stats("s", [TURN_ROAD, DIST_TURN_ROAD, LOCATION]).class_counts
        assert counts[C.TURN] == 2
        assert counts[C.ROAD] == 2
        assert counts[C.DISTANCE] == 1
        assert counts[C.LOCATION_NAME] == 1
        assert counts[C.CARDINAL] == 0
        assert set(counts) == set(CommandClass)

    def test_empty_input_all_zero(self):
        counts = corpus_stats("s", []).class_counts
        assert all(v == 0 for v in counts.values())
        assert set(counts) == set(CommandClass)

    def test_accepts_events_with_classes_attribute(self):
        class FakeEvent:
            def __init__(self, classes):
                self.classes = classes

        counts = corpus_stats("s", [FakeEvent(TURN_ROAD)]).class_counts
        assert counts[C.TURN] == 1


class TestComboFrequencies:
    def test_most_frequent_first(self):
        rows = _combo_rows([TURN_ROAD, DIST_TURN_ROAD, TURN_ROAD, LOCATION, TURN_ROAD])
        assert rows[0] == ("Road, Turn", 3)
        assert {label for label, _ in rows} == {
            "Road, Turn", "Distance, Road, Turn", "Location Name",
        }

    def test_ties_break_lexicographically(self):
        a = frozenset({C.CARDINAL})
        b = frozenset({C.TURN})
        assert [label for label, _ in _combo_rows([b, a])] == ["Cardinal", "Turn"]

    def test_empty_set_is_countable(self):
        sets = [frozenset(), TURN_ROAD, frozenset()]
        assert corpus_stats("s", sets).combo_counts[frozenset()] == 2
        assert ("(none)", 2) in _combo_rows(sets)


class TestComboLabel:
    def test_sorted_display_labels(self):
        assert combo_label(DIST_TURN_ROAD) == "Distance, Road, Turn"
        assert (
            combo_label(frozenset({C.STATIC_OBJECT, C.LANE_INFORMATION}))
            == "Lane Information, Static Object"
        )

    def test_empty(self):
        assert combo_label(frozenset()) == "(none)"


class TestCheckLabel:
    # C0 runs to "\x1f" and C1 from "\x7f" (DEL) to "\x9f"; "\xa0" is past it.
    # U+2028 and U+2029 end a line for str.splitlines().
    @pytest.mark.parametrize(
        "label",
        ["a|b", "|", "a\nb", "\r", "\t", "\x00", "\x1b[1m", "\x1f", "\x7f", "\x85", "\x9f",
         "a\u2028b", "\u2029"],
    )
    def test_what_breaks_a_table_row_is_refused(self, label):
        with pytest.raises(ValueError) as info:
            check_label("source_label", label)
        assert str(info.value) == (
            "source_label must hold no '|', control character or line separator, "
            f"got {label!r}"
        )

    @pytest.mark.parametrize("label", ["a b", "~", "\xa0", "é", "track-1", "a=b"])
    def test_printable_labels_pass(self, label):
        check_label("source_label", label)


class TestCorpusStats:
    def test_bundles_views(self):
        stats = corpus_stats("drive-1", [TURN_ROAD, LOCATION])
        assert stats.source_label == "drive-1"
        assert stats.total_events == 2
        assert stats.class_counts[C.TURN] == 1
        assert stats.combo_counts[LOCATION] == 1

    def test_class_counts_and_total_follow_the_combinations(self):
        stats = CorpusStats("a", {frozenset({C.TURN}): 5, frozenset(): 2})
        assert (stats.class_counts[C.TURN], stats.total_events) == (5, 7)
        assert sum(stats.class_counts.values()) == 5
        assert render_report([stats]).endswith("\nTotal events: 7\n")

    def test_class_counts_and_total_are_not_constructor_arguments(self):
        # A report can no longer be handed counts that disagree.
        with pytest.raises(TypeError):
            CorpusStats("a", {C.TURN: 5}, {frozenset(): 1}, 7)


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
        stats = corpus_stats("s", sets)
        assert sum(stats.combo_counts.values()) == stats.total_events == len(sets)
        for combo, count in stats.combo_counts.items():
            assert count == sets.count(combo)

    @given(class_set_lists())
    def test_class_count_equals_contributing_combos(self, sets):
        stats = corpus_stats("s", sets)
        for cls in CommandClass:
            from_combos = sum(
                count for combo, count in stats.combo_counts.items() if cls in combo
            )
            assert stats.class_counts[cls] == from_combos
            assert from_combos == sum(cls in s for s in sets)


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
        labels = [row[0] for row in _table_rows(text, "Per-class instruction counts")]
        # Turn and Road both 4, then Distance 1 and Location Name 1, then
        # the five absent classes alphabetically, all nine present.
        assert labels[:4] == ["Road", "Turn", "Distance", "Location Name"]
        assert len(labels) == len(CommandClass)
        assert labels[4:] == sorted(labels[4:])

    def test_combo_section_ranks_by_count(self):
        text = render_report(self._two_sources())
        rows = _table_rows(text, "Multi-attribute combination counts")
        assert rows[0][0] == "Road, Turn"

    def test_all_zero_source_renders(self):
        text = render_report([corpus_stats("quiet", [])])
        assert "Total events: 0" in text

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError):
            render_report([])

    def test_label_that_breaks_the_table_rejected(self):
        # A library caller's label is held to the rule the CLI applies.
        with pytest.raises(ValueError, match=r"source_label must hold no .*, got 'a\|b'"):
            render_report([corpus_stats("ok", []), corpus_stats("a|b", [])])

    def test_label_given_twice_rejected(self):
        # Two columns with one label could not be told apart; the CLI
        # refuses the same for LABEL=PATH sources.
        with pytest.raises(ValueError, match=r"^source_label 'a' given twice$"):
            render_report(
                [corpus_stats("a", []), corpus_stats("b", []), corpus_stats("a", [])]
            )


class TestRankedTables:
    """Both report tables come from one builder: per-source cells, a Total
    that sums them, rows by descending total and then a tie-break."""

    @given(st.lists(class_set_lists(), min_size=1, max_size=3))
    def test_both_tables(self, sources):
        labels = [f"src{i}" for i in range(len(sources))]
        text = render_report(
            [corpus_stats(label, sets) for label, sets in zip(labels, sources)]
        )
        by_label = {cls.label: cls for cls in CommandClass}
        seen = {combo for sets in sources for combo in sets}
        combo_by_label = {combo_label(combo): combo for combo in seen}
        tables = [
            ("Per-class instruction counts", by_label,
             lambda cls, sets: sum(cls in s for s in sets),
             lambda cls: cls.label),
            ("Multi-attribute combination counts", combo_by_label,
             lambda combo, sets: sets.count(combo),
             lambda combo: tuple(sorted(cls.value for cls in combo))),
        ]
        for title, keys, count, tie_break in tables:
            rows = _table_rows(text, title)
            # The class table lists all nine classes, the combination table
            # exactly the combinations seen.
            assert sorted(row[0] for row in rows) == sorted(keys)
            ranks = []
            for row in rows:
                key = keys[row[0]]
                cells = [int(cell) for cell in row[1:]]
                assert cells[:-1] == [count(key, sets) for sets in sources]
                assert cells[-1] == sum(cells[:-1])
                ranks.append((-cells[-1], tie_break(key)))
            assert ranks == sorted(ranks)

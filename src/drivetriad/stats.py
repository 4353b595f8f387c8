"""Frequency tables over classified instruction events.

Two views: per-class counts (how often each attribute class appears) and
combination counts (how often each exact multi-class set appears). Both
are rendered per source with a Total column, as diff-able plain text.

Accounting identities hold by construction: combination totals sum to the
event count, and each class count equals the sum of the combination
counts whose set contains it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .classifier import CommandClass, sort_classes


@dataclass(frozen=True)
class CorpusStats:
    """Counts for one source (one app, one corpus, one drive...)."""

    source_label: str
    class_counts: Mapping[CommandClass, int]
    combo_counts: Mapping[frozenset[CommandClass], int]
    total_events: int


def corpus_stats(source_label: str, events: Iterable) -> CorpusStats:
    """Count each distinct class set, and each class from those counts.

    Accepts instruction events or bare class sets; a class no event holds
    counts 0.
    """
    combo_counts = Counter(frozenset(getattr(e, "classes", e)) for e in events)
    class_counts = dict.fromkeys(CommandClass, 0)
    for combo, count in combo_counts.items():
        for cls in combo:
            class_counts[cls] += count
    return CorpusStats(
        source_label, class_counts, combo_counts, sum(combo_counts.values())
    )


def _combo_key(combo: frozenset[CommandClass]) -> tuple[str, ...]:
    return tuple(cls.value for cls in sort_classes(combo))


def combo_label(combo: frozenset[CommandClass]) -> str:
    """Display name for a class set: sorted labels, or (none)."""
    if not combo:
        return "(none)"
    return ", ".join(cls.label for cls in sort_classes(combo))


def _render_table(
    title: str,
    key_header: str,
    row_labels: Sequence[str],
    columns: Sequence[str],
    cells: Sequence[Sequence[int]],
) -> list[str]:
    headers = [key_header, *columns]
    rows = [
        [label, *(str(value) for value in row)]
        for label, row in zip(row_labels, cells)
    ]
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in rows)) if rows else len(headers[j])
        for j in range(len(headers))
    ]
    lines = [title, ""]
    lines.append(
        "| " + " | ".join(h.ljust(widths[j]) for j, h in enumerate(headers)) + " |"
    )
    lines.append("| " + " | ".join("-" * w for w in widths) + " |")
    for row in rows:
        cells_text = [row[0].ljust(widths[0])]
        cells_text += [row[j].rjust(widths[j]) for j in range(1, len(row))]
        lines.append("| " + " | ".join(cells_text) + " |")
    return lines


def render_report(stats: Sequence[CorpusStats]) -> str:
    """Render both tables for the given sources, column per source + Total.

    Pure and byte-stable: the same stats always produce the same text.
    """
    if not stats:
        raise ValueError("render_report needs at least one source")
    columns = [s.source_label for s in stats] + ["Total"]

    class_totals = {
        cls: sum(s.class_counts.get(cls, 0) for s in stats) for cls in CommandClass
    }
    class_order = sorted(
        CommandClass, key=lambda c: (-class_totals[c], c.label)
    )
    class_cells = [
        [s.class_counts.get(cls, 0) for s in stats] + [class_totals[cls]]
        for cls in class_order
    ]
    lines = _render_table(
        "Per-class instruction counts",
        "Class",
        [cls.label for cls in class_order],
        columns,
        class_cells,
    )

    combo_totals: Counter[frozenset[CommandClass]] = Counter()
    for s in stats:
        combo_totals.update(s.combo_counts)
    combo_order = sorted(
        combo_totals, key=lambda c: (-combo_totals[c], _combo_key(c))
    )
    combo_cells = [
        [s.combo_counts.get(combo, 0) for s in stats] + [combo_totals[combo]]
        for combo in combo_order
    ]
    lines.append("")
    lines += _render_table(
        "Multi-attribute combination counts",
        "Classes",
        [combo_label(combo) for combo in combo_order],
        columns,
        combo_cells,
    )
    lines.append("")
    lines.append(f"Total events: {sum(s.total_events for s in stats)}")
    return "\n".join(lines) + "\n"

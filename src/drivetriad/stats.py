"""Frequency tables over classified instruction events.

Two views: per-class counts (how often each attribute class appears) and
combination counts (how often each exact multi-class set appears). Both
are rendered per source with a Total column, as diff-able plain text.

Accounting identities hold by construction: combination totals sum to the
event count, and each class count equals the sum of the combination
counts whose set contains it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .classifier import CommandClass, sort_classes


@dataclass(frozen=True)
class CorpusStats:
    """Counts for one source (one app, one corpus, one drive...): the
    number of events per distinct class set. The class counts and the
    event total are derived from those."""

    source_label: str
    combo_counts: Mapping[frozenset[CommandClass], int]

    @property
    def class_counts(self) -> dict[CommandClass, int]:
        """Each class's count over the sets that hold it; 0 if none does."""
        counts = dict.fromkeys(CommandClass, 0)
        for combo, count in self.combo_counts.items():
            for cls in combo:
                counts[cls] += count
        return counts

    @property
    def total_events(self) -> int:
        return sum(self.combo_counts.values())


# A table cell may not hold the column rule, a control character (C0, DEL
# or C1: a line end, a tab, an escape) or a line or paragraph separator:
# each would break its row, the last two for str.splitlines().
_CELL_BREAKERS = re.compile(r"[|\x00-\x1f\x7f-\x9f\u2028\u2029]")


def check_label(name: str, label: str) -> None:
    """Hold a report column label to its rule: a non-empty string that
    encodes as UTF-8 and holds no "|", control character or line
    separator (U+2028, U+2029). A label read from a command line or a
    file name can hold a lone surrogate (Python's reading of a byte that
    is not UTF-8), which no output file can store. A bad label raises
    ValueError naming ``name``."""
    if label == "":
        raise ValueError(f"{name} must be a non-empty string, got ''")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{name} must be valid UTF-8, got {label!r}") from None
    if _CELL_BREAKERS.search(label):
        raise ValueError(
            f"{name} must hold no '|', control character or line separator, got {label!r}"
        )


def corpus_stats(source_label: str, events: Iterable) -> CorpusStats:
    """Count each distinct class set; accepts instruction events or bare
    class sets."""
    combos = Counter(frozenset(getattr(e, "classes", e)) for e in events)
    return CorpusStats(source_label, combos)


def combo_label(combo: frozenset[CommandClass]) -> str:
    """Display name for a class set: sorted labels, or (none)."""
    if not combo:
        return "(none)"
    return ", ".join(cls.label for cls in sort_classes(combo))


def _ranked_table(
    title: str,
    key_header: str,
    columns: Sequence[str],
    counts: Sequence[Mapping],
    keys: Iterable,
    row_label: Callable[..., str],
) -> list[str]:
    """One source column per mapping in ``counts`` plus a Total column;
    rows ranked by descending total, then by row label."""
    totals = {key: sum(c.get(key, 0) for c in counts) for key in keys}
    rows = [
        [row_label(key), *(str(c.get(key, 0)) for c in counts), str(totals[key])]
        for key in sorted(totals, key=lambda k: (-totals[k], row_label(k)))
    ]
    table = [[key_header, *columns, "Total"], *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    table.insert(1, ["-" * width for width in widths])
    lines = [title, ""]
    for n, cells in enumerate(table):
        pad = str.rjust if n else str.ljust  # the header row is left-aligned
        padded = [cells[0].ljust(widths[0]), *map(pad, cells[1:], widths[1:])]
        lines.append("| " + " | ".join(padded) + " |")
    return lines


def render_report(stats: Sequence[CorpusStats]) -> str:
    """Render both tables for the given sources, column per source + Total.

    Pure and byte-stable: the same stats always produce the same text.
    Each source label is held to ``check_label`` and given once.
    """
    if not stats:
        raise ValueError("render_report needs at least one source")
    columns: list[str] = []
    for s in stats:
        check_label("source_label", s.source_label)
        if s.source_label in columns:
            raise ValueError(f"source_label {s.source_label!r} given twice")
        columns.append(s.source_label)
    combo_counts = [s.combo_counts for s in stats]
    lines = _ranked_table(
        "Per-class instruction counts",
        "Class",
        columns,
        [s.class_counts for s in stats],
        CommandClass,
        lambda cls: cls.label,
    )
    lines.append("")
    lines += _ranked_table(
        "Multi-attribute combination counts",
        "Classes",
        columns,
        combo_counts,
        set().union(*combo_counts),
        combo_label,
    )
    lines.append("")
    lines.append(f"Total events: {sum(s.total_events for s in stats)}")
    return "\n".join(lines) + "\n"

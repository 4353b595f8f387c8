"""Span tracing from outside the program.

The tracer replaces module attributes of ``drivetriad`` with wrappers that
record one span per call: name, start, end, parent span and run id. Only
the names a caller looks up at call time are wrapped (``pipeline.parse_gpx``,
``sync.interpolate_position``, ...), so nothing under ``src/`` changes and
every original is put back when the ``installed()`` block ends.

Spans stay in memory until ``write`` is called at the end of a run. A
span's self time is its duration minus the time its child spans cover;
the program is single-threaded, so children of one span never overlap and
that cover is the sum of their durations.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# (module, attribute, span name): every public function that pipeline, sync,
# segmenter and the CLI look up by name when they call into another layer.
TARGETS = (
    ("drivetriad.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("drivetriad.cli", "load_lexicon", "classifier.load_lexicon"),
    ("drivetriad.cli", "parse_transcript", "ingest.parse_transcript"),
    ("drivetriad.cli", "classify", "classifier.classify"),
    ("drivetriad.cli", "read_triads", "emitter.read_triads"),
    ("drivetriad.cli", "corpus_stats", "stats.corpus_stats"),
    ("drivetriad.cli", "render_report", "stats.render_report"),
    ("drivetriad.pipeline", "load_lexicon", "classifier.load_lexicon"),
    ("drivetriad.pipeline", "parse_gpx", "ingest.parse_gpx"),
    ("drivetriad.pipeline", "parse_transcript", "ingest.parse_transcript"),
    ("drivetriad.pipeline", "parse_video_meta", "ingest.parse_video_meta"),
    ("drivetriad.pipeline", "build_events", "sync.build_events"),
    ("drivetriad.pipeline", "segment_actions", "segmenter.segment_actions"),
    ("drivetriad.pipeline", "collect_mismatches", "segmenter.collect_mismatches"),
    ("drivetriad.pipeline", "make_triads", "emitter.make_triads"),
    ("drivetriad.pipeline", "corpus_stats", "stats.corpus_stats"),
    ("drivetriad.pipeline", "render_report", "stats.render_report"),
    ("drivetriad.pipeline", "manifest_input", "emitter.manifest_input"),
    ("drivetriad.pipeline", "config_digest", "emitter.config_digest"),
    ("drivetriad.pipeline", "build_manifest", "emitter.build_manifest"),
    ("drivetriad.pipeline", "export_triads", "emitter.export_triads"),
    ("drivetriad.pipeline", "write_manifest", "emitter.write_manifest"),
    ("drivetriad.sync", "absolutize", "ingest.absolutize"),
    ("drivetriad.sync", "classify", "classifier.classify"),
    ("drivetriad.sync", "interpolate_position", "core.interpolate_position"),
    ("drivetriad.sync", "heading_at", "core.heading_at"),
    ("drivetriad.sync", "frame_index_at", "sync.frame_index_at"),
    ("drivetriad.segmenter", "interpolate_position", "core.interpolate_position"),
    ("drivetriad.segmenter", "net_bearing_change", "segmenter.net_bearing_change"),
    ("drivetriad.segmenter", "frame_index_at", "sync.frame_index_at"),
    ("drivetriad.synth", "generate_instructions", "synth.generate_instructions"),
    ("drivetriad.synth", "write_corpus", "synth.write_corpus"),
)


class Tracer:
    """Collects spans and per-run counts while its wrappers are installed."""

    def __init__(self) -> None:
        # One list per span: [name, start_ns, end_ns, parent index, run id].
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.run_id = 0
        self._stack: list[int] = []
        self._observers: dict[str, Callable] = {
            "ingest.parse_gpx": self._observe_gpx,
            "ingest.parse_transcript": self._observe_transcript,
            "sync.build_events": self._observe_events,
            "segmenter.segment_actions": self._observe_segments,
            "emitter.export_triads": self._observe_export,
            "emitter.read_triads": self._observe_read,
        }

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0, 0, parent, self.run_id])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, original: Callable, name: str) -> Callable:
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around code in the benchmark itself, such as one CLI call."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _count(self, key: str, value: int) -> None:
        self.counts[self.run_id][key] += value

    def _observe_gpx(self, args, track) -> None:
        self._count("fixes", len(track.points))

    def _observe_transcript(self, args, transcript) -> None:
        self._count("segments_in", len(transcript.segments))

    def _observe_events(self, args, result) -> None:
        self._count("events_placed", len(result[0]))

    def _observe_segments(self, args, result) -> None:
        segments = result[0]
        self._count("windows", len(segments))
        self._count("waypoints", sum(len(s.waypoints) for s in segments))
        self._count(
            "unknown_windows",
            sum(1 for s in segments if s.maneuver.value == "Unknown"),
        )

    def _observe_export(self, args, path) -> None:
        self._count("triads_bytes", os.path.getsize(path))

    def _observe_read(self, args, triads) -> None:
        self._count("records_read", len(triads))

    # --- analysis ----------------------------------------------------------

    def run_spans(self, run_id: int) -> list[tuple[int, list]]:
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]

    def self_times_ns(self, run_id: int) -> dict[int, int]:
        """Self time of every span of one run, keyed by span index."""
        spans = self.run_spans(run_id)
        own = {i: s[2] - s[1] for i, s in spans}
        for i, s in spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, run_id: int) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns) within one run."""
        self_ns = self.self_times_ns(run_id)
        table: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for i, s in self.run_spans(run_id):
            row = table[s[0]]
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += self_ns[i]
        return {name: tuple(row) for name, row in table.items()}

    def subtree_self_ns(self, run_id: int, root_name: str) -> tuple[int, int]:
        """(sum of self times under every root_name span, their total time).

        The two agree when the span tree is consistent: every nanosecond of
        the root is owned by exactly one span in its subtree.
        """
        spans = dict(self.run_spans(run_id))
        self_ns = self.self_times_ns(run_id)
        roots = {i for i, s in spans.items() if s[0] == root_name}
        covered = 0
        for i in spans:
            j: int | None = i
            while j is not None and j not in roots:
                j = spans[j][3]
            if j is not None:
                covered += self_ns[i]
        total = sum(spans[i][2] - spans[i][1] for i in roots)
        return covered, total

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in ns since an
        arbitrary origin, parent as a line index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "run": run}
                handle.write(json.dumps(record) + "\n")

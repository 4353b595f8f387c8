"""Alignment of transcript, track, and video streams onto one UTC timeline.

Each spoken instruction becomes an InstructionEvent anchored at the
segment's onset time, carrying the interpolated position, heading, and
video frame index at that instant. All three streams come in on the shared
clock: ``run_pipeline`` shifts each one once, and the transcript carries
its own anchor.

Events that cannot be placed (more than TOLERANCE_MS, 5 s,
outside the track's time span, or with unusable text) are dropped, but
every drop is reported in the returned warning list — nothing disappears
silently. The 5 s is part of the fixed rule: no caller sets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classifier import CommandClass, Evidence, Lexicon, Statement, classify, read_statement
from .core import (
    TOLERANCE_MS,
    GeoPoint,
    TrackLog,
    format_iso8601_ms,
    heading_at,
    interpolate_position,
)
from .errors import NoUsableEvents
from .ingest import Transcript, VideoIndex, absolutize

@dataclass(frozen=True)
class InstructionEvent:
    """One spoken instruction pinned to time, place, heading, and frame;
    its classes are those its evidence names, as ``classify`` gives them,
    and its statement what ``read_statement`` reads from that evidence."""

    id: int
    t_ms: int
    text: str
    evidence: tuple[Evidence, ...]
    statement: Statement
    geo: GeoPoint
    heading_deg: float | None
    frame_index: int | None

    @property
    def classes(self) -> frozenset[CommandClass]:
        return frozenset(e.command_class for e in self.evidence)


def frame_index_at(video: VideoIndex, t_ms: int) -> int | None:
    """Map a UTC instant to a frame number: floor((t - start) / 1000 * fps).

    None where the video holds no frame: before its start, at or past its
    end, and always for a zero-frame video.
    """
    if t_ms < video.start_ms:
        return None
    # Multiply before dividing: (dt * fps) is exact for integral fps, so
    # whole-second boundaries never land a float ulp below the frame line.
    # Test the bound before flooring (floor(x) >= n exactly when x >= n):
    # a huge fps makes the position infinite, which floor cannot take, and
    # frame_count is at most 2**53, so an infinite position is past it.
    position = (t_ms - video.start_ms) * video.fps / 1000.0
    if position >= video.frame_count:
        return None
    return math.floor(position)


def build_events(
    transcript: Transcript,
    track: TrackLog,
    video: VideoIndex | None = None,
    lex: Lexicon | None = None,
) -> tuple[list[InstructionEvent], list[str]]:
    """Classify and place every transcript segment on the shared timeline.

    The transcript's own ``audio_start_ms`` anchors its relative times
    (InvalidAnchor if it has none); ``track`` and ``video`` must already be
    on that clock. Returns the events sorted by time with ids 0..n-1, plus
    warnings: one per dropped segment in time order, then the ``event N:``
    notes (no heading, no video frame) in id order. Raises NoUsableEvents
    when nothing survives.
    """
    # Events are numbered as they are placed, so place them in time order;
    # the sort is stable, so equal instants keep their input order.
    timed = absolutize(transcript)
    timed.sort(key=lambda pair: pair[0])
    warnings: list[str] = []
    notes: list[str] = []
    events: list[InstructionEvent] = []
    # Navigation prompts are templated, so a text comes back many times in
    # one drive: each distinct text is classified and read once (None: no
    # words).
    labels: dict[str, tuple[tuple[Evidence, ...], Statement] | None] = {}
    for t_ms, text in timed:
        if text not in labels:
            result = classify(text, lex)
            labels[text] = None if result is None else (
                result.evidence, read_statement(result.evidence)
            )
        labeled = labels[text]
        if labeled is None:
            warnings.append(
                f"segment at {format_iso8601_ms(t_ms)} has no classifiable "
                f"text ({text!r}); dropped"
            )
            continue
        geo = interpolate_position(track, t_ms)
        if geo is None:
            warnings.append(
                f"segment at {format_iso8601_ms(t_ms)} is outside the track "
                f"span (tolerance {TOLERANCE_MS} ms); dropped"
            )
            continue
        event_id = len(events)
        heading = heading_at(track, t_ms)
        if heading is None:
            notes.append(f"event {event_id}: heading undefined: track is degenerate here")
        frame = None if video is None else frame_index_at(video, t_ms)
        if video is not None and frame is None:
            notes.append(f"event {event_id}: no video frame at {format_iso8601_ms(t_ms)}")
        events.append(
            InstructionEvent(event_id, t_ms, text, *labeled, geo, heading, frame)
        )
    if not events:
        raise NoUsableEvents(
            "no transcript segment could be placed on the track timeline"
        )
    return events, warnings + notes

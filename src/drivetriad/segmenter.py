"""Derivation of action windows: what the vehicle did after each instruction.

Every instruction event opens a window that runs to the next event (the
last one runs to the end of the track). The track slice inside that window
— interpolated boundary points plus the raw points strictly between them —
is summarized as a maneuver: the net signed bearing change over the slice,
bucketed into Straight / LeftTurn / RightTurn / UTurn.

Two consistency checks write each contradiction as its own mismatches.txt
line: the stated turn side against the observed maneuver, and the stated
cardinal against the bearing the track profile holds after the cue.
Reports only; labels are never auto-corrected, because a disagreement is
exactly the data-quality signal worth surfacing.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import (
    PROFILE_STEP_M,
    TURN_STEP_DEG,
    TURN_TOTAL_DEG,
    GeoPoint,
    TrackLog,
    TrackProfile,
    haversine_distance,
    initial_bearing,
    interpolate_position,
    signed_bearing_delta,
)
from .errors import InternalOrderingError, NoUsableEvents
from .ingest import VideoIndex
from .sync import InstructionEvent, frame_index_at

if TYPE_CHECKING:
    from .emitter import VlaTriad

# The maneuver rule, the same for every drive. The manifest's config digest
# records it as MANEUVER_RULE, so a change to the rule changes the digest.
JITTER_FLOOR_M = 1.0
STRAIGHT_THRESHOLD_DEG = 30.0
UTURN_THRESHOLD_DEG = 150.0
MANEUVER_RULE = {
    "jitter_floor_m": JITTER_FLOOR_M,
    "straight_threshold_deg": STRAIGHT_THRESHOLD_DEG,
    "uturn_threshold_deg": UTURN_THRESHOLD_DEG,
}
# The track profile's rule (core.track_profile) and the cardinal check's,
# recorded beside it.
CARDINAL_TOLERANCE_DEG = 45.0
PROFILE_RULE = {
    "profile_step_m": PROFILE_STEP_M,
    "turn_step_deg": TURN_STEP_DEG,
    "turn_total_deg": TURN_TOTAL_DEG,
    "cardinal_tolerance_deg": CARDINAL_TOLERANCE_DEG,
}


class Maneuver(enum.Enum):
    """Coarse motion label derived from net bearing change."""

    STRAIGHT = "Straight"
    LEFT_TURN = "LeftTurn"
    RIGHT_TURN = "RightTurn"
    UTURN = "UTurn"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ActionSegment:
    """The trajectory window owned by one instruction event.

    ``net_bearing_change_deg`` is 0.0 when the maneuver is Unknown (too
    little usable motion to measure anything).
    """

    event_id: int
    t_start_ms: int
    t_end_ms: int
    waypoints: tuple[GeoPoint, ...]
    net_bearing_change_deg: float
    distance_m: float
    maneuver: Maneuver
    frame_start: int | None
    frame_end: int | None


def _step_lengths(waypoints: Sequence[GeoPoint]) -> list[float]:
    """The haversine length of each step of the polyline, in order."""
    return [haversine_distance(a, b) for a, b in zip(waypoints, waypoints[1:])]


def net_bearing_change(waypoints: Sequence[GeoPoint], steps: Sequence[float]) -> float | None:
    """Sum of signed heading deltas along the polyline, in degrees.

    Steps shorter than the jitter floor are folded into their successor so
    GPS noise while stopped does not masquerade as motion. Positive means
    net clockwise (a right turn). None when fewer than three points survive
    the floor, an empty polyline included. The deltas are added left to
    right, so the total does not depend on how the Python version sums.

    ``steps`` are the haversine lengths of the polyline's steps in order,
    as ``_step_lengths`` measures them. A point whose predecessor was kept
    is measured from it by its step; only a point after a folded one
    needs a haversine of its own.
    """
    kept = list(waypoints[:1])
    previous_kept = True
    for point, step in zip(waypoints[1:], steps):
        gap = step if previous_kept else haversine_distance(kept[-1], point)
        previous_kept = gap >= JITTER_FLOOR_M
        if previous_kept:
            kept.append(point)
    if len(kept) < 3:
        return None
    # Kept points lie at least the jitter floor apart, so each has a bearing.
    bearings = [initial_bearing(a, b) for a, b in zip(kept, kept[1:])]
    total = 0.0
    for before, after in zip(bearings, bearings[1:]):
        total += signed_bearing_delta(before, after)
    return total


def classify_maneuver(net_change_deg: float | None) -> Maneuver:
    """Bucket a net bearing change into a maneuver label; a change that
    could not be measured (None) is Unknown."""
    if net_change_deg is None:
        return Maneuver.UNKNOWN
    magnitude = abs(net_change_deg)
    if magnitude >= UTURN_THRESHOLD_DEG:
        return Maneuver.UTURN
    if magnitude < STRAIGHT_THRESHOLD_DEG:
        return Maneuver.STRAIGHT
    return Maneuver.RIGHT_TURN if net_change_deg > 0 else Maneuver.LEFT_TURN


def segment_actions(
    events: Sequence[InstructionEvent],
    track: TrackLog,
    video: VideoIndex | None = None,
) -> tuple[list[ActionSegment], list[str]]:
    """Build one action segment per event window, plus warnings.

    ``track`` and ``video`` must be on the events' clock (already shifted).

    Windows are clamped to the track's time span; a window that collapses
    to nothing after clamping produces a warning instead of a segment, so
    consecutive surviving segments still abut exactly.

    A window the video wholly covers gets the frames of its two ends as
    ``frame_index_at`` gives them. Any other window gets no frame range
    and one ``event N:`` warning saying how much of it the video covers.

    A window's interior (the fixes strictly inside it) is a slice found by
    bisecting the track's cached times, O(log N) per window. Windows do not
    overlap, so a run over N fixes and E events is O(N + E log N).
    """
    if not events:
        raise NoUsableEvents("no instruction events to segment")
    for previous, current in zip(events, events[1:]):
        if current.t_ms < previous.t_ms:
            raise InternalOrderingError(
                f"events {previous.id} and {current.id} are out of time order"
            )
    times = track.times
    # Window i runs from bounds[i] to bounds[i + 1]: each event's instant
    # clamped into the track span, then the track's end. Each bound's point
    # and frame (None where the video has no frame) serve the windows on
    # both sides of it.
    bounds = [min(max(e.t_ms, track.start_ms), track.end_ms) for e in events]
    bounds.append(track.end_ms)
    points = [interpolate_position(track, t) for t in bounds]
    frames = [None] * len(bounds)
    if video is not None:
        frames = [frame_index_at(video, t) for t in bounds]

    segments: list[ActionSegment] = []
    warnings: list[str] = []
    for i, event in enumerate(events):
        t_start, t_end = bounds[i], bounds[i + 1]
        if t_start >= t_end:
            warnings.append(
                f"event {event.id}: action window is empty after clamping to "
                f"the track span; no segment emitted"
            )
            continue
        interior = track.points[
            bisect_right(times, t_start):bisect_left(times, t_end)
        ]
        waypoints = (points[i], *interior, points[i + 1])
        steps = _step_lengths(waypoints)
        # Added left to right, as for the bearing change.
        distance = 0.0
        for step in steps:
            distance += step
        net_change = net_bearing_change(waypoints, steps)
        maneuver = classify_maneuver(net_change)
        if net_change is None:
            net_change = 0.0
            warnings.append(
                f"event {event.id}: too little usable motion in the window "
                f"to classify a maneuver"
            )
        frame_start, frame_end = frames[i], frames[i + 1]
        if video is not None and (frame_start is None or frame_end is None):
            warnings.append(_uncovered_note(event.id, video, t_start, t_end, frame_end))
            frame_start = frame_end = None
        segments.append(
            ActionSegment(
                event_id=event.id,
                t_start_ms=t_start,
                t_end_ms=t_end,
                waypoints=waypoints,
                net_bearing_change_deg=net_change,
                distance_m=distance,
                maneuver=maneuver,
                frame_start=frame_start,
                frame_end=frame_end,
            )
        )
    return segments, warnings


def _uncovered_note(
    event_id: int, video: VideoIndex, t_start: int, t_end: int, frame_end: int | None
) -> str:
    """The warning of a window the video does not wholly cover: the stretch
    of it that has frames, in seconds from the window's start, as an
    interval that holds the window's end exactly when ``frame_end``, the
    end's frame, exists."""
    first = max(video.start_ms - t_start, 0)
    if frame_end is not None:
        last, close = t_end - t_start, "]"
    else:
        video_end = video.start_ms + video.frame_count * 1000 / video.fps
        last, close = min(t_end, video_end) - t_start, ")"
    covered = "none"
    if last > first:
        covered = f"[{first / 1000:.3f} s, {last / 1000:.3f} s{close}"
    return (
        f"event {event_id}: no frame range: the video covers {covered} of this "
        f"{(t_end - t_start) / 1000:.3f} s action window"
    )


_OBSERVED_SIDE = {
    Maneuver.LEFT_TURN: "left",
    Maneuver.RIGHT_TURN: "right",
}


def consistency_check(event: InstructionEvent, segment: ActionSegment) -> str | None:
    """The mismatches.txt line of an event whose stated turn side opposes
    the driven one, such as "event 3: stated left, observed right".

    Fires only when the event's statement has a side (its Turn evidence
    holds exactly one of the tokens left and right) and the maneuver is the
    opposite turn; Straight, UTurn, Unknown and ambiguous texts never
    mismatch.
    """
    stated = event.statement.side
    observed = _OBSERVED_SIDE.get(segment.maneuver)
    if stated is None or observed is None or stated == observed:
        return None
    return f"event {event.id}: stated {stated}, observed {observed}"


_CARDINAL_BEARING = {"North": 0.0, "East": 90.0, "South": 180.0, "West": 270.0}


def cardinal_check(
    event: InstructionEvent, segment: ActionSegment, profile: TrackProfile
) -> tuple[str | None, str | None]:
    """(mismatches.txt line, warning) of an event's stated cardinal.

    The observed bearing is the profile's after the first turn located
    between the cue and the end of its window, else at the cue. It
    mismatches, as "event 3: stated North, observed bearing 268.0", when
    it lies more than CARDINAL_TOLERANCE_DEG from the stated cardinal. An
    event that states no cardinal gives neither; one where no kept step
    follows the cue gives an ``event N:`` warning.
    """
    stated = event.statement.cardinal
    if stated is None:
        return None, None
    observed = profile.exit_bearing(event.t_ms, segment.t_end_ms)
    if observed is None:
        return None, (
            f"event {event.id}: stated {stated} unchecked: the track profile "
            f"has no step after the cue"
        )
    if abs(signed_bearing_delta(_CARDINAL_BEARING[stated], observed)) <= CARDINAL_TOLERANCE_DEG:
        return None, None
    # Rounded first, so that 359.97 reads 0.0 and not 360.0.
    observed = round(observed, 1) % 360.0
    return f"event {event.id}: stated {stated}, observed bearing {observed:.1f}", None


def collect_mismatches(
    triads: Iterable[VlaTriad], profile: TrackProfile
) -> tuple[list[str], list[str]]:
    """The two checks' lines over every triad, in triad order, each
    event's side line before its cardinal line; and the cardinal check's
    warnings."""
    lines: list[str] = []
    warnings: list[str] = []
    for triad in triads:
        side = consistency_check(triad.event, triad.action)
        cardinal, warning = cardinal_check(triad.event, triad.action, profile)
        lines += [line for line in (side, cardinal) if line is not None]
        if warning is not None:
            warnings.append(warning)
    return lines, warnings

"""Synthetic drives with known ground truth, for end-to-end testing.

A route plan is a list of straight legs joined by exact planted turns
(±90° or 180°). The route is laid out on a local tangent plane at the
origin, sampled at constant speed, optionally jittered with seeded
Gaussian noise, and converted to latitude/longitude. Instructions are
phrased from style-specific templates whose class sets are known by
construction, and a final arrival announcement closes the transcript.

Because the templates, road names, and timing are all derived from the
plan (never from the noisy track), the ground truth is exact: the text
stream's RNG and the noise RNG are separate seeded streams, so adding
noise changes the geometry but not one byte of the expected labels.

The writers emit the same GPX / segment-json / video sidecar formats the
ingest module reads, which makes the generator double as the ingest
round-trip oracle.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .classifier import CommandClass
from .core import (
    EARTH_RADIUS_M,
    GeoPoint,
    TrackLog,
    check_fields,
    format_iso8601_ms,
    normalize_bearing,
    parse_float,
)
from .emitter import json_document, output_dir, write_text
from .ingest import Transcript, TranscriptSegment
from .segmenter import Maneuver

STYLES = ("distance-heavy", "static-object-heavy", "cardinal-heavy")

_BASE_UTC_MS = 1_717_243_200_000  # 2024-06-01T12:00:00Z
DEFAULT_ORIGIN = GeoPoint(40.0, -105.0, _BASE_UTC_MS)
DEFAULT_LEAD_M = 150.0
DEFAULT_LEGS = "600R,500L,700R,400"
DEFAULT_STYLE = "distance-heavy"
MAX_SAMPLES = 1_000_000
_SPEECH_SECONDS = 2.0
_VIDEO_FPS = 30.0
_FOOT_M = 0.3048

_ROAD_BANK = (
    "Oak Street",
    "Maple Avenue",
    "Cedar Road",
    "Lake Drive",
    "Sunset Boulevard",
    "Harbor Way",
    "Granite Court",
    "Willow Place",
)
_PLACE_BANK = (
    "Pinewood Market",
    "Mesa Coffee",
    "Riverside Bakery",
    "Summit Deli",
)

_TURN_DELTAS = {
    Maneuver.RIGHT_TURN: 90.0,
    Maneuver.LEFT_TURN: -90.0,
    Maneuver.UTURN: 180.0,
    Maneuver.STRAIGHT: 0.0,
}


@dataclass(frozen=True)
class Leg:
    """A straight stretch, optionally ending in a planted turn."""

    length_m: float
    maneuver_after: Maneuver | None = None

    def __post_init__(self) -> None:
        # One comparison rejects zero, negatives, NaN and the infinities.
        if not 0 < self.length_m <= sys.float_info.max:
            raise ValueError(f"leg length must be finite and > 0, got {self.length_m}")
        if self.maneuver_after is Maneuver.UNKNOWN:
            raise ValueError("a plan cannot plant an Unknown maneuver")


@dataclass(frozen=True)
class RoutePlan:
    """Everything needed to generate one synthetic drive deterministically."""

    legs: tuple[Leg, ...]
    origin: GeoPoint = DEFAULT_ORIGIN
    speed_mps: float = 15.0
    sample_hz: float = 1.0
    noise_sigma_m: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.legs:
            raise ValueError("a plan needs at least one leg")
        check_fields(self)
        if self.speed_mps <= 0:
            raise ValueError(f"speed_mps must be positive, got {self.speed_mps}")
        if not 0 < self.sample_hz <= 100:
            raise ValueError(f"sample_hz must be in (0, 100], got {self.sample_hz}")
        if self.noise_sigma_m < 0:
            raise ValueError(f"noise_sigma_m must be >= 0, got {self.noise_sigma_m}")
        # generate_route takes floor(steps) + 1 samples; an overflowed sum
        # of leg lengths reads inf here.
        steps = sum(leg.length_m for leg in self.legs) / self.speed_mps * self.sample_hz
        if not steps < MAX_SAMPLES:
            count = math.floor(steps) + 1 if math.isfinite(steps) else steps
            raise ValueError(
                f"the route needs {count} GPS samples, more than {MAX_SAMPLES:,}"
            )


def parse_legs(text: str) -> tuple[Leg, ...]:
    """Parse the compact legs notation: "400R,300L,500U,250".

    Each element is a length in meters with an optional turn suffix
    (R/L/U) planted at the end of that leg.
    """
    if not isinstance(text, str):
        raise ValueError(f"legs must be a string like \"400R,250\", got {text!r}")
    suffix_map = {
        "R": Maneuver.RIGHT_TURN,
        "L": Maneuver.LEFT_TURN,
        "U": Maneuver.UTURN,
    }
    legs = []
    for raw in text.split(","):
        item = raw.strip()
        if not item:
            raise ValueError(f"empty leg in {text!r}")
        maneuver = None
        if item[-1].upper() in suffix_map:
            maneuver = suffix_map[item[-1].upper()]
            item = item[:-1]
        try:
            length = parse_float(item)
        except ValueError:
            raise ValueError(f"bad leg length {raw.strip()!r}") from None
        legs.append(Leg(length, maneuver))
    return tuple(legs)


@dataclass(frozen=True)
class PlantedTurn:
    """A planted turn: its distance along the planned route, and the time
    the drive reaches it, in seconds from the audio start."""

    along_m: float
    t_s: float


@dataclass(frozen=True)
class GroundTruthEntry:
    """One instruction with its known-correct class set, and what the plan
    says of it: where along the route it is spoken, the leg heading there,
    the turn it announces (None for the arrival), the distance in metres
    and the cardinal its text states (None where it states none), and the
    planned length of its window, which runs to the next cue or, for the
    last, to the track's end."""

    start_s: float
    end_s: float
    text: str
    classes: frozenset[CommandClass]
    along_m: float
    heading_deg: float
    turn: PlantedTurn | None
    stated_m: float | None
    stated_cardinal: str | None
    window_m: float


@dataclass(frozen=True)
class GroundTruth:
    """What the pipeline is expected to recover from a synthetic corpus.

    expected_maneuvers aligns 1:1 with the action segments the pipeline
    derives: one per turn cue, plus a final Straight for the arrival
    announcement's run-out to the track end.
    """

    style: str
    seed: int
    audio_start_ms: int
    instructions: tuple[GroundTruthEntry, ...]
    expected_maneuvers: tuple[Maneuver, ...]


@dataclass(frozen=True)
class StyledCorpus:
    """A generated drive: track, transcript, and its ground truth."""

    track: TrackLog
    transcript: Transcript
    ground_truth: GroundTruth


# --- geometry ---------------------------------------------------------------


def _layout(plan: RoutePlan) -> tuple[list[tuple[float, float]], list[float], list[float]]:
    """Vertices (x east, y north), per-leg headings, cumulative distances."""
    vertices = [(0.0, 0.0)]
    headings = []
    cumulative = [0.0]
    heading = 0.0
    for leg in plan.legs:
        headings.append(heading)
        x, y = vertices[-1]
        rad = math.radians(heading)
        vertices.append(
            (x + leg.length_m * math.sin(rad), y + leg.length_m * math.cos(rad))
        )
        cumulative.append(cumulative[-1] + leg.length_m)
        turn = _TURN_DELTAS[leg.maneuver_after] if leg.maneuver_after else 0.0
        heading = normalize_bearing(heading + turn)
    return vertices, headings, cumulative


def generate_route(plan: RoutePlan) -> TrackLog:
    """Sample the planned polyline at constant speed; seed-deterministic.

    Each leg's heading sine and cosine and the origin's longitude scale
    are worked out once. The distance along the route never decreases
    from one sample to the next, so the current leg only moves forward.
    """
    vertices, headings, cumulative = _layout(plan)
    legs = [
        (start, x, y, math.sin(rad), math.cos(rad))
        for start, (x, y), rad in zip(cumulative, vertices, map(math.radians, headings))
    ]
    last_leg = len(legs) - 1
    speed, hz = plan.speed_mps, plan.sample_hz
    samples = math.floor(cumulative[-1] / speed * hz + 1e-9)
    gauss, sigma = random.Random(f"{plan.seed}:noise").gauss, plan.noise_sigma_m
    lat0, lon0, t0_ms = plan.origin.lat_deg, plan.origin.lon_deg, plan.origin.t_ms
    lon_scale = EARTH_RADIUS_M * math.cos(math.radians(lat0))
    degrees = math.degrees
    leg = 0
    leg_start, x0, y0, sin_h, cos_h = legs[0]
    points = []
    for k in range(samples + 1):
        t_s = k / hz
        distance = speed * t_s
        while leg < last_leg and cumulative[leg + 1] <= distance:
            leg += 1
            leg_start, x0, y0, sin_h, cos_h = legs[leg]
        along = distance - leg_start
        x = x0 + along * sin_h + gauss(0.0, sigma)
        y = y0 + along * cos_h + gauss(0.0, sigma)
        points.append(
            GeoPoint(
                lat0 + degrees(y / EARTH_RADIUS_M),
                lon0 + degrees(x / lon_scale),
                t0_ms + round(t_s * 1000),
            )
        )
    return TrackLog(tuple(points))


# --- instruction synthesis --------------------------------------------------


_CARDINAL_NAMES = ("North", "East", "South", "West")


def _cardinal_for(heading_deg: float) -> str:
    index = round(normalize_bearing(heading_deg) / 90.0) % 4
    return _CARDINAL_NAMES[index]


# Each style's turn cue and U-turn cue: its template, the template with a
# distance lead where the style has one, and the template's classes (the
# lead adds Distance).
_CUES = {
    ("distance-heavy", False): (
        "Turn {word} onto {road}.",
        "In {feet} feet turn {word} onto {road}.",
        frozenset({CommandClass.TURN, CommandClass.ROAD}),
    ),
    ("distance-heavy", True): (
        "Make a U-turn.",
        "In {feet} feet make a U-turn.",
        frozenset({CommandClass.TURN}),
    ),
    ("static-object-heavy", False): (
        "At the stop sign turn {word} onto {road}.",
        None,
        frozenset({CommandClass.STATIC_OBJECT, CommandClass.TURN, CommandClass.ROAD}),
    ),
    ("static-object-heavy", True): (
        "At the light make a U-turn.",
        None,
        frozenset({CommandClass.STATIC_OBJECT, CommandClass.TURN}),
    ),
    ("cardinal-heavy", False): (
        "Turn {word} and head {cardinal} on {road}.",
        None,
        frozenset({CommandClass.TURN, CommandClass.CARDINAL, CommandClass.ROAD}),
    ),
    ("cardinal-heavy", True): (
        "Make a U-turn and head {cardinal}.",
        None,
        frozenset({CommandClass.TURN, CommandClass.CARDINAL}),
    ),
}


def generate_instructions(plan: RoutePlan, style: str) -> StyledCorpus:
    """Generate the full corpus: route, styled transcript, ground truth.

    One cue is spoken a fixed lead distance (150 m) before each planted
    turn; when the leg is shorter than the lead, the cue moves to the
    leg's midpoint and drops its distance phrase. The transcript closes
    with an arrival announcement over the final straight run-out.

    A plan whose cues the pipeline could not read back one event per cue
    raises ValueError naming the cue: one that starts outside the track,
    or before the previous cue's segment ends (ingest merges the two).
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r} (expected one of {STYLES})")
    track = generate_route(plan)
    _, headings, cumulative = _layout(plan)
    text_rng = random.Random(f"{plan.seed}:text")

    speed = plan.speed_mps
    # Each cue's GroundTruthEntry fields but its end and its window.
    cues: list[dict] = []
    expected: list[Maneuver] = []
    for i, leg in enumerate(plan.legs):
        maneuver = leg.maneuver_after
        if maneuver is None or maneuver is Maneuver.STRAIGHT:
            continue
        template, lead_template, classes = _CUES[style, maneuver is Maneuver.UTURN]
        with_distance = DEFAULT_LEAD_M < leg.length_m
        if with_distance:
            cue_at_m = cumulative[i + 1] - DEFAULT_LEAD_M
            if lead_template:
                template, classes = lead_template, classes | {CommandClass.DISTANCE}
        else:
            cue_at_m = cumulative[i + 1] - leg.length_m / 2.0
        heading_after = headings[i + 1] if i + 1 < len(headings) else headings[i]
        feet = round(DEFAULT_LEAD_M * 3.28084)
        cardinal = _cardinal_for(heading_after)
        text = template.format(
            word="left" if maneuver is Maneuver.LEFT_TURN else "right",
            road=text_rng.choice(_ROAD_BANK),
            cardinal=cardinal,
            feet=feet,
        )
        cues.append({
            "start_s": cue_at_m / speed,
            "text": text,
            "classes": classes,
            "along_m": cue_at_m,
            "heading_deg": headings[i],
            "turn": PlantedTurn(cumulative[i + 1], cumulative[i + 1] / speed),
            "stated_m": feet * _FOOT_M if CommandClass.DISTANCE in classes else None,
            "stated_cardinal": cardinal if CommandClass.CARDINAL in classes else None,
        })
        expected.append(maneuver)

    place = text_rng.choice(_PLACE_BANK)
    track_end_s = (track.end_ms - plan.origin.t_ms) / 1000.0
    arrival_s = track_end_s - max(5.0, 5.0 / plan.sample_hz)
    if cues:
        arrival_s = max(arrival_s, cues[-1]["start_s"] + _SPEECH_SECONDS + 0.5)
    arrival_s = min(arrival_s, track_end_s - 0.5)
    # The leg the route is on there, as generate_route walks the legs.
    arrival_leg = min(bisect_right(cumulative, arrival_s * speed), len(headings)) - 1
    cues.append({
        "start_s": arrival_s,
        "text": f"Arrived at {place}.",
        "classes": frozenset({CommandClass.LOCATION_NAME}),
        "along_m": arrival_s * speed,
        "heading_deg": headings[arrival_leg],
        "turn": None,
        "stated_m": None,
        "stated_cardinal": None,
    })
    expected.append(Maneuver.STRAIGHT)

    entries = []
    for cue, after in zip(cues, [*cues[1:], None]):
        start_s, text = cue["start_s"], cue["text"]
        if not 0 <= start_s <= track_end_s:
            raise ValueError(
                f"cue {text!r} at {start_s:g} s lies outside the track "
                f"(0 to {track_end_s:g} s)"
            )
        if entries and start_s < entries[-1].end_s:
            raise ValueError(
                f"cue {text!r} at {start_s:g} s starts before the previous "
                f"cue ends ({entries[-1].end_s:g} s)"
            )
        end_s = start_s + _SPEECH_SECONDS
        window_end_m = track_end_s * speed
        if after is not None:
            end_s = min(end_s, after["start_s"] - 0.1)
            window_end_m = after["along_m"]
        end_s = max(end_s, start_s + 0.2)
        entries.append(
            GroundTruthEntry(end_s=end_s, window_m=window_end_m - cue["along_m"], **cue)
        )

    ground_truth = GroundTruth(
        style=style,
        seed=plan.seed,
        audio_start_ms=plan.origin.t_ms,
        instructions=tuple(entries),
        expected_maneuvers=tuple(expected),
    )
    transcript = Transcript(
        tuple(TranscriptSegment(e.start_s, e.end_s, e.text) for e in entries),
        audio_start_ms=plan.origin.t_ms,
    )
    return StyledCorpus(track, transcript, ground_truth)


# --- writers (the formats ingest reads) -------------------------------------


def write_gpx(track: TrackLog, name: str) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<gpx version="1.1" creator="drivetriad-synth" '
        'xmlns="http://www.topografix.com/GPX/1/1">',
        "  <trk>",
        f"    <name>{name}</name>",
        "    <trkseg>",
    ]
    for point in track.points:
        lines.append(
            f'      <trkpt lat="{point.lat_deg!r}" lon="{point.lon_deg!r}">'
            f"<time>{format_iso8601_ms(point.t_ms)}</time></trkpt>"
        )
    lines += ["    </trkseg>", "  </trk>", "</gpx>", ""]
    return "\n".join(lines)


def write_transcript_json(corpus: StyledCorpus) -> str:
    document = {
        "audio_start_utc": format_iso8601_ms(corpus.ground_truth.audio_start_ms),
        "segments": [
            {"start": s.start_s, "end": s.end_s, "text": s.text}
            for s in corpus.transcript.segments
        ],
    }
    return json_document(document)


def write_video_meta(track: TrackLog) -> str:
    duration_ms = track.end_ms - track.start_ms
    frame_count = int(duration_ms * _VIDEO_FPS) // 1000 + 1
    document = {
        "start_time": format_iso8601_ms(track.start_ms),
        "fps": _VIDEO_FPS,
        "frame_count": frame_count,
    }
    return json_document(document)


def write_ground_truth(ground_truth: GroundTruth) -> str:
    document = {
        "style": ground_truth.style,
        "seed": ground_truth.seed,
        "audio_start_utc_ms": ground_truth.audio_start_ms,
        "instructions": [
            {
                "start_s": entry.start_s,
                "end_s": entry.end_s,
                "text": entry.text,
                "classes": sorted(c.value for c in entry.classes),
            }
            for entry in ground_truth.instructions
        ],
        "expected_maneuvers": [m.value for m in ground_truth.expected_maneuvers],
    }
    return json_document(document)


def write_corpus(corpus: StyledCorpus, out_dir: Path | str) -> dict[str, Path]:
    """Write the four corpus files; byte-identical for identical plans.

    A failed write raises IoError naming the file and removes the files
    written before it.
    """
    files = {
        "track.gpx": write_gpx(corpus.track, f"synth-{corpus.ground_truth.seed}"),
        "transcript.json": write_transcript_json(corpus),
        "video_meta.json": write_video_meta(corpus.track),
        "ground_truth.json": write_ground_truth(corpus.ground_truth),
    }
    with output_dir(out_dir) as out:
        return {name: write_text(out / name, text) for name, text in files.items()}

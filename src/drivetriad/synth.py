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

import json
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
)
from .errors import IoError
from .ingest import Transcript, TranscriptSegment
from .segmenter import Maneuver

STYLES = ("distance-heavy", "static-object-heavy", "cardinal-heavy")

_BASE_UTC_MS = 1_717_243_200_000  # 2024-06-01T12:00:00Z
DEFAULT_ORIGIN = GeoPoint(40.0, -105.0, _BASE_UTC_MS)
DEFAULT_LEAD_M = 150.0
DEFAULT_LEGS = "600R,500L,700R,400"
MAX_SAMPLES = 1_000_000
_SPEECH_SECONDS = 2.0
_VIDEO_FPS = 30.0

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
    initial_bearing_deg: float = 0.0

    def __post_init__(self) -> None:
        if not self.legs:
            raise ValueError("a plan needs at least one leg")
        check_fields(self)
        if self.speed_mps <= 0:
            raise ValueError(f"speed must be positive, got {self.speed_mps}")
        if not 0 < self.sample_hz <= 100:
            raise ValueError(
                f"sample rate must be in (0, 100] Hz, got {self.sample_hz}"
            )
        if self.noise_sigma_m < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma_m}")
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
            length = float(item)
        except ValueError:
            raise ValueError(f"bad leg length {raw.strip()!r}") from None
        legs.append(Leg(length, maneuver))
    return tuple(legs)


@dataclass(frozen=True)
class GroundTruthEntry:
    """One instruction with its known-correct class set."""

    start_s: float
    end_s: float
    text: str
    classes: frozenset[CommandClass]


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
    style: str


# --- geometry ---------------------------------------------------------------


def _layout(plan: RoutePlan) -> tuple[list[tuple[float, float]], list[float], list[float]]:
    """Vertices (x east, y north), per-leg headings, cumulative distances."""
    vertices = [(0.0, 0.0)]
    headings = []
    cumulative = [0.0]
    heading = normalize_bearing(plan.initial_bearing_deg)
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


def _point_at(
    distance: float,
    vertices: list[tuple[float, float]],
    headings: list[float],
    cumulative: list[float],
) -> tuple[float, float]:
    leg_index = min(bisect_right(cumulative, distance), len(headings)) - 1
    leg_index = max(leg_index, 0)
    along = distance - cumulative[leg_index]
    x, y = vertices[leg_index]
    rad = math.radians(headings[leg_index])
    return x + along * math.sin(rad), y + along * math.cos(rad)


def _to_geo(plan: RoutePlan, x: float, y: float, t_ms: int) -> GeoPoint:
    lat0 = math.radians(plan.origin.lat_deg)
    lat = plan.origin.lat_deg + math.degrees(y / EARTH_RADIUS_M)
    lon = plan.origin.lon_deg + math.degrees(x / (EARTH_RADIUS_M * math.cos(lat0)))
    return GeoPoint(lat, lon, t_ms)


def generate_route(plan: RoutePlan) -> TrackLog:
    """Sample the planned polyline at constant speed; seed-deterministic."""
    vertices, headings, cumulative = _layout(plan)
    total_m = cumulative[-1]
    duration_s = total_m / plan.speed_mps
    samples = math.floor(duration_s * plan.sample_hz + 1e-9)
    noise = random.Random(f"{plan.seed}:noise")
    points = []
    for k in range(samples + 1):
        t_s = k / plan.sample_hz
        x, y = _point_at(plan.speed_mps * t_s, vertices, headings, cumulative)
        x += noise.gauss(0.0, plan.noise_sigma_m)
        y += noise.gauss(0.0, plan.noise_sigma_m)
        t_ms = plan.origin.t_ms + round(t_s * 1000)
        points.append(_to_geo(plan, x, y, t_ms))
    return TrackLog(tuple(points), source_id=f"synth-{plan.seed}")


# --- instruction synthesis --------------------------------------------------


_CARDINAL_NAMES = ("North", "East", "South", "West")


def _cardinal_for(heading_deg: float) -> str:
    index = round(normalize_bearing(heading_deg) / 90.0) % 4
    return _CARDINAL_NAMES[index]


def _turn_word(maneuver: Maneuver) -> str:
    return "left" if maneuver is Maneuver.LEFT_TURN else "right"


def _cue(
    style: str,
    maneuver: Maneuver,
    road: str,
    cardinal: str,
    lead_feet: int,
    with_distance: bool,
) -> tuple[str, frozenset[CommandClass]]:
    """Phrase one turn cue and return it with its ground-truth classes."""
    C = CommandClass
    if style == "distance-heavy":
        if maneuver is Maneuver.UTURN:
            if with_distance:
                return (
                    f"In {lead_feet} feet make a U-turn.",
                    frozenset({C.DISTANCE, C.TURN}),
                )
            return "Make a U-turn.", frozenset({C.TURN})
        word = _turn_word(maneuver)
        if with_distance:
            return (
                f"In {lead_feet} feet turn {word} onto {road}.",
                frozenset({C.DISTANCE, C.TURN, C.ROAD}),
            )
        return f"Turn {word} onto {road}.", frozenset({C.TURN, C.ROAD})
    if style == "static-object-heavy":
        if maneuver is Maneuver.UTURN:
            return (
                "At the light make a U-turn.",
                frozenset({C.STATIC_OBJECT, C.TURN}),
            )
        word = _turn_word(maneuver)
        return (
            f"At the stop sign turn {word} onto {road}.",
            frozenset({C.STATIC_OBJECT, C.TURN, C.ROAD}),
        )
    if style == "cardinal-heavy":
        if maneuver is Maneuver.UTURN:
            return (
                f"Make a U-turn and head {cardinal}.",
                frozenset({C.TURN, C.CARDINAL}),
            )
        word = _turn_word(maneuver)
        return (
            f"Turn {word} and head {cardinal} on {road}.",
            frozenset({C.TURN, C.CARDINAL, C.ROAD}),
        )
    raise ValueError(f"unknown style {style!r} (expected one of {STYLES})")


def generate_instructions(plan: RoutePlan, style: str) -> StyledCorpus:
    """Generate the full corpus: route, styled transcript, ground truth.

    One cue is spoken a fixed lead distance (150 m) before each planted
    turn; when the leg is shorter than the lead, the cue moves to the
    leg's midpoint and drops its distance phrase. The transcript closes
    with an arrival announcement over the final straight run-out.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r} (expected one of {STYLES})")
    track = generate_route(plan)
    _, headings, cumulative = _layout(plan)
    text_rng = random.Random(f"{plan.seed}:text")

    cues: list[tuple[float, str, frozenset[CommandClass]]] = []
    expected: list[Maneuver] = []
    for i, leg in enumerate(plan.legs):
        maneuver = leg.maneuver_after
        if maneuver is None or maneuver is Maneuver.STRAIGHT:
            continue
        turn_at_m = cumulative[i + 1]
        with_distance = DEFAULT_LEAD_M < leg.length_m
        if with_distance:
            cue_at_m = turn_at_m - DEFAULT_LEAD_M
            lead_feet = round(DEFAULT_LEAD_M * 3.28084)
        else:
            cue_at_m = turn_at_m - leg.length_m / 2.0
            lead_feet = 0
        road = text_rng.choice(_ROAD_BANK)
        heading_after = headings[i + 1] if i + 1 < len(headings) else headings[i]
        text, classes = _cue(
            style,
            maneuver,
            road,
            _cardinal_for(heading_after),
            lead_feet,
            with_distance,
        )
        cues.append((cue_at_m / plan.speed_mps, text, classes))
        expected.append(maneuver)

    place = text_rng.choice(_PLACE_BANK)
    track_end_s = (track.end_ms - plan.origin.t_ms) / 1000.0
    arrival_s = track_end_s - max(5.0, 5.0 / plan.sample_hz)
    if cues:
        arrival_s = max(arrival_s, cues[-1][0] + _SPEECH_SECONDS + 0.5)
    arrival_s = min(arrival_s, track_end_s - 0.5)
    cues.append(
        (arrival_s, f"Arrived at {place}.", frozenset({CommandClass.LOCATION_NAME}))
    )
    expected.append(Maneuver.STRAIGHT)

    entries = []
    segments = []
    for j, (start_s, text, classes) in enumerate(cues):
        end_s = start_s + _SPEECH_SECONDS
        if j + 1 < len(cues):
            end_s = min(end_s, cues[j + 1][0] - 0.1)
        end_s = max(end_s, start_s + 0.2)
        entries.append(GroundTruthEntry(start_s, end_s, text, classes))
        segments.append(TranscriptSegment(start_s, end_s, text))

    ground_truth = GroundTruth(
        style=style,
        seed=plan.seed,
        audio_start_ms=plan.origin.t_ms,
        instructions=tuple(entries),
        expected_maneuvers=tuple(expected),
    )
    transcript = Transcript(tuple(segments), audio_start_ms=plan.origin.t_ms)
    return StyledCorpus(track, transcript, ground_truth, style)


# --- writers (the formats ingest reads) -------------------------------------


def write_gpx(track: TrackLog) -> bytes:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<gpx version="1.1" creator="drivetriad-synth" '
        'xmlns="http://www.topografix.com/GPX/1/1">',
        "  <trk>",
        f"    <name>{track.source_id}</name>",
        "    <trkseg>",
    ]
    for point in track.points:
        lines.append(
            f'      <trkpt lat="{point.lat_deg!r}" lon="{point.lon_deg!r}">'
            f"<time>{format_iso8601_ms(point.t_ms)}</time></trkpt>"
        )
    lines += ["    </trkseg>", "  </trk>", "</gpx>", ""]
    return "\n".join(lines).encode("utf-8")


def write_transcript_json(corpus: StyledCorpus) -> bytes:
    document = {
        "audio_start_utc": format_iso8601_ms(corpus.ground_truth.audio_start_ms),
        "segments": [
            {"start": s.start_s, "end": s.end_s, "text": s.text}
            for s in corpus.transcript.segments
        ],
    }
    return (json.dumps(document, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def write_video_meta(track: TrackLog, fps: float = _VIDEO_FPS) -> bytes:
    duration_ms = track.end_ms - track.start_ms
    frame_count = int(duration_ms * fps) // 1000 + 1
    document = {
        "start_time": format_iso8601_ms(track.start_ms),
        "fps": fps,
        "frame_count": frame_count,
    }
    return (json.dumps(document, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def write_ground_truth(ground_truth: GroundTruth) -> bytes:
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
    return (json.dumps(document, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def read_ground_truth(data: bytes) -> GroundTruth:
    document = json.loads(data.decode("utf-8"))
    entries = tuple(
        GroundTruthEntry(
            float(item["start_s"]),
            float(item["end_s"]),
            str(item["text"]),
            frozenset(CommandClass(name) for name in item["classes"]),
        )
        for item in document["instructions"]
    )
    return GroundTruth(
        style=str(document["style"]),
        seed=int(document["seed"]),
        audio_start_ms=int(document["audio_start_utc_ms"]),
        instructions=entries,
        expected_maneuvers=tuple(
            Maneuver(name) for name in document["expected_maneuvers"]
        ),
    )


def write_corpus(corpus: StyledCorpus, out_dir: Path | str) -> dict[str, Path]:
    """Write the four corpus files; byte-identical for identical plans."""
    out = Path(out_dir)
    files = {
        "track.gpx": write_gpx(corpus.track),
        "transcript.json": write_transcript_json(corpus),
        "video_meta.json": write_video_meta(corpus.track),
        "ground_truth.json": write_ground_truth(corpus.ground_truth),
    }
    written = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            target = out / name
            target.write_bytes(data)
            written[name] = target
    except OSError as exc:
        raise IoError(f"cannot write corpus to {out}: {exc}") from exc
    return written

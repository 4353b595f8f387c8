"""Core domain types, time arithmetic, and spherical geodesy.

Conventions used throughout the package:

* Timestamps are integer milliseconds since the Unix epoch, UTC. Keeping them
  integral avoids float-equality hazards when streams are compared and makes
  emitted datasets byte-reproducible.
* The Earth is a sphere of mean radius 6 371 008.8 m. Instruction-scale
  distances (meters to a few miles) do not warrant an ellipsoid.
* Bearings are compass degrees in [0, 360): 0 = north, 90 = east, clockwise
  positive.
* Positional interpolation is linear in lat/lon. Track points are seconds
  apart, so the departure from the great circle is negligible at vehicle
  speeds, and linearity makes midpoint tests exact. Between fixes on either
  side of the ±180° meridian the longitude steps the short way round.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from itertools import accumulate, groupby
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import EncodingError, InvalidAnchor, NonMonotoneTrack, ParseError

EARTH_RADIUS_M = 6_371_008.8
"""Mean Earth radius in meters (arithmetic mean of the ellipsoid axes)."""

TOLERANCE_MS = 5000
"""How far outside the track span a query may fall and still be clamped."""

# The track profile's rule, the same for every drive; the manifest's config
# digest records it through segmenter.PROFILE_RULE.
PROFILE_STEP_M = 40.0
"""A profile keeps a fix at least this far from the last fix it kept."""
TURN_STEP_DEG = 20.0
"""Each bearing change of a located turn exceeds this, all with one sign,"""
TURN_TOTAL_DEG = 45.0
"""and their total exceeds this."""

MAX_INSTANT_MS = 253_402_300_799_999
"""9999-12-31T23:59:59.999Z, the last instant format_iso8601_ms can render."""

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def parse_iso8601_ms(text: str) -> int:
    """Parse an ISO-8601 instant into epoch milliseconds (UTC).

    Accepts a trailing ``Z``, an explicit offset, or a naive value (treated
    as UTC). Raises ParseError on anything unparseable, before the epoch or
    past MAX_INSTANT_MS.
    """
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(cleaned)
    except ValueError as exc:
        raise ParseError(f"bad ISO-8601 timestamp: {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    micros = (dt - _EPOCH) // _MICROSECOND
    if micros < 0:
        raise ParseError(f"timestamp before the epoch: {text!r}")
    t_ms = (micros + 500) // 1000
    if t_ms > MAX_INSTANT_MS:
        raise ParseError(f"timestamp after 9999-12-31T23:59:59.999Z: {text!r}")
    return t_ms


def parse_float(text: str) -> float:
    """``float(text)`` for the plain ASCII spellings the input formats use.

    ``float`` also reads "1_0" as 10.0 and non-ASCII digits such as "١" as
    1.0; both raise ValueError here, in ``float``'s own words.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_int(text: str) -> int:
    """``int(text)`` without the spellings ``parse_float`` also rejects:
    "1_0" and non-ASCII digits such as "١" raise ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` object hook: a key given twice raises ValueError
    naming it, where ``json`` would keep the last value."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} given twice")
        doc[key] = value
    return doc


def read_text(data: bytes) -> str:
    """The one reading of a text input's bytes: UTF-8, a leading byte-order
    mark ignored, and CRLF and CR line ends turned into LF, so that a line
    ends at "\\n" and nowhere else. Other bytes raise EncodingError."""
    # Windows subtitle and speech-to-text tools often start with a BOM.
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"input is not valid UTF-8: {exc}") from exc
    # A search for "\r\n" is slow, and most inputs hold no "\r" at all.
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_object(data: bytes, hook: Callable = unique_keys) -> dict:
    """A JSON document that must be one object, from ``read_text``'s text.

    ``hook`` builds each object from its key/value pairs. Bad syntax or
    nesting too deep to read raises ParseError("not valid JSON: …"), and a
    document that is not an object ParseError("not a JSON object").
    """
    try:
        doc = json.loads(read_text(data), object_pairs_hook=hook)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("not a JSON object")
    return doc


# Kind -> (accepted types, what a bad value is told, type it is stored as).
# A kind is a field annotation, or the JSON type a member of an input must
# have; a "number" is left to its reader's own range test.
_FIELD_KINDS = {
    "int": (int, "an integer", None),
    "float": ((int, float), "a finite number", float),
    "number": ((int, float), "a number", None),
    "str": (str, "a string", None),
    "Path": ((str, os.PathLike), "a path", Path),
    "list": (list, "an array", None),
    "object": (dict, "an object", None),
}


def check_value(name: str, kind: str, value: object) -> object:
    """``value`` held to the ``_FIELD_KINDS`` entry ``kind``, as stored.

    A bad value raises ValueError naming ``name``.
    """
    types, expected, store = _FIELD_KINDS[kind]
    # A bool is no number; the range test rejects NaN, the infinities
    # and ints too large to become a float. An empty string is no path,
    # though Path("") would read it as the current directory.
    if (
        not isinstance(value, types)
        or isinstance(value, bool)
        or (kind == "float" and not abs(value) <= sys.float_info.max)
        or (kind == "Path" and value == "")
    ):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value if store is None else store(value)


def member(obj: object, key: str, kind: str, nullable: bool = False) -> object:
    """``obj[key]`` held to ``check_value``'s ``kind``, as stored: how the
    transcript, sidecar and triads readers read each member.

    ``obj`` must be an object holding ``key``, and only a nullable key may
    hold null; a bad member raises ValueError naming ``key``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object holding {key!r}")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    value = obj[key]
    if value is None and nullable:
        return None
    return check_value(key, kind, value)


def check_fields(obj: object) -> None:
    """Hold each field of the frozen dataclass ``obj`` to its annotation.

    Fields annotated with a key of ``_FIELD_KINDS`` (or that ``| None``) are
    checked, others are left to the class; a bad value raises ValueError
    naming the field. Needs postponed annotations, which read as source text.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if kind not in _FIELD_KINDS or (value is None and kind != f.type):
            continue
        object.__setattr__(obj, f.name, check_value(f.name, kind, value))


def format_iso8601_ms(t_ms: int) -> str:
    """Render epoch milliseconds as ``YYYY-MM-DDTHH:MM:SS.mmmZ``.

    A naive datetime renders in one C call, about half the cost of an
    aware one through ``strftime``; both give the same text for every
    instant from 0 to MAX_INSTANT_MS.
    """
    dt = _NAIVE_EPOCH + timedelta(milliseconds=t_ms)
    return dt.isoformat(timespec="milliseconds") + "Z"


@dataclass(frozen=True, slots=True, init=False)
class GeoPoint:
    """A timestamped WGS-84 position.

    lat_deg must lie in [-90, 90] and lon_deg in [-180, 180); a longitude of
    exactly 180 is folded to -180. Coordinates are floats (an int is taken),
    ele_m a finite float or None, and t_ms an int from 0 to MAX_INSTANT_MS;
    check_value, which an exact float or int skips, refuses any other type.
    A track holds one point per fix, so the class has slots and one
    validating constructor in place of the generated one.
    """

    lat_deg: float
    lon_deg: float
    t_ms: int
    ele_m: float | None = None

    def __init__(
        self, lat_deg: float, lon_deg: float, t_ms: int, ele_m: float | None = None
    ) -> None:
        if type(lat_deg) is not float:
            lat_deg = check_value("lat_deg", "float", lat_deg)
        if type(lon_deg) is not float:
            lon_deg = check_value("lon_deg", "float", lon_deg)
        if type(t_ms) is not int:
            t_ms = check_value("t_ms", "int", t_ms)
        if not -90.0 <= lat_deg <= 90.0:
            raise ValueError(f"latitude out of range: {lat_deg}")
        if lon_deg == 180.0:
            lon_deg = -180.0
        elif not -180.0 <= lon_deg < 180.0:
            raise ValueError(f"longitude out of range: {lon_deg}")
        if t_ms < 0:
            raise ValueError(f"negative timestamp: {t_ms}")
        if t_ms > MAX_INSTANT_MS:
            raise ValueError(f"timestamp after 9999-12-31T23:59:59.999Z: {t_ms}")
        if ele_m is not None:
            if type(ele_m) is not float:
                ele_m = check_value("ele_m", "float", ele_m)
            if not math.isfinite(ele_m):
                raise ValueError(f"elevation is not finite: {ele_m}")
        _SET_LAT(self, lat_deg)
        _SET_LON(self, lon_deg)
        _SET_T(self, t_ms)
        _SET_ELE(self, ele_m)


# Each slot's own descriptor stores its field past the frozen __setattr__;
# calling it is cheaper than object.__setattr__ (61k points: 0.062 s
# against 0.088 s, best of 5, Python 3.11).
_SET_LAT = GeoPoint.lat_deg.__set__
_SET_LON = GeoPoint.lon_deg.__set__
_SET_T = GeoPoint.t_ms.__set__
_SET_ELE = GeoPoint.ele_m.__set__


@dataclass(frozen=True)
class TrackLog:
    """Time-ordered GPS fixes from one drive.

    Timestamps must be non-decreasing. A single-point log is a valid parse
    result; interpolation and bearing queries need at least two points.
    ``times`` holds every point's t_ms in order, built once so that time
    queries can bisect it; it takes no part in equality or repr.
    """

    points: tuple[GeoPoint, ...]
    times: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        times = tuple(p.t_ms for p in pts)
        for prev, nxt in zip(times, times[1:]):
            if nxt < prev:
                raise NonMonotoneTrack(f"timestamps decrease: {prev} -> {nxt}")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def start_ms(self) -> int:
        return self.points[0].t_ms

    @property
    def end_ms(self) -> int:
        return self.points[-1].t_ms

    def shifted(self, offset_ms: int) -> "TrackLog":
        """A copy with every timestamp moved by offset_ms; InvalidAnchor if
        that moves the first fix before the epoch or the last past 9999."""
        if offset_ms == 0:
            return self
        moves = f"an offset of {offset_ms} ms moves the track"
        if self.start_ms + offset_ms < 0:
            raise InvalidAnchor(f"{moves} start before the epoch")
        if self.end_ms + offset_ms > MAX_INSTANT_MS:
            raise InvalidAnchor(f"{moves} past 9999-12-31T23:59:59.999Z")
        moved = tuple(
            GeoPoint(p.lat_deg, p.lon_deg, p.t_ms + offset_ms, p.ele_m)
            for p in self.points
        )
        return TrackLog(moved)


def normalize_bearing(deg: float) -> float:
    """Fold an angle into the compass range [0, 360)."""
    folded = math.fmod(deg, 360.0)
    if folded < 0.0:
        folded += 360.0
    return 0.0 if folded == 360.0 else folded


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points.

    Symmetric and non-negative; uses the haversine form, which stays
    accurate for the short hops between consecutive track fixes.
    """
    lat1 = math.radians(a.lat_deg)
    lat2 = math.radians(b.lat_deg)
    dlat = math.radians(b.lat_deg - a.lat_deg)
    dlon = math.radians(b.lon_deg - a.lon_deg)
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def initial_bearing(a: GeoPoint, b: GeoPoint) -> float | None:
    """Forward azimuth from a to b, compass degrees in [0, 360).

    None when the points coincide: a stationary vehicle has no direction
    of travel.
    """
    if a.lat_deg == b.lat_deg and a.lon_deg == b.lon_deg:
        return None
    lat1 = math.radians(a.lat_deg)
    lat2 = math.radians(b.lat_deg)
    dlon = math.radians(b.lon_deg - a.lon_deg)
    y = math.sin(dlon) * math.cos(lat2)
    x = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
    return normalize_bearing(math.degrees(math.atan2(y, x)))


def signed_bearing_delta(from_deg: float, to_deg: float) -> float:
    """Smallest signed rotation from one bearing to another, in (-180, 180].

    Positive means clockwise (a right turn). An exact half-turn maps to +180
    by convention.
    """
    delta = math.fmod(to_deg - from_deg, 360.0)
    if delta > 180.0:
        delta -= 360.0
    elif delta <= -180.0:
        delta += 360.0
    return delta


def _bracket(log: TrackLog, t_ms: int) -> tuple[int, int, int] | None:
    """Locate t within the track, clamping into the span within TOLERANCE_MS.

    Returns (clamped_t, lo_index, hi_index) where lo/hi bracket clamped_t,
    or None for a track of fewer than two fixes or an instant further out.
    Bisects the log's cached ``times``, so a query costs O(log N) and a run
    of E queries over N fixes costs O(N + E log N) in all.
    """
    times = log.times
    n = len(times)
    if n < 2:
        return None
    first, last = times[0], times[-1]
    if t_ms < first:
        return (first, 0, 1) if first - t_ms <= TOLERANCE_MS else None
    if t_ms > last:
        return (last, n - 2, n - 1) if t_ms - last <= TOLERANCE_MS else None
    i = bisect_left(times, t_ms)
    if times[i] == t_ms:
        lo = i if i < n - 1 else i - 1
        return t_ms, lo, lo + 1
    return t_ms, i - 1, i


def interpolate_position(log: TrackLog, t_ms: int) -> GeoPoint | None:
    """Linearly interpolated position at time t.

    Queries up to TOLERANCE_MS (5 s) outside the span clamp to the nearest
    endpoint; further out, or on a track of fewer than two fixes, there is
    no position: None. The returned point carries the query time, so
    callers can anchor events at the instant they asked about. A query at a
    track point's own timestamp reproduces that point exactly. Elevation
    interpolates only when both bracketing points have it.
    """
    bracket = _bracket(log, t_ms)
    if bracket is None:
        return None
    clamped, lo, hi = bracket
    a, b = log.points[lo], log.points[hi]
    if clamped == a.t_ms:
        return GeoPoint(a.lat_deg, a.lon_deg, t_ms, a.ele_m)
    if clamped == b.t_ms:
        return GeoPoint(b.lat_deg, b.lon_deg, t_ms, b.ele_m)
    frac = (clamped - a.t_ms) / (b.t_ms - a.t_ms)
    lat = a.lat_deg + frac * (b.lat_deg - a.lat_deg)
    dlon = b.lon_deg - a.lon_deg
    if abs(dlon) > 180.0:
        # The short way crosses the antimeridian (RFC 7946 section 3.1.9):
        # step the wrapped delta and fold the result into [-180, 180).
        dlon -= math.copysign(360.0, dlon)
        lon = (a.lon_deg + frac * dlon + 180.0) % 360.0 - 180.0
    else:
        lon = a.lon_deg + frac * dlon
    ele = None
    if a.ele_m is not None and b.ele_m is not None:
        ele = a.ele_m + frac * (b.ele_m - a.ele_m)
    return GeoPoint(lat, lon, t_ms, ele)


def heading_at(log: TrackLog, t_ms: int) -> float | None:
    """Direction of travel at time t, from the bracketing track points.

    If the bracketing pair is coincident (vehicle stopped), the window grows
    outward to the nearest pair with actual separation. Where
    ``interpolate_position`` has no position, or every point of the log
    coincides, there is no heading: None.
    """
    bracket = _bracket(log, t_ms)
    if bracket is None:
        return None
    _, lo, hi = bracket
    pts = log.points
    while True:
        bearing = initial_bearing(pts[lo], pts[hi])
        if bearing is not None:
            return bearing
        if hi < len(pts) - 1:
            hi += 1
        elif lo > 0:
            lo -= 1
        else:
            return None


class Turn(NamedTuple):
    """A turn located on a TrackProfile: its one defined point, kept fix
    ``vertex`` at instant ``t_ms``, and ``exit_step``, the first kept step
    after the turn."""

    t_ms: int
    vertex: int
    exit_step: int


def _plane_bearing(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Compass bearing from a to b, both (east, north) metres on a plane."""
    return normalize_bearing(math.degrees(math.atan2(b[0] - a[0], b[1] - a[1])))


@dataclass(frozen=True)
class TrackProfile:
    """A whole track outlined once, as ``track_profile`` builds it.

    ``points`` are the kept fixes as (east, north) metres on the tangent
    plane at the track's first fix, and ``times`` their instants; step i
    runs from point i to point i + 1. A kept step that spans a gap in the
    fixes is a chord across the gap, not a measured path. ``turns`` are
    the turns located on the steps, in time order.
    """

    times: tuple[int, ...]
    points: tuple[tuple[float, float], ...]
    turns: tuple[Turn, ...]

    def exit_bearing(self, start_ms: int, end_ms: int) -> float | None:
        """The bearing the track holds after the stretch from ``start_ms``
        to ``end_ms``: that of the first kept step after the first turn
        located in it, else of the first kept step at or after
        ``start_ms``; None where no kept step follows."""
        i = bisect_left(self.turns, start_ms, key=lambda turn: turn.t_ms)
        if i < len(self.turns) and self.turns[i].t_ms <= end_ms:
            step = self.turns[i].exit_step
        else:
            step = bisect_left(self.times, start_ms)
        if step >= len(self.points) - 1:
            return None
        return _plane_bearing(self.points[step], self.points[step + 1])


def track_profile(log: TrackLog) -> TrackProfile:
    """The track decimated on a local tangent plane, and its turns.

    Each fix is projected onto the plane at the first fix: north is
    Δlat·R and east Δlon·R·cos lat₀, in radians, with Δlon taken the short
    way across ±180°. A fix is kept when it lies at least PROFILE_STEP_M
    from the last kept one, so GPS noise and stops do not read as turning.

    A run of consecutive bearing changes between kept steps, each above
    TURN_STEP_DEG and all of one sign, is one turn when its total exceeds
    TURN_TOTAL_DEG. The turn's point is the vertex where the run's change
    first reaches half its total, and its exit step the one leaving the
    run's last vertex.
    """
    times: list[int] = []
    points: list[tuple[float, float]] = []
    if log.points:
        origin = log.points[0]
        lat0, lon0 = origin.lat_deg, origin.lon_deg
        north_m = math.radians(EARTH_RADIUS_M)
        east_m = north_m * math.cos(math.radians(lat0))
        floor = PROFILE_STEP_M * PROFILE_STEP_M
        last_x = last_y = math.inf
        for p in log.points:
            dlon = p.lon_deg - lon0
            if dlon > 180.0:
                dlon -= 360.0
            elif dlon < -180.0:
                dlon += 360.0
            x, y = dlon * east_m, (p.lat_deg - lat0) * north_m
            if (x - last_x) ** 2 + (y - last_y) ** 2 >= floor:
                points.append((x, y))
                times.append(p.t_ms)
                last_x, last_y = x, y
    bearings = [_plane_bearing(a, b) for a, b in zip(points, points[1:])]
    changes = [signed_bearing_delta(a, b) for a, b in zip(bearings, bearings[1:])]
    turns = []
    # Change i lies at vertex i + 1, between steps i and i + 1.
    vertex = 1
    for sign, run in groupby(
        changes, key=lambda c: (c > TURN_STEP_DEG) - (c < -TURN_STEP_DEG)
    ):
        run = list(run)
        total = math.fsum(run)
        if sign and abs(total) > TURN_TOTAL_DEG:
            # All of one sign, so the swept change only grows.
            half = abs(total) / 2
            k = next(k for k, swept in enumerate(accumulate(run)) if abs(swept) >= half)
            turns.append(Turn(times[vertex + k], vertex + k, vertex + len(run) - 1))
        vertex += len(run)
    return TrackProfile(tuple(times), tuple(points), tuple(turns))

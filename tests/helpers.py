"""Shared builders and independent oracles used across the test modules."""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

from drivetriad import GeoPoint, TrackLog

EARTH_RADIUS_M = 6_371_008.8


def track_from(coords, start_ms=0, step_ms=1000):
    """Build a TrackLog from (lat, lon) pairs spaced step_ms apart."""
    points = tuple(
        GeoPoint(lat, lon, start_ms + i * step_ms)
        for i, (lat, lon) in enumerate(coords)
    )
    return TrackLog(points)


def straight_north_track(n=10, start_ms=0, step_ms=1000, step_deg=0.0001):
    """n points heading due north from the origin."""
    return track_from(
        [(i * step_deg, 0.0) for i in range(n)], start_ms=start_ms, step_ms=step_ms
    )


# --- independent geodesy oracle --------------------------------------------
#
# Deliberately a different formulation from the library: positions become 3-D
# unit vectors; distance is the angle via atan2(|a x b|, a . b); bearing is
# the great-circle direction at `a` decomposed into local east/north axes.


def _unit_vector(lat_deg: float, lon_deg: float) -> tuple[float, float, float]:
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return (
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    )


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def oracle_distance(lat1, lon1, lat2, lon2) -> float:
    a = _unit_vector(lat1, lon1)
    b = _unit_vector(lat2, lon2)
    cross = _cross(a, b)
    angle = math.atan2(math.sqrt(_dot(cross, cross)), _dot(a, b))
    return angle * EARTH_RADIUS_M


def oracle_bearing(lat1, lon1, lat2, lon2) -> float:
    a = _unit_vector(lat1, lon1)
    b = _unit_vector(lat2, lon2)
    lat = math.radians(lat1)
    lon = math.radians(lon1)
    east = (-math.sin(lon), math.cos(lon), 0.0)
    north = (
        -math.sin(lat) * math.cos(lon),
        -math.sin(lat) * math.sin(lon),
        math.cos(lat),
    )
    # component of b orthogonal to a = the departure direction at a
    scale = _dot(a, b)
    departure = (b[0] - scale * a[0], b[1] - scale * a[1], b[2] - scale * a[2])
    bearing = math.degrees(math.atan2(_dot(departure, east), _dot(departure, north)))
    return bearing % 360.0


def circular_diff_deg(a: float, b: float) -> float:
    """Absolute angular difference on the compass circle, in [0, 180]."""
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d


# --- instant-format oracle --------------------------------------------------


def reference_iso8601_ms(t_ms: int) -> str:
    """The aware-datetime and strftime rendering ``format_iso8601_ms`` once
    used, kept as the reference for epoch milliseconds 0 to MAX_INSTANT_MS."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    dt = epoch + timedelta(milliseconds=t_ms)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.") + f"{t_ms % 1000:03d}Z"


# --- frame oracle -----------------------------------------------------------


def reference_frame_index_at(video, t_ms: int) -> int:
    """The frame rule ``frame_index_at`` once used, which raised ValueError
    where the video holds no frame; kept as the reference for every frame
    that it does return."""
    if video.frame_count == 0:
        raise ValueError("video has no frames")
    if t_ms < video.start_ms:
        raise ValueError(f"instant {t_ms} precedes video start {video.start_ms}")
    position = (t_ms - video.start_ms) * video.fps / 1000.0
    if position >= video.frame_count:
        raise ValueError(f"instant {t_ms} maps to frame {position}, past the last frame")
    return math.floor(position)


# --- span-rule oracles ------------------------------------------------------


def reference_maximal_spans(spans):
    """The containment rule ``classifier._maximal_spans`` once used, which
    tested each span against every kept one; kept as its reference."""
    kept = []
    for start, end in sorted(set(spans), key=lambda s: (s[0], -s[1])):
        if not any(ks <= start and end <= ke for ks, ke in kept):
            kept.append((start, end))
    return kept


def reference_all_cardinals_inside_roads(span, cardinals, road_spans):
    """The rule by which ``classify`` once dropped a Cardinal span: True
    when every direction word in the span (``cardinals`` holds their token
    indices) belongs to a road span; kept as the reference."""
    found = [pos for pos in cardinals if span[0] <= pos < span[1]]
    return bool(found) and all(
        any(r_start <= pos < r_end for r_start, r_end in road_spans) for pos in found
    )

"""Synthetic drive generator: geometry, cue text, and ground truth."""

from __future__ import annotations

import json

import pytest

from drivetriad import (
    GeoPoint,
    Maneuver,
    RoutePlan,
    STYLES,
    classify,
    generate_instructions,
    haversine_distance,
    parse_gpx,
    parse_legs,
    parse_transcript,
    write_corpus,
)
from drivetriad.segmenter import net_bearing_change
from drivetriad.synth import (
    MAX_SAMPLES,
    Leg,
    generate_route,
    read_ground_truth,
    write_gpx,
    write_ground_truth,
    write_transcript_json,
    write_video_meta,
)


def simple_plan(**overrides):
    defaults = dict(
        legs=parse_legs("600R,500L,400"),
        seed=3,
    )
    defaults.update(overrides)
    return RoutePlan(**defaults)


class TestParseLegs:
    def test_lengths_and_turns(self):
        legs = parse_legs("400R,300L,500U,250")
        assert [leg.length_m for leg in legs] == [400.0, 300.0, 500.0, 250.0]
        assert [leg.maneuver_after for leg in legs] == [
            Maneuver.RIGHT_TURN,
            Maneuver.LEFT_TURN,
            Maneuver.UTURN,
            None,
        ]

    def test_lowercase_suffix(self):
        assert parse_legs("100r")[0].maneuver_after is Maneuver.RIGHT_TURN

    @pytest.mark.parametrize("bad", ["", "100X", "abc", "100,,200", "-50R"])
    def test_bad_notation_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_legs(bad)

    def test_unknown_maneuver_unplantable(self):
        with pytest.raises(ValueError):
            Leg(100.0, Maneuver.UNKNOWN)

    def test_spec_must_be_text(self):
        with pytest.raises(ValueError, match="legs must be a string"):
            parse_legs(400)


class TestRoutePlanChecks:
    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"speed_mps": float("inf")}, "speed_mps"),
            ({"speed_mps": float("nan")}, "speed_mps"),
            ({"noise_sigma_m": float("nan")}, "noise_sigma_m"),
            ({"noise_sigma_m": float("inf")}, "noise_sigma_m"),
            ({"sample_hz": "1"}, "sample_hz"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
        ],
    )
    def test_bad_value_names_the_field(self, settings, field):
        with pytest.raises(ValueError, match=field):
            simple_plan(**settings)

    def test_infinite_leg_rejected(self):
        with pytest.raises(ValueError, match="leg length must be finite and > 0"):
            parse_legs("1e400R")

    @pytest.mark.parametrize(
        "legs, speed, count",
        [("1e12", 15.0, "66666666667"), ("1000000", 1.0, "1000001"), ("1e308,1e308", 1.0, "inf")],
    )
    def test_sample_count_is_bounded(self, legs, speed, count):
        with pytest.raises(ValueError, match=f"needs {count} GPS samples"):
            simple_plan(legs=parse_legs(legs), speed_mps=speed)

    def test_largest_plan_is_accepted(self):
        # floor(999,999 m / 1 m/s * 1 Hz) + 1 samples: exactly the bound.
        plan = simple_plan(legs=parse_legs("999999"), speed_mps=1.0)
        assert plan.legs[0].length_m + 1 == MAX_SAMPLES

    def test_numbers_are_stored_as_floats(self):
        plan = simple_plan(speed_mps=20, sample_hz=2)
        assert (plan.speed_mps, plan.sample_hz) == (20.0, 2.0)
        assert type(plan.speed_mps) is float


class TestGenerateRoute:
    def test_point_count_and_span(self):
        # 100 m at 10 m/s sampled at 1 Hz: fixes at t = 0..10 s inclusive.
        plan = RoutePlan(legs=(Leg(100.0),), speed_mps=10.0, sample_hz=1.0)
        track = generate_route(plan)
        assert len(track) == 11
        assert track.end_ms - track.start_ms == 10_000

    def test_spacing_matches_speed(self):
        plan = RoutePlan(legs=(Leg(100.0),), speed_mps=10.0, sample_hz=1.0)
        track = generate_route(plan)
        for a, b in zip(track.points, track.points[1:]):
            assert haversine_distance(a, b) == pytest.approx(10.0, rel=1e-3)

    def test_heads_north_by_default(self):
        plan = RoutePlan(legs=(Leg(100.0),), speed_mps=10.0)
        track = generate_route(plan)
        assert track.points[-1].lat_deg > track.points[0].lat_deg
        assert track.points[-1].lon_deg == pytest.approx(
            track.points[0].lon_deg, abs=1e-12
        )

    def test_right_turn_geometry(self):
        plan = RoutePlan(
            legs=(Leg(300.0, Maneuver.RIGHT_TURN), Leg(300.0)), speed_mps=15.0
        )
        track = generate_route(plan)
        net = net_bearing_change(track.points)
        assert net == pytest.approx(90.0, abs=2.0)

    def test_uturn_geometry(self):
        plan = RoutePlan(legs=(Leg(300.0, Maneuver.UTURN), Leg(300.0)))
        track = generate_route(plan)
        assert abs(net_bearing_change(track.points)) == pytest.approx(180.0, abs=2.0)

    def test_deterministic_per_seed(self):
        a = generate_route(simple_plan(noise_sigma_m=3.0))
        b = generate_route(simple_plan(noise_sigma_m=3.0))
        assert a.points == b.points

    def test_seed_changes_noise(self):
        a = generate_route(simple_plan(noise_sigma_m=3.0, seed=1))
        b = generate_route(simple_plan(noise_sigma_m=3.0, seed=2))
        assert a.points != b.points

    def test_source_id_carries_seed(self):
        assert generate_route(simple_plan(seed=42)).source_id == "synth-42"

    def test_timestamps_anchor_to_origin(self):
        plan = RoutePlan(
            legs=(Leg(100.0),),
            origin=GeoPoint(10.0, 20.0, 5_000_000),
            speed_mps=10.0,
        )
        track = generate_route(plan)
        assert track.start_ms == 5_000_000


class TestGenerateInstructions:
    def test_ground_truth_aligns_with_cues(self):
        corpus = generate_instructions(simple_plan(), "distance-heavy")
        gt = corpus.ground_truth
        # Two planted turns -> two cues + one arrival announcement.
        assert len(gt.instructions) == 3
        assert gt.expected_maneuvers == (
            Maneuver.RIGHT_TURN,
            Maneuver.LEFT_TURN,
            Maneuver.STRAIGHT,
        )
        assert gt.style == "distance-heavy"
        assert gt.audio_start_ms == corpus.track.start_ms

    def test_arrival_is_last_and_location_name(self):
        corpus = generate_instructions(simple_plan(), "distance-heavy")
        last = corpus.ground_truth.instructions[-1]
        assert last.text.startswith("Arrived at ")
        assert {c.value for c in last.classes} == {"LocationName"}

    def test_distance_heavy_cites_lead_distance(self):
        corpus = generate_instructions(simple_plan(), "distance-heavy")
        first = corpus.ground_truth.instructions[0].text
        # 150 m lead is announced in feet.
        assert "In 492 feet" in first

    def test_static_style_uses_objects(self):
        corpus = generate_instructions(simple_plan(), "static-object-heavy")
        texts = [e.text for e in corpus.ground_truth.instructions[:-1]]
        assert all(("stop sign" in t) or ("light" in t) for t in texts)

    def test_cardinal_style_matches_post_turn_heading(self):
        # Initial heading north; a right turn leads east.
        plan = RoutePlan(legs=(Leg(600.0, Maneuver.RIGHT_TURN), Leg(400.0)), seed=5)
        corpus = generate_instructions(plan, "cardinal-heavy")
        first = corpus.ground_truth.instructions[0].text
        assert "East" in first
        assert "right" in first

    def test_instruction_times_sorted_and_within_track(self):
        corpus = generate_instructions(simple_plan(), "distance-heavy")
        duration_s = (corpus.track.end_ms - corpus.track.start_ms) / 1000.0
        times = [e.start_s for e in corpus.ground_truth.instructions]
        assert times == sorted(times)
        for entry in corpus.ground_truth.instructions:
            assert 0.0 <= entry.start_s < entry.end_s <= duration_s

    def test_short_leg_falls_back_to_no_distance_text(self):
        # A 100 m first leg cannot fit the 150 m lead.
        plan = RoutePlan(legs=(Leg(100.0, Maneuver.RIGHT_TURN), Leg(400.0)), seed=2)
        corpus = generate_instructions(plan, "distance-heavy")
        first = corpus.ground_truth.instructions[0]
        assert "feet" not in first.text
        assert "Distance" not in {c.value for c in first.classes}

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            generate_instructions(simple_plan(), "opera")

    def test_classifier_agrees_with_ground_truth(self):
        for style in STYLES:
            for seed in range(10):
                corpus = generate_instructions(simple_plan(seed=seed), style)
                for entry in corpus.ground_truth.instructions:
                    got = classify(entry.text).classes
                    assert got == entry.classes, (style, seed, entry.text)

    def test_noise_does_not_change_text_or_truth(self):
        clean = generate_instructions(simple_plan(noise_sigma_m=0.0), "distance-heavy")
        noisy = generate_instructions(simple_plan(noise_sigma_m=5.0), "distance-heavy")
        assert clean.ground_truth.instructions == noisy.ground_truth.instructions
        assert clean.ground_truth.expected_maneuvers == (
            noisy.ground_truth.expected_maneuvers
        )
        assert clean.track.points != noisy.track.points


class TestWriters:
    def test_gpx_roundtrip_is_exact(self):
        corpus = generate_instructions(simple_plan(noise_sigma_m=2.0), "distance-heavy")
        parsed = parse_gpx(write_gpx(corpus.track))
        assert parsed.points == corpus.track.points

    def test_transcript_roundtrip(self):
        corpus = generate_instructions(simple_plan(), "distance-heavy")
        parsed = parse_transcript(write_transcript_json(corpus), "segment-json")
        assert parsed.audio_start_ms == corpus.ground_truth.audio_start_ms
        assert [s.text for s in parsed.segments] == [
            e.text for e in corpus.ground_truth.instructions
        ]

    def test_video_meta_covers_track(self):
        corpus = generate_instructions(simple_plan(), "distance-heavy")
        meta = json.loads(write_video_meta(corpus.track))
        assert meta["fps"] == 30.0
        duration_ms = corpus.track.end_ms - corpus.track.start_ms
        assert meta["frame_count"] == duration_ms * 30 // 1000 + 1

    def test_ground_truth_roundtrip(self):
        corpus = generate_instructions(simple_plan(), "cardinal-heavy")
        back = read_ground_truth(write_ground_truth(corpus.ground_truth))
        assert back == corpus.ground_truth

    def test_write_corpus_files(self, tmp_path):
        corpus = generate_instructions(simple_plan(), "distance-heavy")
        paths = write_corpus(corpus, tmp_path)
        assert sorted(p.name for p in paths.values()) == [
            "ground_truth.json",
            "track.gpx",
            "transcript.json",
            "video_meta.json",
        ]
        for p in paths.values():
            assert p.exists() and p.stat().st_size > 0

    def test_write_corpus_deterministic(self, tmp_path):
        corpus = generate_instructions(simple_plan(noise_sigma_m=1.5), "distance-heavy")
        first = {
            name: path.read_bytes()
            for name, path in write_corpus(corpus, tmp_path / "a").items()
        }
        again = generate_instructions(simple_plan(noise_sigma_m=1.5), "distance-heavy")
        second = {
            name: path.read_bytes()
            for name, path in write_corpus(again, tmp_path / "b").items()
        }
        assert first == second

    def test_noise_changes_track_bytes_only(self, tmp_path):
        clean = generate_instructions(simple_plan(noise_sigma_m=0.0), "distance-heavy")
        noisy = generate_instructions(simple_plan(noise_sigma_m=3.0), "distance-heavy")
        clean_files = write_corpus(clean, tmp_path / "clean")
        noisy_files = write_corpus(noisy, tmp_path / "noisy")
        assert (
            clean_files["track.gpx"].read_bytes()
            != noisy_files["track.gpx"].read_bytes()
        )
        assert (
            clean_files["transcript.json"].read_bytes()
            == noisy_files["transcript.json"].read_bytes()
        )
        assert (
            clean_files["ground_truth.json"].read_bytes()
            == noisy_files["ground_truth.json"].read_bytes()
        )

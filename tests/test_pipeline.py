"""End-to-end pipeline runs against generated corpora."""

from __future__ import annotations

import contextlib
import io
import json
import re
from collections import Counter

import pytest
from hypothesis import Phase, given, settings as hsettings, strategies as st

import drivetriad.sync
from drivetriad import (
    GeoPoint,
    Maneuver,
    TrackLog,
    classify,
    parse_gpx,
    parse_video_meta,
    PipelineConfig,
    RoutePlan,
    generate_instructions,
    parse_legs,
    read_triads,
    run_pipeline,
    write_corpus,
)
from drivetriad.cli import main
from drivetriad.core import format_iso8601_ms, parse_iso8601_ms
from drivetriad.emitter import labels_fragment
from drivetriad.segmenter import MANEUVER_RULE, PROFILE_RULE
from drivetriad.synth import STYLES, write_gpx, write_video_meta
from pathlib import Path

from drivetriad.errors import DataError, NoUsableEvents
from quality import cardinal_lines
from test_acceptance import _PLANS as ACCEPTANCE_PLANS


def generated(tmp_path, seed=7, style="distance-heavy", legs="600R,500L,700U,400", **plan_kw):
    plan = RoutePlan(legs=parse_legs(legs), seed=seed, **plan_kw)
    corpus = generate_instructions(plan, style)
    return write_corpus(corpus, tmp_path / "corpus"), corpus


def config_for(files, out_dir, **overrides):
    settings = dict(
        gpx_path=files["track.gpx"],
        transcript_path=files["transcript.json"],
        out_dir=out_dir,
        video_meta_path=files["video_meta.json"],
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


class TestPipelineConfig:
    def test_paths_and_thresholds_are_normalized(self):
        config = PipelineConfig("drive.gpx", "voice.json", "out")
        assert config.gpx_path == Path("drive.gpx")
        assert config.out_dir == Path("out")
        # The maneuver rule, the profile's rule and the placement tolerance
        # are fixed: no run can set them.
        for name in [*MANEUVER_RULE, *PROFILE_RULE, "tolerance_ms"]:
            with pytest.raises(TypeError, match=name):
                PipelineConfig("drive.gpx", "voice.json", "out", **{name: 1.0})

    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"gps_offset_ms": 1.0}, "gps_offset_ms"),
            ({"gps_offset_ms": None}, "gps_offset_ms"),
            ({"audio_offset_ms": 0.5}, "audio_offset_ms"),
            ({"video_offset_ms": "1"}, "video_offset_ms"),
            ({"source_label": 5}, "source_label"),
            ({"transcript_format": "vtt"}, "transcript_format"),
            ({"lexicon_path": 3}, "lexicon_path"),
            ({"video_offset_ms": True}, "video_offset_ms"),
            ({"audio_start": "garbage"}, "audio_start"),
            ({"audio_start": "1969-01-01T00:00:00Z"}, "audio_start"),
        ],
    )
    def test_bad_value_names_the_field(self, settings, field):
        with pytest.raises(ValueError, match=field):
            PipelineConfig("drive.gpx", "voice.json", "out", **settings)


class TestRunPipeline:
    def test_counts_and_artifacts(self, tmp_path):
        files, corpus = generated(tmp_path)
        result = run_pipeline(config_for(files, tmp_path / "out"))
        assert result.event_count == len(corpus.ground_truth.instructions)
        assert result.segment_count == result.event_count
        assert result.mismatch_count == 0
        for name in ("triads.jsonl", "manifest.json", "report.txt", "mismatches.txt"):
            assert (result.out_dir / name).exists()

    def test_recovers_planted_maneuvers(self, tmp_path):
        files, corpus = generated(tmp_path)
        result = run_pipeline(config_for(files, tmp_path / "out"))
        triads = read_triads(result.triads_path.read_bytes())
        got = tuple(t.action.maneuver for t in triads)
        assert got == corpus.ground_truth.expected_maneuvers
        assert got == (
            Maneuver.RIGHT_TURN,
            Maneuver.LEFT_TURN,
            Maneuver.UTURN,
            Maneuver.STRAIGHT,
        )

    def test_recovers_ground_truth_classes(self, tmp_path):
        files, corpus = generated(tmp_path, style="static-object-heavy")
        result = run_pipeline(config_for(files, tmp_path / "out"))
        triads = read_triads(result.triads_path.read_bytes())
        for triad, entry in zip(triads, corpus.ground_truth.instructions):
            assert triad.event.text == entry.text
            assert triad.event.classes == entry.classes

    def test_frames_populated_from_video(self, tmp_path):
        files, _ = generated(tmp_path)
        result = run_pipeline(config_for(files, tmp_path / "out"))
        triads = read_triads(result.triads_path.read_bytes())
        for triad in triads:
            assert triad.event.frame_index is not None
            assert triad.action.frame_start is not None
            assert triad.action.frame_start <= triad.action.frame_end

    def test_video_is_optional(self, tmp_path):
        files, _ = generated(tmp_path)
        result = run_pipeline(
            config_for(files, tmp_path / "out", video_meta_path=None)
        )
        triads = read_triads(result.triads_path.read_bytes())
        assert all(t.event.frame_index is None for t in triads)
        assert all(t.action.frame_start is None for t in triads)

    def test_deterministic_with_pinned_timestamp(self, tmp_path):
        files, _ = generated(tmp_path)
        r1 = run_pipeline(config_for(files, tmp_path / "a"))
        r2 = run_pipeline(config_for(files, tmp_path / "b"))
        for name in ("triads.jsonl", "manifest.json", "report.txt", "mismatches.txt"):
            assert (r1.out_dir / name).read_bytes() == (r2.out_dir / name).read_bytes()

    def test_report_label_defaults_to_gpx_stem(self, tmp_path):
        files, _ = generated(tmp_path)
        result = run_pipeline(config_for(files, tmp_path / "out"))
        assert "| track" in (result.out_dir / "report.txt").read_text()

    def test_report_label_override(self, tmp_path):
        files, _ = generated(tmp_path)
        result = run_pipeline(
            config_for(files, tmp_path / "out", source_label="morning-drive")
        )
        assert "morning-drive" in (result.out_dir / "report.txt").read_text()

    def test_manifest_records_inputs_and_counts(self, tmp_path):
        files, _ = generated(tmp_path)
        result = run_pipeline(config_for(files, tmp_path / "out"))
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        roles = [i["role"] for i in manifest["inputs"]]
        assert roles == ["track", "transcript", "video-meta"]
        assert manifest["event_count"] == result.event_count
        assert manifest["segment_count"] == result.segment_count

    def test_contradicted_instruction_lands_in_mismatches(self, tmp_path):
        files, _ = generated(tmp_path, legs="600R,400", seed=11)
        # The drive turns right, but the voice said left.
        doc = json.loads(files["transcript.json"].read_text())
        doc["segments"][0]["text"] = (
            doc["segments"][0]["text"].replace("right", "left")
        )
        assert "left" in doc["segments"][0]["text"]
        files["transcript.json"].write_text(json.dumps(doc))
        result = run_pipeline(config_for(files, tmp_path / "out"))
        assert result.mismatch_count == 1
        assert (
            result.mismatches_path.read_text()
            == "event 0: stated left, observed right\n"
        )

    def test_repeated_text_is_classified_once(self, tmp_path, monkeypatch):
        files, _ = generated(tmp_path)
        # Every cue spoken twice, 5 s apart, and a wordless cue twice.
        doc = json.loads(files["transcript.json"].read_text())
        doc["segments"] += [
            dict(segment, start=segment["start"] + 5, end=segment["end"] + 5)
            for segment in doc["segments"]
        ] + [{"start": 10, "end": 11, "text": "..."}, {"start": 50, "end": 51, "text": "..."}]
        files["transcript.json"].write_text(json.dumps(doc))
        calls = Counter()

        def counted(text, lex=None):
            calls[text] += 1
            return classify(text, lex)

        monkeypatch.setattr(drivetriad.sync, "classify", counted)
        result = run_pipeline(config_for(files, tmp_path / "out"))
        assert calls == {segment["text"]: 1 for segment in doc["segments"]}
        assert result.event_count == len(doc["segments"]) - 2
        # Each line holds the labels its own text gets from classify.
        for line in result.triads_path.read_text().splitlines():
            text = json.loads(line)["text"]
            labeled = classify(text)
            fragment = labels_fragment(text, labeled.evidence)
            assert line.startswith('{"id": ') and f", {fragment}, " in line
        warnings = json.loads((result.out_dir / "manifest.json").read_text())["warnings"]
        anchor_ms = parse_iso8601_ms(doc["audio_start_utc"])
        assert [w for w in warnings if "'...'" in w] == [
            f"segment at {format_iso8601_ms(anchor_ms + start_ms)} has no "
            "classifiable text ('...'); dropped"
            for start_ms in (10_000, 50_000)
        ]

    def test_clean_run_has_empty_mismatches_file(self, tmp_path):
        files, _ = generated(tmp_path)
        result = run_pipeline(config_for(files, tmp_path / "out"))
        assert result.mismatches_path.read_bytes() == b""

    def test_warnings_surface_in_manifest(self, tmp_path):
        files, _ = generated(tmp_path)
        # Drop the video to a single frame: every event falls outside it.
        meta = json.loads(files["video_meta.json"].read_text())
        meta["frame_count"] = 1
        files["video_meta.json"].write_text(json.dumps(meta))
        result = run_pipeline(config_for(files, tmp_path / "out"))
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert result.warning_count > 0
        assert any("no video frame" in w for w in manifest["warnings"])

    def test_offsets_match_pre_shifted_inputs(self, tmp_path):
        # Offsets are applied once: running with them equals running on
        # inputs whose clocks were moved by hand.
        files, _ = generated(tmp_path)
        offsets = run_pipeline(
            config_for(
                files, tmp_path / "a",
                gps_offset_ms=1500, audio_offset_ms=1500, video_offset_ms=2300,
            )
        )
        triads = offsets.triads_path.read_bytes()
        track = parse_gpx(files["track.gpx"].read_bytes()).shifted(1500)
        moved = tmp_path / "moved"
        moved.mkdir()
        (moved / "track.gpx").write_bytes(write_gpx(track, "gpx").encode())
        meta = json.loads(files["video_meta.json"].read_text())
        video = parse_video_meta(files["video_meta.json"].read_bytes()).shifted(2300)
        meta["start_time"] = format_iso8601_ms(video.start_ms)
        (moved / "video_meta.json").write_text(json.dumps(meta))
        doc = json.loads(files["transcript.json"].read_text())
        doc["audio_start_utc"] = format_iso8601_ms(
            parse_iso8601_ms(doc["audio_start_utc"]) + 1500
        )
        (moved / "transcript.json").write_text(json.dumps(doc))
        by_hand = run_pipeline(config_for({name: moved / name for name in files}, tmp_path / "b"))
        assert by_hand.triads_path.read_bytes() == triads

    def test_tolerance_gates_event_placement(self, tmp_path):
        files, corpus = generated(tmp_path)
        # Shift the GPS stream an hour ahead of the audio: every event
        # precedes the track span by far more than the 5 s tolerance.
        with pytest.raises(NoUsableEvents):
            run_pipeline(config_for(files, tmp_path / "out", gps_offset_ms=3_600_000))

    @pytest.mark.parametrize("name", ["track.gpx", "transcript.json", "video_meta.json"])
    def test_data_error_names_its_input(self, tmp_path, name):
        files, _ = generated(tmp_path)
        files[name].write_bytes(b"\xff")
        with pytest.raises(DataError) as caught:
            run_pipeline(config_for(files, tmp_path / "out"))
        assert caught.value.path == files[name]

    def test_error_of_no_one_input_names_none(self, tmp_path):
        files, _ = generated(tmp_path)
        with pytest.raises(NoUsableEvents) as caught:
            run_pipeline(config_for(files, tmp_path / "out", gps_offset_ms=3_600_000))
        assert caught.value.path is None

    @pytest.mark.parametrize(
        "settings, digest",
        [
            ({}, "830c692bbcfcc11a9f269fa68d75164ef05085ba7118f277357ac3aabcd7d2f0"),
            (
                {"source_label": "drive"},
                "73870bacea517a0bb74ef7f68d2658394c66a67545518b624ec144ff3cf15182",
            ),
        ],
        ids=["defaults", "overrides"],
    )
    def test_config_digest_is_pinned(self, tmp_path, settings, digest):
        # The digest is built from the config's fields, so a field that is
        # added, renamed or stored with another type shows up here.
        files, _ = generated(tmp_path)
        result = run_pipeline(config_for(files, tmp_path / "out", **settings))
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert manifest["config_sha256"] == digest

    def test_audio_start_override(self, tmp_path):
        files, corpus = generated(tmp_path)
        # Strip the embedded anchor, then supply it as a flag instead.
        doc = json.loads(files["transcript.json"].read_text())
        anchor = doc.pop("audio_start_utc")
        files["transcript.json"].write_text(json.dumps(doc))
        result = run_pipeline(
            config_for(files, tmp_path / "out", audio_start=anchor)
        )
        assert result.event_count == len(corpus.ground_truth.instructions)

    def test_explicit_anchor_wins_over_embedded(self, tmp_path):
        files, _ = generated(tmp_path)
        base = run_pipeline(config_for(files, tmp_path / "a"))
        # Move the embedded anchor an hour off; audio_start puts it back.
        doc = json.loads(files["transcript.json"].read_text())
        anchor = doc["audio_start_utc"]
        doc["audio_start_utc"] = format_iso8601_ms(parse_iso8601_ms(anchor) + 3_600_000)
        files["transcript.json"].write_text(json.dumps(doc))
        result = run_pipeline(config_for(files, tmp_path / "b", audio_start=anchor))
        assert result.triads_path.read_bytes() == base.triads_path.read_bytes()

    def test_audio_start_and_offset_add(self, tmp_path):
        files, _ = generated(tmp_path)
        base = run_pipeline(config_for(files, tmp_path / "a"))
        doc = json.loads(files["transcript.json"].read_text())
        anchor_ms = parse_iso8601_ms(doc.pop("audio_start_utc"))
        files["transcript.json"].write_text(json.dumps(doc))
        result = run_pipeline(
            config_for(
                files, tmp_path / "b",
                audio_start=format_iso8601_ms(anchor_ms - 1500), audio_offset_ms=1500,
            )
        )
        assert result.triads_path.read_bytes() == base.triads_path.read_bytes()


# The time fields of a triads record; nothing else may move with the clock.
_TIME_KEYS = frozenset({"t_utc_ms", "t_start_ms", "t_end_ms", "t_ms"})


def _unshift(value, delta):
    """A parsed triads record with every time field moved back by delta."""
    if isinstance(value, dict):
        return {
            k: v - delta if k in _TIME_KEYS else _unshift(v, delta)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_unshift(v, delta) for v in value]
    return value


class TestShiftInvariance:
    """Metamorphic relation: moving all three streams by one delta moves
    only the triads' time fields, by exactly that delta."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["later", "earlier"])
    @pytest.mark.parametrize("sample_hz", [1.0, 2.0, 10.0])
    # Each example runs two pipelines, so a failure is reported as found:
    # shrinking a seed and a shift would take minutes and say no more.
    @hsettings(max_examples=3, deadline=None, phases=[Phase.reuse, Phase.generate])
    @given(seed=st.integers(0, 1000), magnitude=st.integers(1, 10**11))
    def test_shift_moves_only_time_fields(
        self, tmp_path_factory, sign, sample_hz, seed, magnitude
    ):
        delta = sign * magnitude
        root = tmp_path_factory.mktemp("shift")
        plan = RoutePlan(
            legs=parse_legs("600R,500L,700U,400R,300"), seed=seed,
            sample_hz=sample_hz, noise_sigma_m=3.0,
        )
        corpus = generate_instructions(plan, "cardinal-heavy")
        files = write_corpus(corpus, root / "corpus")
        moved = root / "moved"
        moved.mkdir()
        track = corpus.track.shifted(delta)
        (moved / "track.gpx").write_bytes(write_gpx(track, f"synth-{seed}").encode())
        (moved / "video_meta.json").write_bytes(write_video_meta(track).encode())
        # The drive turns right first, but the voice says left, so the
        # mismatches file has a line to keep.
        doc = json.loads(files["transcript.json"].read_text())
        first = doc["segments"][0]
        first["text"] = first["text"].replace("right", "left")
        files["transcript.json"].write_text(json.dumps(doc))
        doc["audio_start_utc"] = format_iso8601_ms(
            corpus.ground_truth.audio_start_ms + delta
        )
        (moved / "transcript.json").write_text(json.dumps(doc))
        base = run_pipeline(config_for(files, root / "a"))
        shifted = run_pipeline(config_for({name: moved / name for name in files}, root / "b"))
        base_lines = base.triads_path.read_text().splitlines()
        shifted_lines = shifted.triads_path.read_text().splitlines()
        assert len(shifted_lines) == len(base_lines) > 0
        for before, after in zip(base_lines, shifted_lines):
            assert _unshift(json.loads(after), delta) == json.loads(before)
        report = "report.txt"
        assert (shifted.out_dir / report).read_bytes() == (base.out_dir / report).read_bytes()
        assert shifted.mismatches_path.read_bytes() == base.mismatches_path.read_bytes()


_MIRRORED = {
    Maneuver.LEFT_TURN: Maneuver.RIGHT_TURN,
    Maneuver.RIGHT_TURN: Maneuver.LEFT_TURN,
}


class TestMirrorSwapsSides:
    """Metamorphic relation: mirroring the drive's longitudes about its
    origin swaps left and right turns and keeps every other maneuver and
    every window's length."""

    @pytest.mark.parametrize("noise_sigma_m", [0.0, 3.0], ids=["clean", "noisy"])
    @pytest.mark.parametrize("sample_hz", [1.0, 5.0, 10.0])
    @hsettings(max_examples=2, deadline=None, phases=[Phase.reuse, Phase.generate])
    @given(seed=st.integers(0, 1000))
    def test_mirror_swaps_left_and_right(
        self, tmp_path_factory, sample_hz, noise_sigma_m, seed
    ):
        root = tmp_path_factory.mktemp("mirror")
        plan = RoutePlan(
            legs=parse_legs("600R,500L,700U,400R,300L,500"), seed=seed,
            sample_hz=sample_hz, noise_sigma_m=noise_sigma_m,
        )
        corpus = generate_instructions(plan, "distance-heavy")
        files = write_corpus(corpus, root / "corpus")
        lon0 = plan.origin.lon_deg
        mirrored = TrackLog(tuple(
            GeoPoint(p.lat_deg, 2 * lon0 - p.lon_deg, p.t_ms, p.ele_m)
            for p in corpus.track.points
        ))
        gpx = root / "mirrored.gpx"
        gpx.write_bytes(write_gpx(mirrored, f"synth-{seed}").encode())
        base = run_pipeline(config_for(files, root / "a"))
        flipped = run_pipeline(config_for(files, root / "b", gpx_path=gpx))
        before = [t.action for t in read_triads(base.triads_path.read_bytes())]
        after = [t.action for t in read_triads(flipped.triads_path.read_bytes())]
        assert len(after) == len(before) > 0
        if noise_sigma_m == 0.0:
            assert {a.maneuver for a in before} >= set(_MIRRORED)
        for a, b in zip(before, after):
            assert b.maneuver is _MIRRORED.get(a.maneuver, a.maneuver)
            assert b.distance_m == pytest.approx(a.distance_m, abs=1e-6)
            # signed_bearing_delta maps an exact half-turn to +180 from
            # either side, so only other sums must change sign.
            if abs(a.net_bearing_change_deg) != 180.0:
                assert b.net_bearing_change_deg == pytest.approx(
                    -a.net_bearing_change_deg, abs=1e-6
                )

    @pytest.mark.parametrize("noise_sigma_m", [0.0, 3.0], ids=["clean", "noisy"])
    @pytest.mark.parametrize("sample_hz", [1.0, 10.0])
    def test_mirror_swaps_east_and_west(self, tmp_path, sample_hz, noise_sigma_m):
        # Mirrored, the drive turns the other way and heads East where it
        # headed West: a voice that says so agrees with it, and one that
        # swaps only the sides is flagged at each East and each West.
        plan = RoutePlan(
            legs=parse_legs("600R,500L,700U,400R,300L,500"), seed=4,
            sample_hz=sample_hz, noise_sigma_m=noise_sigma_m,
        )
        corpus = generate_instructions(plan, "cardinal-heavy")
        files = write_corpus(corpus, tmp_path / "corpus")
        lon0 = plan.origin.lon_deg
        mirrored = TrackLog(tuple(
            GeoPoint(p.lat_deg, 2 * lon0 - p.lon_deg, p.t_ms, p.ele_m)
            for p in corpus.track.points
        ))
        gpx = tmp_path / "mirrored.gpx"
        gpx.write_bytes(write_gpx(mirrored, "mirrored").encode())
        text = files["transcript.json"].read_text()
        stated = [e.stated_cardinal for e in corpus.ground_truth.instructions]
        assert {"East", "West"} <= set(stated)
        for swaps, flagged in [
            ({"left": "right", "right": "left"}, {"East", "West"}),
            ({"left": "right", "right": "left", "East": "West", "West": "East"}, set()),
        ]:
            voice = tmp_path / f"voice-{len(swaps)}.json"
            voice.write_text(
                re.sub(r"\b(left|right|East|West)\b", lambda m: swaps.get(m[0], m[0]), text)
            )
            result = run_pipeline(config_for(
                files, tmp_path / f"out-{len(swaps)}", gpx_path=gpx, transcript_path=voice,
            ))
            lines = result.mismatches_path.read_text().splitlines()
            expected = [
                f"event {i}: stated {swaps.get(cardinal, cardinal)}, observed bearing "
                for i, cardinal in enumerate(stated)
                if cardinal in flagged
            ]
            assert len(lines) == len(expected)
            for line, start in zip(lines, expected):
                assert line.startswith(start)


_OPPOSITE = {"North": "South", "South": "North", "East": "West", "West": "East"}


class TestCardinalCheck:
    """The cardinal check over whole runs: a cardinal as planted is never
    flagged, and each planted wrong one on exactly one line."""

    def test_each_flipped_cardinal_is_flagged_once(self, tmp_path):
        plan = RoutePlan(
            legs=parse_legs("600R,500L,700U,400R,300L,500"), seed=11, noise_sigma_m=3.0
        )
        corpus = generate_instructions(plan, "cardinal-heavy")
        files = write_corpus(corpus, tmp_path / "corpus")
        assert run_pipeline(config_for(files, tmp_path / "out")).mismatches_path.read_text() == ""
        doc = json.loads(files["transcript.json"].read_text())
        cues = [e.stated_cardinal for e in corpus.ground_truth.instructions]
        assert sum(cardinal is not None for cardinal in cues) == 5
        for i, cardinal in enumerate(cues):
            if cardinal is None:
                continue
            flipped = json.loads(json.dumps(doc))
            segment = flipped["segments"][i]
            segment["text"] = segment["text"].replace(
                f"head {cardinal}", f"head {_OPPOSITE[cardinal]}"
            )
            voice = tmp_path / f"flipped-{i}.json"
            voice.write_text(json.dumps(flipped))
            out = tmp_path / f"out-{i}"
            result = run_pipeline(config_for(files, out, transcript_path=voice))
            line, = result.mismatches_path.read_text().splitlines()
            assert line.startswith(f"event {i}: stated {_OPPOSITE[cardinal]}, observed bearing ")
            # The observed bearing is the planted cardinal's, give or take.
            observed = float(line.rsplit(" ", 1)[1])
            planted = {"North": 0.0, "East": 90.0, "South": 180.0, "West": 270.0}[cardinal]
            assert abs((observed - planted + 180.0) % 360.0 - 180.0) <= 45.0

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_acceptance_drives_write_no_cardinal_line(self, noisy):
        # The cardinal-heavy drives of acceptance 5, clean and noisy.
        for i in range(STYLES.index("cardinal-heavy"), 100, len(STYLES)):
            plan = RoutePlan(
                legs=parse_legs(ACCEPTANCE_PLANS[i % len(ACCEPTANCE_PLANS)]),
                seed=1000 + i if noisy else i,
                speed_mps=25.0 if noisy else 15.0,
                noise_sigma_m=3.0 if noisy else 0.0,
            )
            assert cardinal_lines(generate_instructions(plan, "cardinal-heavy")) == [], i


class TestReportCountsTriads:
    """report.txt counts what triads.jsonl holds, so ``stats`` over a run's
    own triads prints that run's report."""

    @hsettings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        legs=st.sampled_from(["300R,300", "400L,300R,300", "300R,400L,300L,300"]),
        zero_length=st.lists(
            st.tuples(
                st.integers(0, 99),
                st.sampled_from(
                    ["Keep left at the stop sign.", "Turn right.", "Head north."]
                ),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_stats_over_triads_prints_the_report(
        self, tmp_path_factory, seed, legs, zero_length
    ):
        root = tmp_path_factory.mktemp("report")
        files, _ = generated(root, seed=seed, legs=legs)
        doc = json.loads(files["transcript.json"].read_text())
        cues = doc["segments"]
        # Each planted segment takes a cue's instant, so one of the two
        # events there has an empty window and no triad.
        doc["segments"] = cues + [
            {"start": cues[i % len(cues)]["start"],
             "end": cues[i % len(cues)]["start"], "text": text}
            for i, text in zero_length
        ]
        files["transcript.json"].write_text(json.dumps(doc))
        out = root / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["pipeline", "--gpx", str(files["track.gpx"]),
                         "--transcript", str(files["transcript.json"]),
                         "--out", str(out), "--source-label", "SRC"]) == 0
            start = stdout.tell()
            assert main(["stats", f"SRC={out / 'triads.jsonl'}"]) == 0
        assert stdout.getvalue()[start:] == (out / "report.txt").read_text()


class TestOneWarningPerLostInstruction:
    """Each transcript segment that yields no triad leaves exactly one
    manifest warning, from the stage that lost it."""

    @hsettings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        legs=st.sampled_from(["300R,300", "400L,300R,300", "300R,400L,300L,300"]),
        # (cue, start relative to the cue's start, length): cues last 2 s,
        # so a wordless segment may fall before, inside or after one.
        wordless=st.lists(
            st.tuples(st.integers(0, 99), st.floats(-1, 3), st.floats(0, 2)),
            max_size=3,
        ),
        out_of_span=st.integers(0, 3),
        zero_length=st.lists(st.integers(0, 99), max_size=3),
    )
    def test_lost_segments_are_counted_once(
        self, tmp_path_factory, seed, legs, wordless, out_of_span, zero_length
    ):
        root = tmp_path_factory.mktemp("lost")
        files, _ = generated(root, seed=seed, legs=legs)
        doc = json.loads(files["transcript.json"].read_text())
        cues = doc["segments"]
        # A wordless segment is never merged, even into a cue it overlaps.
        spans = [(cues[i % len(cues)]["start"] + at, n) for i, at, n in wordless]
        # A zero-length segment at a cue's start ends its window where the
        # cue's own begins, so one of the two has an empty window.
        starts = [cues[i % len(cues)]["start"] for i in zero_length]
        planted = (
            [{"start": s, "end": s + n, "text": "..."} for s, n in spans]
            + [{"start": 1e5 + i, "end": 1e5 + i, "text": "Turn left."}
               for i in range(out_of_span)]
            + [{"start": s, "end": s, "text": "Keep going."} for s in starts]
        )
        doc["segments"] = planted + cues
        files["transcript.json"].write_text(json.dumps(doc))
        result = run_pipeline(config_for(files, root / "out", video_meta_path=None))
        warnings = json.loads((result.out_dir / "manifest.json").read_text())["warnings"]
        a, b, c = len(wordless), out_of_span, len(zero_length)
        assert len(warnings) == result.warning_count == a + b + c, warnings
        assert sum("has no classifiable text" in w for w in warnings) == a
        assert sum("is outside the track span" in w for w in warnings) == b
        assert sum("action window is empty" in w for w in warnings) == c
        assert result.event_count == len(doc["segments"]) - a - b
        assert result.segment_count == result.event_count - c
        assert len(result.triads_path.read_text().splitlines()) == result.segment_count

    def test_wordless_segment_inside_a_cue_is_not_merged(self, tmp_path):
        files, _ = generated(tmp_path, seed=0, legs="300R,300")
        doc = json.loads(files["transcript.json"].read_text())
        cue = doc["segments"][0]
        assert (cue["start"], cue["end"]) == (10.0, 12.0)
        doc["segments"].append({"start": 10, "end": 11, "text": "..."})
        files["transcript.json"].write_text(json.dumps(doc))
        result = run_pipeline(config_for(files, tmp_path / "out", video_meta_path=None))
        assert json.loads((result.out_dir / "manifest.json").read_text())["warnings"] == [
            "segment at 2024-06-01T12:00:10.000Z has no classifiable text ('...'); "
            "dropped"
        ]
        first = json.loads(result.triads_path.read_text().splitlines()[0])
        assert first["text"] == cue["text"]

    @pytest.mark.parametrize("text", ["", "   ", "\t"])
    def test_blank_segment_warns_like_a_wordless_one(self, tmp_path, text):
        files, _ = generated(tmp_path, seed=0, legs="300R,300")
        doc = json.loads(files["transcript.json"].read_text())
        doc["segments"].append({"start": 10, "end": 11, "text": text})
        files["transcript.json"].write_text(json.dumps(doc))
        result = run_pipeline(config_for(files, tmp_path / "out", video_meta_path=None))
        assert json.loads((result.out_dir / "manifest.json").read_text())["warnings"] == [
            "segment at 2024-06-01T12:00:10.000Z has no classifiable text (''); dropped"
        ]
        assert result.event_count == len(doc["segments"]) - 1

    def test_only_blank_segments_is_no_usable_events(self, tmp_path):
        files, _ = generated(tmp_path)
        doc = json.loads(files["transcript.json"].read_text())
        for segment in doc["segments"]:
            segment["text"] = " "
        files["transcript.json"].write_text(json.dumps(doc))
        with pytest.raises(NoUsableEvents):
            run_pipeline(config_for(files, tmp_path / "out"))

    def test_empty_window_warns_once(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--seed", "1", "--out", str(corpus)]) == 0
        doc = json.loads((corpus / "transcript.json").read_text())
        first = doc["segments"][0]
        doc["segments"].insert(0, dict(first, end=first["start"]))
        (corpus / "transcript.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript",
                     str(corpus / "transcript.json"), "--out", str(tmp_path / "d")]) == 0
        assert "warnings: 1\n" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["warnings"] == [
            "event 0: action window is empty after clamping to the track span; "
            "no segment emitted"
        ]

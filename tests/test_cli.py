"""Command-line interface: subcommands, config merging, exit codes."""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import drivetriad
import drivetriad.cli
from drivetriad import classify
from drivetriad.core import MAX_INSTANT_MS
from drivetriad.emitter import labels_fragment
from drivetriad.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_NOINPUT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from drivetriad.synth import DEFAULT_LEGS, DEFAULT_STYLE, RoutePlan


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_corpus(tmp_path, capsys, seed=7, extra=()):
    corpus_dir = tmp_path / "corpus"
    code, _, _ = run(
        ["synth", "--seed", str(seed), "--out", str(corpus_dir), *extra], capsys
    )
    assert code == EXIT_OK
    return corpus_dir


def child_env(unbuffered=True):
    """The environment for a child CLI process: it must import the same
    package as this process, which may come from the checkout's src/
    rather than an installed copy."""
    package_root = str(Path(drivetriad.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def write_srt(path, texts):
    """One cue per text, cue i from i s to i.5 s."""
    path.write_text("".join(
        f"{i}\n00:{i // 60:02d}:{i % 60:02d},000 --> 00:{i // 60:02d}:{i % 60:02d},500\n"
        f"{text}\n\n"
        for i, text in enumerate(texts, start=1)
    ))
    return path


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == EXIT_USAGE
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == EXIT_USAGE

    def test_version_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "drivetriad.cli", "--version"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("drivetriad ")


class TestSynthCommand:
    def test_writes_corpus(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        for name in ("track.gpx", "transcript.json", "video_meta.json", "ground_truth.json"):
            assert (corpus / name).exists()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a = make_corpus(tmp_path / "a", capsys, seed=5)
        b = make_corpus(tmp_path / "b", capsys, seed=5)
        assert (a / "track.gpx").read_bytes() == (b / "track.gpx").read_bytes()

    def test_help_states_each_default(self, capsys):
        code, out, _ = run(["synth", "--help"], capsys)
        assert code == EXIT_OK
        # The option list, rewrapped onto one line.
        options = " ".join(out.partition("options:")[2].split())
        for flag, default in [
            ("--seed", RoutePlan.seed),
            ("--legs", DEFAULT_LEGS),
            ("--style", DEFAULT_STYLE),
            ("--noise-sigma-m", RoutePlan.noise_sigma_m),
            ("--speed-mps", RoutePlan.speed_mps),
            ("--sample-hz", RoutePlan.sample_hz),
        ]:
            pattern = rf"{flag} [^(]*\(default {re.escape(str(default))}\)"
            assert re.search(pattern, options), flag

    def test_bad_legs_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(
            ["synth", "--legs", "100X", "--out", str(tmp_path / "x")], capsys
        )
        assert code == EXIT_USAGE

    def test_bad_style_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(
            ["synth", "--style", "operatic", "--out", str(tmp_path / "x")], capsys
        )
        assert code == EXIT_USAGE


class TestClassifyCommand:
    def test_stdout_records(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        code, out, _ = run(
            ["classify", "--transcript", str(corpus / "transcript.json")], capsys
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        truth = json.loads((corpus / "ground_truth.json").read_text())
        assert len(records) == len(truth["instructions"])
        for record, expected in zip(records, truth["instructions"]):
            assert record["text"] == expected["text"]
            assert record["classes"] == expected["classes"]
            for ev in record["evidence"]:
                assert record["text"][ev["start"] : ev["end"]] == ev["matched"]

    def test_record_is_the_triads_labels_bytes(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        code, out, _ = run(
            ["classify", "--transcript", str(corpus / "transcript.json")], capsys
        )
        assert code == EXIT_OK
        code, _, _ = run(
            ["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript",
             str(corpus / "transcript.json"), "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == EXIT_OK
        triads = (tmp_path / "d" / "triads.jsonl").read_text().splitlines()
        records = out.splitlines()
        assert len(records) == len(triads) > 0
        for record, triad in zip(records, triads):
            assert record.startswith('{"text": ') and record.endswith("}")
            assert ', ' + record[1:-1] + ', "geo": ' in triad

    def test_punctuation_only_segment_is_dropped(self, tmp_path, capsys):
        srt = tmp_path / "voice.srt"
        srt.write_text(
            "1\n00:00:01,000 --> 00:00:02,000\nTurn left.\n\n"
            "2\n00:00:03,500 --> 00:00:04,000\n...\n\n"
            "3\n00:00:05,000 --> 00:00:06,000\nStop.\n"
        )
        code, out, err = run(
            ["classify", "--transcript", str(srt), "--transcript-format", "srt"], capsys
        )
        assert code == EXIT_OK
        assert [json.loads(line)["text"] for line in out.splitlines()] == [
            "Turn left.", "Stop.",
        ]
        assert err.splitlines() == [
            f"warning: {srt}: segment at 3.500 s has no classifiable text ('...'); dropped"
        ]

    def test_blank_segment_is_dropped_with_a_warning(self, tmp_path, capsys):
        # A cue with no text lines, and one whose only line is blank.
        srt = tmp_path / "blank.srt"
        srt.write_text(
            "1\n00:00:01,000 --> 00:00:02,000\nTurn left.\n\n"
            "2\n00:00:03,500 --> 00:00:04,000\n   \n\n"
            "3\n00:00:05,000 --> 00:00:06,000\n\n"
            "4\n00:00:07,000 --> 00:00:08,000\nStop.\n"
        )
        code, out, err = run(
            ["classify", "--transcript", str(srt), "--transcript-format", "srt"], capsys
        )
        assert code == EXIT_OK
        assert [json.loads(line)["text"] for line in out.splitlines()] == [
            "Turn left.", "Stop.",
        ]
        assert err.splitlines() == [
            f"warning: {srt}: segment at {start} s has no classifiable text (''); dropped"
            for start in ("3.500", "5.000")
        ]

    def test_only_blank_segments_warn_each(self, tmp_path, capsys):
        blank = tmp_path / "blank.json"
        blank.write_text('{"segments": [{"start": 1, "end": 2, "text": " "}, '
                         '{"start": 3, "end": 4, "text": ""}]}')
        code, out, err = run(["classify", "--transcript", str(blank)], capsys)
        assert (code, out) == (EXIT_OK, "")
        assert err.splitlines() == [
            f"warning: {blank}: segment at {start} s has no classifiable text (''); dropped"
            for start in ("1.000", "3.000")
        ]

    def test_missing_file_is_noinput(self, capsys):
        code, _, _ = run(
            ["classify", "--transcript", "/nonexistent/words.json"], capsys
        )
        assert code == EXIT_NOINPUT

    def test_repeated_text_is_labelled_once(self, tmp_path, capsys, monkeypatch):
        texts = ["Turn left.", "...", "In 500 feet, turn right onto Main Street.",
                 "Turn left.", "...", "Turn left."]
        srt = write_srt(tmp_path / "voice.srt", texts)
        calls = Counter()

        def counted(text, lex=None):
            calls[text] += 1
            return classify(text, lex)

        monkeypatch.setattr(drivetriad.cli, "classify", counted)
        code, out, err = run(
            ["classify", "--transcript", str(srt), "--transcript-format", "srt"], capsys
        )
        assert code == EXIT_OK
        assert calls == {text: 1 for text in texts}
        # The bytes per-segment labelling gives, in transcript order.
        expected = ""
        for text in texts:
            if text != "...":
                labeled = classify(text)
                fragment = labels_fragment(text, labeled.evidence)
                expected += "{" + fragment + "}\n"
        assert out == expected
        assert err.splitlines() == [
            f"warning: {srt}: segment at {start} s has no classifiable text "
            "('...'); dropped"
            for start in ("2.000", "5.000")
        ]

    def test_empty_transcript_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"segments": []}')
        code, _, err = run(["classify", "--transcript", str(empty)], capsys)
        assert code == EXIT_DATA
        assert str(empty) in err
        assert "EmptyTranscript" in err

    def test_bad_format_is_usage_error(self, tmp_path, capsys):
        any_file = tmp_path / "words.json"
        any_file.write_text("{}")
        code, _, _ = run(
            [
                "classify",
                "--transcript",
                str(any_file),
                "--transcript-format",
                "interpretive-dance",
            ],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(["classify"], capsys)
        assert code == EXIT_USAGE
        assert "--transcript" in err

    def test_srt_input(self, tmp_path, capsys):
        srt = tmp_path / "voice.srt"
        srt.write_text(
            "1\n00:00:01,000 --> 00:00:02,000\nTurn left onto Oak Street.\n"
        )
        code, out, _ = run(
            ["classify", "--transcript", str(srt), "--transcript-format", "srt"],
            capsys,
        )
        assert code == EXIT_OK
        record = json.loads(out.splitlines()[0])
        assert record["classes"] == ["Road", "Turn"]

    def test_lexicon_override(self, tmp_path, capsys):
        srt = tmp_path / "voice.srt"
        srt.write_text("1\n00:00:01,000 --> 00:00:02,000\nTake the Kings Motorway.\n")
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"road_suffixes": ["motorway"]}))
        code, out, _ = run(
            [
                "classify",
                "--transcript",
                str(srt),
                "--transcript-format",
                "srt",
                "--lexicon",
                str(lexicon),
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert "Road" in json.loads(out.splitlines()[0])["classes"]


class TestPipelineCommand:
    def test_full_run(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        out_dir = tmp_path / "dataset"
        code, out, _ = run(
            [
                "pipeline",
                "--gpx",
                str(corpus / "track.gpx"),
                "--transcript",
                str(corpus / "transcript.json"),
                "--video-meta",
                str(corpus / "video_meta.json"),
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert "events: " in out and "wrote: " in out
        for name in ("triads.jsonl", "manifest.json", "report.txt", "mismatches.txt"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["event_count"] > 0
        assert manifest["segment_count"] > 0

    def test_short_turn_plan_gives_one_event_per_cue(self, tmp_path, capsys):
        # One 60 m leg: the turn cue sits at its midpoint, then the arrival.
        corpus = make_corpus(tmp_path, capsys, extra=("--legs", "60R"))
        code, out, _ = run(
            ["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript",
             str(corpus / "transcript.json"), "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == EXIT_OK
        assert "events: 2\n" in out

    @pytest.mark.parametrize(
        "name", ["triads.jsonl", "manifest.json", "report.txt", "mismatches.txt"]
    )
    def test_unwritable_artifact_is_io_error_naming_it(self, tmp_path, capsys, name):
        corpus = make_corpus(tmp_path, capsys)
        out_dir = tmp_path / "dataset"
        (out_dir / name).mkdir(parents=True)
        code, _, err = run(
            ["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript",
             str(corpus / "transcript.json"), "--out", str(out_dir)],
            capsys,
        )
        assert code == EXIT_INTERNAL
        assert f"internal error: IoError: cannot write {out_dir / name}" in err
        assert "Traceback" not in err
        # The artifacts written before the failure are removed again.
        assert [p.name for p in out_dir.iterdir()] == [name]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("name", ["triads.jsonl", "manifest.json", "report.txt"])
    def test_full_disk_leaves_no_artifact(self, tmp_path, capsys, name):
        # The open succeeds and the write fails, so the file being written
        # goes too, with every artifact written before it. (This drive has
        # no mismatches, and an empty write to /dev/full succeeds.)
        corpus = make_corpus(tmp_path, capsys)
        out_dir = tmp_path / "dataset"
        out_dir.mkdir()
        (out_dir / name).symlink_to("/dev/full")
        code, _, err = run(
            ["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript",
             str(corpus / "transcript.json"), "--out", str(out_dir)],
            capsys,
        )
        assert code == EXIT_INTERNAL
        assert f"internal error: IoError: cannot write {out_dir / name}: " in err
        assert list(out_dir.iterdir()) == []

    def test_missing_gpx_flag_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["pipeline", "--transcript", "x.json", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_USAGE
        assert "--gpx" in err

    def test_missing_gpx_file_is_noinput(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        code, _, _ = run(
            [
                "pipeline",
                "--gpx",
                str(tmp_path / "never.gpx"),
                "--transcript",
                str(corpus / "transcript.json"),
                "--out",
                str(tmp_path / "d"),
            ],
            capsys,
        )
        assert code == EXIT_NOINPUT

    def test_garbage_gpx_is_data_error(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        bad = tmp_path / "bad.gpx"
        bad.write_text("this is not xml")
        code, _, _ = run(
            [
                "pipeline",
                "--gpx",
                str(bad),
                "--transcript",
                str(corpus / "transcript.json"),
                "--out",
                str(tmp_path / "d"),
            ],
            capsys,
        )
        assert code == EXIT_DATA

    def _run_on(self, tmp_path, capsys, corpus, gpx, video_meta):
        return run(
            [
                "pipeline",
                "--gpx",
                str(gpx),
                "--transcript",
                str(corpus / "transcript.json"),
                "--video-meta",
                str(video_meta),
                "--out",
                str(tmp_path / "d"),
            ],
            capsys,
        )

    def test_non_finite_elevation_is_data_error(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        gpx = corpus / "track.gpx"
        lines = gpx.read_text().splitlines(keepends=True)
        trkpts = [i for i, line in enumerate(lines) if "<trkpt" in line]
        # A fix well inside the drive, so it lies in some action window.
        target = trkpts[len(trkpts) // 2]
        lines[target] = lines[target].replace("<time>", "<ele>nan</ele><time>")
        gpx.write_text("".join(lines))
        code, _, err = self._run_on(
            tmp_path, capsys, corpus, gpx, corpus / "video_meta.json"
        )
        assert code == EXIT_DATA
        assert f"trkpt {len(trkpts) // 2}: elevation is not finite" in err
        assert not (tmp_path / "d" / "triads.jsonl").exists()

    @pytest.mark.parametrize("fps", ["NaN", "Infinity"])
    def test_non_finite_fps_is_data_error(self, tmp_path, capsys, fps):
        corpus = make_corpus(tmp_path, capsys)
        sidecar = corpus / "video_meta.json"
        doc = json.loads(sidecar.read_text())
        sidecar.write_text(
            '{"start_time": "%s", "fps": %s, "frame_count": %d}'
            % (doc["start_time"], fps, doc["frame_count"])
        )
        code, _, err = self._run_on(tmp_path, capsys, corpus, corpus / "track.gpx", sidecar)
        assert code == EXIT_DATA
        assert "InvalidFps" in err

    def test_huge_fps_is_past_the_last_frame(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        sidecar = corpus / "video_meta.json"
        doc = json.loads(sidecar.read_text())
        doc["fps"] = 1e308
        sidecar.write_text(json.dumps(doc))
        code, _, _ = self._run_on(tmp_path, capsys, corpus, corpus / "track.gpx", sidecar)
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        # Every cue falls after the video's start, so none of them has a frame.
        triads = (tmp_path / "d" / "triads.jsonl").read_text().splitlines()
        notes = [w for w in manifest["warnings"] if ": no video frame at " in w]
        assert len(notes) == len(triads) > 0

    def test_config_file_supplies_options(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        out_dir = tmp_path / "dataset"
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "gpx": str(corpus / "track.gpx"),
                    "transcript": str(corpus / "transcript.json"),
                    "video-meta": str(corpus / "video_meta.json"),
                    "out": str(out_dir),
                    "source-label": "from-config",
                }
            )
        )
        code, _, _ = run(["pipeline", "--config", str(config)], capsys)
        assert code == EXIT_OK
        report = (out_dir / "report.txt").read_text()
        assert "from-config" in report

    def test_flags_override_config(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "gpx": str(corpus / "track.gpx"),
                    "transcript": str(corpus / "transcript.json"),
                    "out": str(tmp_path / "from-config"),
                    "source-label": "config-label",
                }
            )
        )
        flag_out = tmp_path / "from-flag"
        code, _, _ = run(
            [
                "pipeline",
                "--config",
                str(config),
                "--out",
                str(flag_out),
                "--source-label",
                "flag-label",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert flag_out.exists()
        assert not (tmp_path / "from-config").exists()
        assert "flag-label" in (flag_out / "report.txt").read_text()

    def test_invalid_config_json_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{broken")
        code, _, _ = run(["pipeline", "--config", str(config)], capsys)
        assert code == EXIT_DATA

    def test_manifest_records_basenames(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, capsys)
        out_dir = tmp_path / "dataset"
        code, _, _ = run(
            [
                "pipeline",
                "--gpx",
                str(corpus / "track.gpx"),
                "--transcript",
                str(corpus / "transcript.json"),
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [i["path"] for i in manifest["inputs"]] == [
            "track.gpx",
            "transcript.json",
        ]

    def test_runs_on_copies_elsewhere_write_the_same_bytes(
        self, tmp_path, capsys, monkeypatch
    ):
        # The four files depend on the input bytes and names and the
        # settings only: not on the clock, the directories or the working
        # directory of the run.
        corpus = make_corpus(tmp_path, capsys)
        names = ("track.gpx", "transcript.json", "video_meta.json")
        outs = []
        for cwd, copy, out in (
            (tmp_path / "a", Path("corpus"), Path("dataset")),
            (tmp_path, tmp_path / "b" / "deep" / "copy", tmp_path / "b" / "out"),
        ):
            shutil.copytree(corpus, cwd / copy)
            monkeypatch.chdir(cwd)
            gpx, transcript, video = (str(copy / name) for name in names)
            code, _, err = run(
                ["pipeline", "--gpx", gpx, "--transcript", transcript,
                 "--video-meta", video, "--out", str(out)],
                capsys,
            )
            assert code == EXIT_OK, err
            outs.append(cwd / out)
        a, b = outs
        for name in ("triads.jsonl", "manifest.json", "report.txt", "mismatches.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert json.loads((a / "manifest.json").read_text())["created_at_utc_ms"] is None


class TestStatsCommand:
    def _dataset(self, tmp_path, capsys, seed=7):
        corpus = make_corpus(tmp_path, capsys, seed=seed)
        out_dir = tmp_path / f"dataset-{seed}"
        code, _, _ = run(
            [
                "pipeline",
                "--gpx",
                str(corpus / "track.gpx"),
                "--transcript",
                str(corpus / "transcript.json"),
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == EXIT_OK
        return out_dir / "triads.jsonl"

    def test_stdout_report(self, tmp_path, capsys):
        triads = self._dataset(tmp_path, capsys)
        code, out, _ = run(["stats", f"drive-a={triads}"], capsys)
        assert code == EXIT_OK
        assert "Per-class instruction counts" in out
        assert "drive-a" in out

    def test_bare_path_uses_stem_label(self, tmp_path, capsys):
        triads = self._dataset(tmp_path, capsys)
        code, out, _ = run(["stats", str(triads)], capsys)
        assert code == EXIT_OK
        assert "| triads" in out

    def test_multiple_sources_and_out_file(self, tmp_path, capsys):
        t1 = self._dataset(tmp_path / "one", capsys, seed=3)
        t2 = self._dataset(tmp_path / "two", capsys, seed=4)
        report_path = tmp_path / "report.txt"
        code, out, _ = run(
            ["stats", f"a={t1}", f"b={t2}", "--out", str(report_path)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        text = report_path.read_text()
        assert "| a" in text.splitlines()[2] and "| b" not in text.splitlines()[0]

    def test_corrupt_triads_is_data_error_with_line(self, tmp_path, capsys):
        triads = self._dataset(tmp_path, capsys)
        data = triads.read_bytes() + b"{broken\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        code, _, err = run(["stats", str(bad)], capsys)
        assert code == EXIT_DATA
        last_line = len(data.splitlines())
        assert f"error: {bad}: ParseError: line {last_line}: " in err

    def test_non_finite_elevation_is_data_error_with_line(self, tmp_path, capsys):
        triads = self._dataset(tmp_path, capsys)
        lines = triads.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["geo"]["ele"] = float("nan")
        lines[1] = json.dumps(record).encode() + b"\n"
        bad = tmp_path / "nan.jsonl"
        bad.write_bytes(b"".join(lines))
        code, _, err = run(["stats", str(bad)], capsys)
        assert code == EXIT_DATA
        assert f"error: {bad}: ParseError: line 2: ele must be a finite number, got nan" in err

    @pytest.mark.parametrize(
        "path, value, expected",
        [
            (("heading_deg",), float("inf"), "a finite number, got inf"),
            (("action", "distance_m"), float("inf"), "a finite number, got inf"),
            (("heading_deg",), "nan", "a finite number, got 'nan'"),
            (("text",), None, "a string, got None"),
            (("id",), "7", "an integer, got '7'"),
            (("frame_index",), 2.9, "an integer, got 2.9"),
            (("t_utc_ms",), True, "an integer, got True"),
            (("evidence", 0, "start"), 1.0, "an integer, got 1.0"),
            (("action", "waypoints", 0, "lat"), False, "a finite number, got False"),
            (("action", "maneuver"), None, "a string, got None"),
            (("classes",), {"Turn": 1}, "an array, got {'Turn': 1}"),
        ],
        ids=[
            "heading-infinity", "distance-infinity", "heading-string", "text-null",
            "id-string", "frame-index-float", "time-bool", "evidence-start-float",
            "lat-bool", "maneuver-null", "classes-object",
        ],
    )
    def test_value_the_writer_never_emits_is_data_error(
        self, tmp_path, capsys, path, value, expected
    ):
        code, err, bad = self._stats_on_edited_record(tmp_path, capsys, path, value)
        assert code == EXIT_DATA
        assert f"error: {bad}: ParseError: line 1: {path[-1]} must be {expected}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path", [("heading_deg",), ("geo", "ele"), ("action", "frame_end")]
    )
    def test_absent_nullable_field_is_data_error(self, tmp_path, capsys, path):
        # The writer always writes these keys, null or not.
        code, err, bad = self._stats_on_edited_record(tmp_path, capsys, path)
        assert code == EXIT_DATA
        assert f"error: {bad}: ParseError: line 1: missing field {path[-1]!r}\n" in err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("classes",), ["Foo"], "unknown class 'Foo'"),
            (("evidence", 0, "class"), "Foo", "unknown class 'Foo'"),
            (("action", "maneuver"), "Spin", "unknown maneuver 'Spin'"),
        ],
        ids=["classes", "evidence-class", "maneuver"],
    )
    def test_unknown_name_is_data_error(self, tmp_path, capsys, path, value, message):
        code, err, bad = self._stats_on_edited_record(tmp_path, capsys, path, value)
        assert code == EXIT_DATA
        assert f"error: {bad}: ParseError: line 1: {message}\n" in err

    def test_half_null_frame_range_is_data_error(self, tmp_path, capsys):
        # pipeline writes a frame range with both ends or with neither.
        code, err, bad = self._stats_on_edited_record(
            tmp_path, capsys, ("action", "frame_start"), 900
        )
        assert code == EXIT_DATA
        assert (
            f"error: {bad}: ParseError: line 1: frame range has one null end: [900, None]\n"
        ) in err

    def test_empty_evidence_span_is_data_error(self, tmp_path, capsys):
        # classify never writes an empty span, even one of a class the
        # record has.
        triads = self._dataset(tmp_path, capsys)
        record = json.loads(triads.read_bytes().splitlines()[0])
        first = record["evidence"][0]
        record["evidence"].append({"class": first["class"], "start": 0, "end": 0, "matched": ""})
        bad = tmp_path / "edited.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        code, _, err = run(["stats", str(bad)], capsys)
        assert code == EXIT_DATA
        assert f"error: {bad}: ParseError: line 1: evidence [0, 0] is not '' in the text\n" in err

    @pytest.mark.parametrize("edit", ["missing", "extra", "repeated"])
    def test_classes_the_evidence_does_not_give_are_data_error(self, tmp_path, capsys, edit):
        # stats reads only records pipeline could write: the classes of the
        # evidence, each once.
        triads = self._dataset(tmp_path, capsys)
        classes = json.loads(triads.read_bytes().splitlines()[0])["classes"]
        extra = next(c.value for c in drivetriad.CommandClass if c.value not in classes)
        value = {
            "missing": classes[1:],
            "extra": sorted([*classes, extra]),
            "repeated": [classes[0], *classes],
        }[edit]
        code, err, bad = self._stats_on_edited_record(tmp_path, capsys, ("classes",), value)
        assert code == EXIT_DATA
        assert (
            f"error: {bad}: ParseError: line 1: classes {value!r} are not the "
            "evidence's classes, each once\n"
        ) in err

    def _stats_on_edited_record(self, tmp_path, capsys, path, *value):
        """Run stats on the first triad with the field at ``path`` set to
        ``value``, or deleted when no value is given."""
        triads = self._dataset(tmp_path, capsys)
        record = json.loads(triads.read_bytes().splitlines()[0])
        target = record
        for key in path[:-1]:
            target = target[key]
        if value:
            target[path[-1]] = value[0]
        else:
            del target[path[-1]]
        bad = tmp_path / "edited.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        code, _, err = run(["stats", str(bad)], capsys)
        return code, err, bad

    @pytest.mark.parametrize(
        "path", [("t_utc_ms",), ("action", "waypoints", 0, "t_ms")], ids=["event", "waypoint"]
    )
    def test_time_past_9999_is_data_error(self, tmp_path, capsys, path):
        code, err, bad = self._stats_on_edited_record(
            tmp_path, capsys, path, MAX_INSTANT_MS + 1
        )
        assert code == EXIT_DATA
        assert (
            f"error: {bad}: ParseError: line 1: timestamp after "
            f"9999-12-31T23:59:59.999Z: {MAX_INSTANT_MS + 1}\n"
        ) in err

    def test_inverted_frame_range_in_triads_is_data_error(self, tmp_path, capsys):
        triads = self._dataset(tmp_path, capsys)
        record = json.loads(triads.read_bytes().splitlines()[0])
        record["action"]["frame_start"], record["action"]["frame_end"] = 50, 10
        bad = tmp_path / "inverted.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        code, _, err = run(["stats", str(bad)], capsys)
        assert code == EXIT_DATA
        assert f"error: {bad}: ParseError: line 1: frame range inverted: [50, 10]" in err

    def test_missing_file_is_noinput(self, capsys):
        code, _, _ = run(["stats", "/nope/triads.jsonl"], capsys)
        assert code == EXIT_NOINPUT

    def test_empty_source_renders_zero_column(self, tmp_path, capsys):
        full = self._dataset(tmp_path, capsys)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        code, out, _ = run(
            ["stats", f"drive={full}", f"void={empty}"], capsys
        )
        assert code == EXIT_OK
        header = out.splitlines()[2]
        assert "void" in header
        assert "Total events: " in out


_LONG_INT = '{"x": ' + "9" * 5000 + "}"
_DEEP = "[" * 200_000 + "]" * 200_000


class TestHostileInput:
    """Each bad setting or input file ends in a defined exit code, no traceback."""

    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"jitter_floor_m": 1.0}, "unknown config key 'jitter_floor_m'"),
            ({"gps_offset_ms": "abc"}, "gps_offset_ms"),
            ({"source_label": 5}, "source_label"),
            ({"audio_start": 5}, "audio_start"),
            ({"gpx": 5}, "gpx must be"),
            ({"audio_offset_ms": 0.5}, "audio_offset_ms"),
            ({"relativize": True}, "unknown config key 'relativize'"),
            ({"tolerance_ms": 5000}, "unknown config key 'tolerance_ms'"),
            ({"gps_offset_ms": True}, "gps_offset_ms"),
            ({"gps_offset_ms": 1.9}, "gps_offset_ms"),
            ({"audio_start": "garbage"}, "audio_start: bad ISO-8601 timestamp"),
            ({"audio_start": "1969-01-01T00:00:00Z"}, "audio_start: timestamp before"),
            ({"audio_start": "9999-12-31T23:59:59.9999Z"}, "audio_start: timestamp after"),
            ({"source_label": ""}, "source_label must be a non-empty string, got ''"),
            ({"gps_offset_ms": "5000"}, "gps_offset_ms"),
        ],
    )
    def test_bad_pipeline_setting_is_usage_error(self, tmp_path, capsys, settings, field):
        # Settings are checked before any input file is opened, so the
        # paths need not exist.
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "gpx": str(tmp_path / "track.gpx"),
                    "transcript": str(tmp_path / "transcript.json"),
                    "out": str(tmp_path / "d"),
                    **settings,
                }
            )
        )
        code, _, err = run(["pipeline", "--config", str(config)], capsys)
        assert code == EXIT_USAGE
        assert field in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    # field: the PipelineConfig field a pipeline option sets, which the
    # message must not name in place of the option.
    @pytest.mark.parametrize(
        "command, option, field",
        [
            ("pipeline", "out", "out_dir"),
            ("pipeline", "gpx", "gpx_path"),
            ("pipeline", "transcript", "transcript_path"),
            ("pipeline", "video_meta", "video_meta_path"),
            ("pipeline", "lexicon", "lexicon_path"),
            ("classify", "transcript", "transcript"),
            ("classify", "lexicon", "lexicon"),
            ("stats", "out", "out"),
            ("synth", "out", "out"),
        ],
    )
    def test_empty_path_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, option, field, via
    ):
        # Path("") reads as the current directory; an empty string is no
        # path, so nothing is read or written there.
        corpus = make_corpus(tmp_path, capsys)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        settings = {
            "pipeline": {"gpx": corpus / "track.gpx", "out": tmp_path / "d",
                         "transcript": corpus / "transcript.json"},
            "classify": {"transcript": corpus / "transcript.json"},
            "stats": {},
            "synth": {"out": tmp_path / "s"},
        }[command]
        settings = {name: str(path) for name, path in settings.items()}
        settings[option] = ""
        args = [command, *([str(empty)] if command == "stats" else [])]
        if via == "config":
            config = tmp_path / "run.json"
            config.write_text(json.dumps(settings))
            args += ["--config", str(config)]
        else:
            for name, value in settings.items():
                args += ["--" + name.replace("_", "-"), value]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, out, err = run(args, capsys)
        assert code == EXIT_USAGE
        assert f"{option} must be a path, got ''" in err
        assert field == option or field not in err
        assert out == ""
        assert list(cwd.iterdir()) == []
        assert not (tmp_path / "d").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "args, name",
        [
            (["stats", ""], "source ''"),
            (["stats", "{empty}", "drive="], "source 'drive='"),
            (["classify", "--config", ""], "config"),
        ],
        ids=["stats-bare", "stats-labelled", "config"],
    )
    def test_empty_positional_or_config_path_is_usage_error(
        self, tmp_path, capsys, monkeypatch, args, name
    ):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        monkeypatch.chdir(tmp_path)
        code, out, err = run([a.format(empty=empty) for a in args], capsys)
        assert code == EXIT_USAGE
        assert f"{name} must be a path, got ''" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["pipeline", "--gpx", "{dir}/track.gpx", "--transcript",
              "{dir}/transcript.json", "--out", "{dir}/d", "--source-label", ""],
             "source_label must be a non-empty string, got ''"),
            (["stats", "={dir}/empty.jsonl"],
             "source '={dir}/empty.jsonl': label must be a non-empty string, got ''"),
        ],
        ids=["pipeline-flag", "stats-source"],
    )
    def test_empty_label_is_usage_error(self, tmp_path, capsys, args, message):
        # An empty label would head an empty report column.
        corpus = make_corpus(tmp_path, capsys)
        (corpus / "empty.jsonl").write_bytes(b"")
        code, out, err = run([arg.format(dir=corpus) for arg in args], capsys)
        assert code == EXIT_USAGE
        assert message.format(dir=corpus) in err
        assert out == ""
        assert not (corpus / "d").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["pipeline", "--gpx", "{dir}/track.gpx", "--transcript",
              "{dir}/transcript.json", "--out", "{dir}/d", "--source-label", "\udcff"],
             "source_label must be valid UTF-8, got '\\udcff'"),
            (["pipeline", "--gpx", "{dir}/track.gpx", "--transcript",
              "{dir}/transcript.json", "--out", "{dir}/d", "--config", "{dir}/label.json"],
             "source_label must be valid UTF-8, got '\\udcff'"),
            (["pipeline", "--gpx", "{dir}/\udcff.gpx", "--transcript",
              "{dir}/transcript.json", "--out", "{dir}/d"],
             "source_label (by default the GPX file stem) must be valid UTF-8, "
             "got '\\udcff'"),
            (["stats", "\udcff={dir}/empty.jsonl", "--out", "{dir}/d"],
             "source '\\udcff={dir}/empty.jsonl': label must be valid UTF-8, "
             "got '\\udcff'"),
            (["stats", "{dir}/\udcff.jsonl", "--out", "{dir}/d"],
             "source '{dir}/\\udcff.jsonl': label (by default the file stem; set "
             "one with LABEL=PATH) must be valid UTF-8, got '\\udcff'"),
        ],
        ids=["pipeline-flag", "pipeline-config", "pipeline-gpx-stem",
             "stats-label", "stats-path-stem"],
    )
    def test_label_not_utf8_is_usage_error(self, tmp_path, capsys, args, message):
        # Python reads the argv byte 0xff as the lone surrogate U+DCFF,
        # which report.txt, as UTF-8, cannot hold.
        corpus = make_corpus(tmp_path, capsys)
        (corpus / "empty.jsonl").write_bytes(b"")
        (corpus / "\udcff.jsonl").write_bytes(b"")
        (corpus / "\udcff.gpx").write_bytes((corpus / "track.gpx").read_bytes())
        (corpus / "label.json").write_text('{"source_label": "\\udcff"}')
        code, out, err = run([arg.format(dir=corpus) for arg in args], capsys)
        assert code == EXIT_USAGE
        assert message.format(dir=corpus) in err
        assert out == ""
        assert not (corpus / "d").exists()

    @pytest.mark.parametrize(
        "label", ["a|b", "a\nc", "a\u2028c"], ids=["bar", "newline", "line-separator"]
    )
    @pytest.mark.parametrize(
        "route",
        ["pipeline-flag", "pipeline-config", "pipeline-gpx-stem", "stats-label",
         "stats-path-stem"],
    )
    def test_label_that_breaks_the_table_is_usage_error(
        self, tmp_path, capsys, route, label
    ):
        # A "|" or a line end (U+2028 to str.splitlines()) in a column label
        # would split the report's header row and put its columns out of line.
        corpus = make_corpus(tmp_path, capsys)
        out = str(corpus / "d")
        empty, stem_triads = corpus / "empty.jsonl", corpus / f"{label}.jsonl"
        empty.write_bytes(b"")
        stem_triads.write_bytes(b"")
        stem_gpx = corpus / f"{label}.gpx"
        stem_gpx.write_bytes((corpus / "track.gpx").read_bytes())
        config = corpus / "label.json"
        config.write_text(json.dumps({"source_label": label}))

        def pipeline(gpx="track.gpx"):
            return ["pipeline", "--gpx", str(corpus / gpx), "--transcript",
                    str(corpus / "transcript.json"), "--out", out]

        args, name = {
            "pipeline-flag": (pipeline() + ["--source-label", label], "source_label"),
            "pipeline-config": (pipeline() + ["--config", str(config)], "source_label"),
            "pipeline-gpx-stem": (
                pipeline(stem_gpx.name), "source_label (by default the GPX file stem)"
            ),
            "stats-label": (
                ["stats", f"{label}={empty}", "--out", out],
                f"source {f'{label}={empty}'!r}: label",
            ),
            "stats-path-stem": (
                ["stats", str(stem_triads), "--out", out],
                f"source {str(stem_triads)!r}: label (by default the file stem; set "
                "one with LABEL=PATH)",
            ),
        }[route]
        code, stdout, err = run(args, capsys)
        assert code == EXIT_USAGE
        assert (
            f"{name} must hold no '|', control character or line separator, got {label!r}"
            in err
        )
        assert stdout == ""
        assert not (corpus / "d").exists()

    def test_label_not_utf8_in_a_real_argv(self, tmp_path, capsys):
        # Only a real process decodes its argv bytes, with surrogateescape.
        corpus = make_corpus(tmp_path, capsys)
        proc = subprocess.run(
            [sys.executable, "-m", "drivetriad.cli", "pipeline",
             "--gpx", str(corpus / "track.gpx"),
             "--transcript", str(corpus / "transcript.json"),
             "--out", str(tmp_path / "d"), "--source-label", b"\xff"],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == EXIT_USAGE
        assert b"source_label must be valid UTF-8, got '\\udcff'" in proc.stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag", ["--gps-offset-ms", "--video-offset-ms"])
    def test_offset_before_epoch_is_data_error(self, tmp_path, capsys, flag):
        corpus = make_corpus(tmp_path, capsys)
        code, _, err = run(
            [
                "pipeline",
                "--gpx",
                str(corpus / "track.gpx"),
                "--transcript",
                str(corpus / "transcript.json"),
                "--video-meta",
                str(corpus / "video_meta.json"),
                "--out",
                str(tmp_path / "d"),
                flag,
                "-1717243200000000",
            ],
            capsys,
        )
        assert code == EXIT_DATA
        # The stream that the offset moves refuses it, and names itself.
        stream = {"--gps-offset-ms": "moves the track start", "--video-offset-ms": "video start lands"}
        assert err.startswith("error: InvalidAnchor: ")
        assert stream[flag] in err
        assert "before the epoch" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("document", [_LONG_INT, _DEEP], ids=["long-integer", "deep-nesting"])
    @pytest.mark.parametrize("flag", ["--video-meta", "--transcript", "--config", "--lexicon"])
    def test_json_limits_are_data_errors(self, tmp_path, capsys, flag, document):
        corpus = make_corpus(tmp_path, capsys)
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        paths = {
            "--gpx": corpus / "track.gpx",
            "--transcript": corpus / "transcript.json",
            "--video-meta": corpus / "video_meta.json",
            "--out": tmp_path / "d",
            flag: bad,
        }
        args = ["pipeline"]
        for name, path in paths.items():
            args += [name, str(path)]
        code, _, err = run(args, capsys)
        assert code == EXIT_DATA
        assert f"error: {bad}: ParseError: not valid JSON: " in err

    @pytest.mark.parametrize(
        "flag, old, new, key",
        [
            ("--video-meta", '"fps": 30.0', '"fps": 30.0, "fps": 25', "fps"),
            ("--transcript", '"text": ', '"text": "Turn left.", "text": ', "text"),
            ("--lexicon", "", '{"version": "a", "version": "b"}', "version"),
        ],
        ids=["video-meta", "transcript", "lexicon"],
    )
    def test_repeated_key_is_data_error(self, tmp_path, capsys, flag, old, new, key):
        # json keeps a repeated key's last value; every input document
        # refuses it instead, naming the key.
        corpus = make_corpus(tmp_path, capsys)
        paths = {
            "--gpx": corpus / "track.gpx",
            "--transcript": corpus / "transcript.json",
            "--video-meta": corpus / "video_meta.json",
            "--lexicon": tmp_path / "lexicon.json",
        }
        paths["--lexicon"].write_text("{}")
        edited = paths[flag]
        edited.write_text(edited.read_text().replace(old, new, 1) if old else new)
        args = ["pipeline", "--out", str(tmp_path / "d")]
        for name, path in paths.items():
            args += [name, str(path)]
        code, _, err = run(args, capsys)
        assert code == EXIT_DATA
        assert f"key {key!r} given twice" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--speed-mps", "inf"], "speed_mps"),
            (["--speed-mps", "nan"], "speed_mps"),
            (["--noise-sigma-m", "nan"], "noise_sigma_m"),
            (["--noise-sigma-m", "inf"], "noise_sigma_m"),
            (["--legs", "1e400R"], "leg length"),
            (["--sample-hz", "nan"], "sample_hz"),
            (["--legs", "1e12"], "66666666667 GPS samples"),
            (["--legs", "6_00R,400"], "bad leg length '6_00R'"),
            (["--legs", "400,١٠٠L"], "bad leg length '١٠٠L'"),
            (["--speed-mps", "1_5"], "argument --speed-mps"),
            (["--sample-hz", "٢"], "argument --sample-hz"),
            (["--noise-sigma-m", "0_5"], "argument --noise-sigma-m"),
            (["--seed", "1_0"], "argument --seed"),
            (["--legs", "10R,10L,10R,1"], "starts before the previous cue ends"),
            (["--sample-hz", "0.01"], "lies outside the track"),
            (["--speed-mps", "1e308"], "lies outside the track"),
        ],
    )
    def test_bad_synth_flag_is_usage_error(self, tmp_path, capsys, flags, field):
        code, _, err = run(["synth", *flags, "--out", str(tmp_path / "s")], capsys)
        assert code == EXIT_USAGE
        assert field in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--gps-offset-ms", "5_000"),
            ("--gps-offset-ms", "١"),
            ("--audio-offset-ms", "1_0"),
            ("--video-offset-ms", "٣٠"),
        ],
    )
    def test_bad_pipeline_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        # Flags are read before any input file is opened, so the paths need
        # not exist.
        code, _, err = run(
            ["pipeline", "--gpx", str(tmp_path / "track.gpx"), "--transcript",
             str(tmp_path / "transcript.json"), "--out", str(tmp_path / "d"), flag, value],
            capsys,
        )
        assert code == EXIT_USAGE
        assert f"argument {flag}" in err
        assert not (tmp_path / "d").exists()

    def test_tolerance_flag_is_usage_error(self, tmp_path, capsys):
        # The 5 s placement tolerance is part of the fixed rule.
        code, _, err = run(
            ["pipeline", "--gpx", str(tmp_path / "track.gpx"), "--transcript",
             str(tmp_path / "transcript.json"), "--out", str(tmp_path / "d"),
             "--tolerance-ms", "100"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --tolerance-ms 100" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"seed": 1.5}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"speed_mps": "20"}, "speed_mps"),
            ({"legs": 5}, "legs"),
            ({"speed_mps": 0}, "speed_mps must be positive, got 0.0"),
            ({"sample_hz": 200}, "sample_hz must be in (0, 100], got 200.0"),
            ({"noise_sigma_m": -1}, "noise_sigma_m must be >= 0, got -1.0"),
        ],
    )
    def test_bad_synth_setting_is_usage_error(self, tmp_path, capsys, settings, field):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"out": str(tmp_path / "s"), **settings}))
        code, _, err = run(["synth", "--config", str(config)], capsys)
        assert code == EXIT_USAGE
        assert field in err

    @pytest.mark.parametrize("flag", ["--gps-offset-ms", "--audio-offset-ms", "--video-offset-ms"])
    def test_offset_past_9999_is_data_error(self, tmp_path, capsys, flag):
        corpus = make_corpus(tmp_path, capsys)
        code, _, err = run(
            [
                "pipeline",
                "--gpx",
                str(corpus / "track.gpx"),
                "--transcript",
                str(corpus / "transcript.json"),
                "--video-meta",
                str(corpus / "video_meta.json"),
                "--out",
                str(tmp_path / "d"),
                flag,
                "10000000000000000",
            ],
            capsys,
        )
        assert code == EXIT_DATA
        stream = {
            "--gps-offset-ms": "moves the track past",
            "--audio-offset-ms": "segment at 30.0 s lands after",
            "--video-offset-ms": "video start lands after",
        }
        assert err.startswith("error: InvalidAnchor: ")
        assert stream[flag] in err
        assert "9999-12-31T23:59:59.999Z" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("number", ["1e15", "1e300", "1e309", "NaN", "Infinity"])
    def test_bad_segment_json_time_is_data_error(self, tmp_path, capsys, number):
        corpus = make_corpus(tmp_path, capsys)
        text = (corpus / "transcript.json").read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(
            text.replace(
                '"segments": [',
                f'"segments": [{{"start": {number}, "end": {number}, "text": "Stop."}}, ',
            )
        )
        code, _, err = run(
            ["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript", str(bad),
             "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == EXIT_DATA
        # The bad segment is the file's first; reading sorts it last, so
        # the range error names it by its start.
        named = {"1e15": "1000000000000000.0", "1e300": "1e+300"}.get(number)
        if named is None:
            assert "segment 0: bad timing" in err
        else:
            assert f"segment at {named} s lands after 9999-12-31T23:59:59.999Z" in err

    @pytest.mark.parametrize("number", ["nan", "inf", "1e15"])
    def test_bad_plain_lines_time_is_data_error(self, tmp_path, capsys, number):
        corpus = make_corpus(tmp_path, capsys)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1.0\t2.0\tTurn left.\n{number}\t{number}\tStop.\n")
        code, _, err = run(
            ["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript", str(bad),
             "--transcript-format", "plain-lines", "--audio-start",
             "2024-06-01T12:00:00Z", "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == EXIT_DATA
        assert "line 2" in err or "segment at 1000000000000000.0 s lands after 9999" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (r'lat="[^"]*"', 'lat="4_0"', "trkpt 0: could not convert string to float: '4_0'"),
            (r'lon="[^"]*"', 'lon="1_05"', "trkpt 0: could not convert string to float: '1_05'"),
            ("<time>", "<ele>1_0</ele><time>", "trkpt 0: bad ele '1_0'"),
        ],
        ids=["lat", "lon", "ele"],
    )
    def test_underscored_gpx_number_is_data_error(self, tmp_path, capsys, old, new, message):
        corpus = make_corpus(tmp_path, capsys)
        bad = tmp_path / "bad.gpx"
        bad.write_text(re.sub(old, new, (corpus / "track.gpx").read_text(), count=1))
        code, _, err = run(
            ["pipeline", "--gpx", str(bad), "--transcript", str(corpus / "transcript.json"),
             "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == EXIT_DATA
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "encoding, message",
        [
            ("utf-9", "unknown encoding: utf-9"),
            ("rot13", "'rot13' is not a text encoding"),
            ("UTF-7", "multi-byte encodings are not supported"),
            ("idna", "decoding with 'idna' codec failed"),
        ],
        ids=["utf-9", "rot13", "utf-7", "idna"],
    )
    def test_unsupported_gpx_encoding_is_data_error(self, tmp_path, capsys, encoding, message):
        corpus = make_corpus(tmp_path, capsys)
        text = (corpus / "track.gpx").read_text()
        bad = tmp_path / "bad.gpx"
        bad.write_text(
            re.sub(r'encoding="[^"]*"', f'encoding="{encoding}"', text, count=1)
        )
        assert f'encoding="{encoding}"' in bad.read_text()
        code, _, err = run(
            ["pipeline", "--gpx", str(bad), "--transcript", str(corpus / "transcript.json"),
             "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == EXIT_DATA
        assert "ParseError: GPX XML declares an unsupported encoding: " in err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fmt, text, message",
        [
            ("plain-lines", "1_0\t2_0\tTurn left.\n", "line 1: bad timing ['1_0', '2_0']"),
            ("plain-lines", "١\t٢\tTurn left.\n", "line 1: bad timing ['١', '٢']"),
            (
                "srt",
                "1\n00:00:0١,000 --> 00:00:02,000\nTurn left.\n",
                "srt block 1: bad timing line '00:00:0١,000 --> 00:00:02,000'",
            ),
            ("srt", "²\n00:00:01,000 --> 00:00:02,000\nTurn left.\n",
             "srt block 1: bad timing line '²'"),
            ("srt", "١\n00:00:01,000 --> 00:00:02,000\nTurn left.\n",
             "srt block 1: bad timing line '١'"),
        ],
        ids=["plain-underscore", "plain-arabic-indic", "srt-time", "srt-index-superscript",
             "srt-index-arabic-indic"],
    )
    def test_non_ascii_or_underscored_transcript_number_is_data_error(
        self, tmp_path, capsys, fmt, text, message
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        code, _, err = run(
            ["classify", "--transcript", str(bad), "--transcript-format", fmt], capsys
        )
        assert code == EXIT_DATA
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pattern", ["*", "* *"])
    def test_gap_only_pattern_is_data_error(self, tmp_path, capsys, pattern):
        corpus = make_corpus(tmp_path, capsys)
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"Turn": [pattern]}))
        code, _, err = run(
            ["classify", "--transcript", str(corpus / "transcript.json"),
             "--lexicon", str(lexicon)],
            capsys,
        )
        assert code == EXIT_DATA
        assert "LexiconError: Turn[0]: needs an element other than '*'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "start, end, message",
        [
            ("true", "true", "start must be a number, got True"),
            ("true", "2", "start must be a number, got True"),
            ("0", "false", "end must be a number, got False"),
        ],
        ids=["true-true", "true-2", "0-false"],
    )
    def test_boolean_segment_time_is_data_error(
        self, tmp_path, capsys, start, end, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(
            f'{{"segments": [{{"start": {start}, "end": {end}, "text": "Turn left"}}]}}'
        )
        code, _, err = run(["classify", "--transcript", str(bad)], capsys)
        assert code == EXIT_DATA
        assert f"segment 0: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "target", ["missing/dir/r.txt", "."], ids=["missing-dir", "a-directory"]
    )
    def test_unwritable_stats_out_is_io_error(self, tmp_path, capsys, target):
        triads = tmp_path / "empty.jsonl"
        triads.write_bytes(b"")
        out = tmp_path / target
        code, _, err = run(["stats", str(triads), "--out", str(out)], capsys)
        assert code == EXIT_INTERNAL
        assert f"internal error: IoError: cannot write {out}" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_leaves_no_stats_out(self, tmp_path, capsys):
        triads = tmp_path / "empty.jsonl"
        triads.write_bytes(b"")
        out = tmp_path / "r.txt"
        out.symlink_to("/dev/full")
        code, _, err = run(["stats", str(triads), "--out", str(out)], capsys)
        assert code == EXIT_INTERNAL
        assert f"internal error: IoError: cannot write {out}: " in err
        assert not os.path.lexists(out)

    @pytest.mark.parametrize(
        "sources, item, label",
        [
            (["r1/triads.jsonl", "r2/triads.jsonl"], "r2/triads.jsonl", "triads"),
            (["a=r1/triads.jsonl", "a=r2/triads.jsonl"], "a=r2/triads.jsonl", "a"),
        ],
        ids=["bare-paths", "labelled"],
    )
    def test_stats_label_given_twice_is_usage_error(
        self, tmp_path, capsys, monkeypatch, sources, item, label
    ):
        # Two columns under one label could not be told apart; the check
        # comes before any source is read, so the files need not exist.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["stats", *sources], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1] == (
            f"drivetriad stats: error: source {item!r}: label {label!r} given twice"
        )

    def test_non_utf8_triads_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run(["stats", str(bad)], capsys)
        assert code == EXIT_DATA
        assert f"error: {bad}: EncodingError: input is not valid UTF-8: " in err

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({("action", "t_start_ms"): 2_000, ("action", "t_end_ms"): 1_000},
             "window inverted: [2000, 1000]"),
            ({("evidence", 0, "start"): -3}, "evidence [-3, 11] is not '492 feet' in the text"),
            ({("evidence", 0, "end"): 1_000_000},
             "evidence [3, 1000000] is not '492 feet' in the text"),
            ({("evidence", 0, "matched"): "492 yards"},
             "evidence [3, 11] is not '492 yards' in the text"),
        ],
        ids=["window-inverted", "evidence-before-text", "evidence-past-text",
             "evidence-other-text"],
    )
    def test_record_no_run_writes_is_data_error(
        self, tmp_path, capsys, member_inputs, edits, message
    ):
        # The first record reads "In 492 feet turn right onto Granite Court."
        # and its first evidence item spans [3, 11].
        first, _, rest = (member_inputs / "out" / "triads.jsonl").read_text().partition("\n")
        record = json.loads(first)
        for (*path, key), value in edits.items():
            holder = record
            for step in path:
                holder = holder[step]
            holder[key] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n" + rest)
        code, _, err = run(["stats", str(bad)], capsys)
        assert (code, err) == (EXIT_DATA, f"error: {bad}: ParseError: line 1: {message}\n")

    @pytest.mark.parametrize(
        "role, key, wrong, kind",
        [
            ("video-meta", "start_time", 5, "a string"),
            ("video-meta", "fps", "30", "a number"),
            ("video-meta", "frame_count", 1.5, "an integer"),
            ("segment-json", "segments", {}, "an array"),
            ("segment-json", "audio_start_utc", 5, "a string"),
            ("segment-json", "start", "0", "a number"),
            ("segment-json", "end", [], "a number"),
            ("segment-json", "text", 5, "a string"),
            ("triads", "geo", [], "an object"),
            ("triads", "frame_start", "0", "an integer"),
        ],
    )
    def test_json_member_is_held_to_its_type(
        self, tmp_path, capsys, member_inputs, role, key, wrong, kind
    ):
        # Each JSON input's members are read by one rule, so a missing or
        # mistyped member reads the same in every input.
        bad = tmp_path / "bad.json"
        source, prefix, args = {
            "video-meta": ("video_meta.json", "", [
                "pipeline", "--gpx", str(member_inputs / "track.gpx"),
                "--transcript", str(member_inputs / "transcript.json"),
                "--video-meta", str(bad), "--out", str(tmp_path / "d"),
            ]),
            "segment-json": ("transcript.json", "", ["classify", "--transcript", str(bad)]),
            "triads": ("out/triads.jsonl", "line 1: ", ["stats", str(bad)]),
        }[role]
        text = (member_inputs / source).read_text()
        # A triads record is one line; the other inputs are whole documents.
        first, _, rest = text.partition("\n") if role == "triads" else (text, "", "")
        doc = json.loads(first)
        if key in ("start", "end", "text"):
            holder, prefix = doc["segments"][0], "segment 0: "
        else:
            holder = doc["action"] if key == "frame_start" else doc

        del holder[key]
        bad.write_text(json.dumps(doc) + "\n" + rest)
        code, _, err = run(args, capsys)
        if key == "audio_start_utc":
            # The one optional member: classify needs no anchor.
            assert code == EXIT_OK, err
        else:
            assert (code, err) == (
                EXIT_DATA, f"error: {bad}: ParseError: {prefix}missing field {key!r}\n"
            )
        holder[key] = wrong
        bad.write_text(json.dumps(doc) + "\n" + rest)
        code, _, err = run(args, capsys)
        assert (code, err) == (
            EXIT_DATA,
            f"error: {bad}: ParseError: {prefix}{key} must be {kind}, got {wrong!r}\n",
        )

    @pytest.mark.parametrize(
        "argv, settings, key",
        [
            (["classify", "--transcript", "t.json"], {"lexicon": 5}, "lexicon"),
            (["classify"], {"transcript": 5}, "transcript"),
            (["stats", "t.jsonl"], {"out": 5}, "out"),
            (["synth"], {"out": 5}, "out"),
            (["synth"], {"out": ["x"]}, "out"),
            (["pipeline"], {"gps_ofset_ms": 1}, "gps_ofset_ms"),
            (["pipeline"], {"gpx_path": "a.gpx"}, "gpx_path"),
            (["classify"], {"lexicon-path": "x"}, "lexicon_path"),
            (["stats", "t.jsonl"], {"sources": ["a"]}, "sources"),
            (["synth"], {"noise": 1.0}, "noise"),
            (["pipeline"], {"gps-offset-ms": 100, "gps_offset_ms": 9000}, "gps_offset_ms"),
            # Raw JSON text: json.dumps cannot write a key twice.
            (["pipeline", "--gpx", "a.gpx", "--transcript", "t.json", "--out", "o"],
             '{"gps_offset_ms": -5, "gps_offset_ms": 100}',
             "config key 'gps_offset_ms' given twice"),
        ],
        ids=[
            "classify-lexicon-int", "classify-transcript-int", "stats-out-int",
            "synth-out-int", "synth-out-list", "pipeline-misspelt-key",
            "pipeline-field-name-key", "classify-unknown-key", "stats-sources-key",
            "synth-unknown-key", "pipeline-key-twice", "pipeline-exact-key-twice",
        ],
    )
    def test_bad_config_key_is_usage_error(self, tmp_path, capsys, argv, settings, key):
        # Checked before any input file is opened, so the paths need not exist.
        config = tmp_path / "c.json"
        config.write_text(settings if isinstance(settings, str) else json.dumps(settings))
        code, _, err = run([*argv, "--config", str(config)], capsys)
        assert code == EXIT_USAGE
        assert key in err
        assert "Traceback" not in err


def _segments_as(fmt, doc):
    """The segments of a segment-json document in the text format ``fmt``."""

    def srt_time(seconds):
        ms = round(seconds * 1000)
        h, m, s = ms // 3_600_000, ms // 60_000 % 60, ms // 1000 % 60
        return f"{h:02d}:{m:02d}:{s:02d},{ms % 1000:03d}"

    if fmt == "srt":
        return "".join(
            f"{i}\n{srt_time(seg['start'])} --> {srt_time(seg['end'])}\n{seg['text']}\n\n"
            for i, seg in enumerate(doc["segments"], start=1)
        )
    return "".join(f"{seg['start']}\t{seg['end']}\t{seg['text']}\n" for seg in doc["segments"])


# Every text input of the CLI, by the role _outputs_with_input_edited gives it.
_TEXT_INPUTS = [
    "segment-json", "srt", "plain-lines", "video-meta", "lexicon", "config", "triads",
]


def _outputs_with_input_edited(tmp_path, capsys, role, edit):
    """The outputs of two runs on a synth corpus, the second with the text
    input ``role`` rewritten by ``edit``: pipeline's artifacts, or for
    "triads" the reports of ``stats`` on the first run's triads.jsonl."""
    corpus = make_corpus(tmp_path, capsys)
    doc = json.loads((corpus / "transcript.json").read_text())
    fmt = role if role in ("srt", "plain-lines") else "segment-json"
    transcript = tmp_path / "transcript.txt"
    # Indented, so that every JSON input has line ends to rewrite.
    transcript.write_text(
        json.dumps(doc, indent=2) if fmt == "segment-json" else _segments_as(fmt, doc)
    )
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"road_suffixes": ["motorway"]}, indent=2))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"source-label": "drive", "gps_offset_ms": 1000}, indent=2))
    inputs = {
        "--gpx": corpus / "track.gpx",
        "--transcript": transcript,
        "--video-meta": corpus / "video_meta.json",
        "--lexicon": lexicon,
        "--config": config,
    }
    args = ["pipeline", "--transcript-format", fmt, "--audio-start", doc["audio_start_utc"]]
    for flag, path in inputs.items():
        args += [flag, str(path)]

    def outputs(argv):
        code, out, err = run(argv, capsys)
        assert code == EXIT_OK, err
        return out

    def artifacts(name):
        outputs([*args, "--out", str(tmp_path / name)])
        return [
            (tmp_path / name / artifact).read_bytes()
            for artifact in ("triads.jsonl", "report.txt", "mismatches.txt")
        ]

    plain = artifacts("plain")
    target = {"video-meta": inputs["--video-meta"], "lexicon": lexicon, "config": config,
              "triads": tmp_path / "plain" / "triads.jsonl"}.get(role, transcript)
    data = target.read_bytes()
    assert edit(data) != data
    if role == "triads":
        edited = tmp_path / "edited.jsonl"
        edited.write_bytes(edit(data))
        return outputs(["stats", f"drive={target}"]), outputs(["stats", f"drive={edited}"])
    target.write_bytes(edit(data))
    return plain, artifacts("edited")


class TestByteOrderMark:
    """A UTF-8 byte-order mark in front of a text input changes nothing."""

    @pytest.mark.parametrize("role", _TEXT_INPUTS)
    def test_output_equals_the_run_without_it(self, tmp_path, capsys, role):
        plain, marked = _outputs_with_input_edited(
            tmp_path, capsys, role, lambda data: b"\xef\xbb\xbf" + data
        )
        assert marked == plain


class TestLineEnds:
    """CRLF and CR line ends in a text input read as LF."""

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("role", _TEXT_INPUTS)
    def test_output_equals_the_lf_run(self, tmp_path, capsys, role, end):
        lf, edited = _outputs_with_input_edited(
            tmp_path, capsys, role, lambda data: data.replace(b"\n", end)
        )
        assert edited == lf


class TestSubcommandUsage:
    """A usage error found after parsing prints the subcommand's own usage."""

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["classify"], None, "--transcript is required (flag or config file)"),
            (["pipeline", "--out", "q"], None, "--gpx is required (flag or config file)"),
            (["stats", "t.jsonl"], {"sources": ["a"]}, "unknown config key 'sources'"),
            (["synth", "--legs", "100X", "--out", "s"], None, "bad leg length '100X'"),
        ],
        ids=["classify", "pipeline", "stats", "synth"],
    )
    def test_error_lines_name_the_subcommand(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
            message = f"{path}: {message}"
        code, _, err = run(argv, capsys)
        assert code == EXIT_USAGE
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: drivetriad {argv[0]} [-h]")
        assert lines[-1].startswith(f"drivetriad {argv[0]}: error: {message}")


class TestErrorsNameTheFile:
    """A data error from parsing one input file names that file first."""

    @pytest.mark.parametrize(
        "flag, content, error",
        [
            ("--gpx", b"\xff", "ParseError"),
            ("--transcript", b"\xff", "EncodingError"),
            ("--video-meta", b"\xff", "EncodingError"),
            ("--video-meta", b'{"start_time": "2024-06-01T12:00:00Z", "fps": "30", '
             b'"frame_count": 10}', "ParseError: fps must be a number"),
            ("--lexicon", b"\xff", "EncodingError"),
        ],
        ids=["gpx", "transcript", "video-meta-encoding", "video-meta-fps", "lexicon"],
    )
    def test_pipeline_input(self, tmp_path, capsys, flag, content, error):
        corpus = make_corpus(tmp_path, capsys)
        bad = tmp_path / "bad.input"
        bad.write_bytes(content)
        inputs = {
            "--gpx": corpus / "track.gpx",
            "--transcript": corpus / "transcript.json",
            "--video-meta": corpus / "video_meta.json",
            flag: bad,
        }
        args = ["pipeline", "--out", str(tmp_path / "d")]
        for name, path in inputs.items():
            args += [name, str(path)]
        code, _, err = run(args, capsys)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {bad}: {error}"), err
        assert err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "content, error",
        [(b"\xff", "EncodingError: input is not valid UTF-8: "),
         (b"{broken", "ParseError: ")],
        ids=["non-utf8", "bad-json"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["stats", "{bad}"], ["classify", "--config", "{bad}"]],
        ids=["stats-source", "config"],
    )
    def test_other_input(self, tmp_path, capsys, argv, content, error):
        bad = tmp_path / "bad.input"
        bad.write_bytes(content)
        code, out, err = run([arg.format(bad=bad) for arg in argv], capsys)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {bad}: {error}"), err
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("flag", ["--transcript", "--lexicon"])
    def test_classify_input(self, tmp_path, capsys, flag):
        corpus = make_corpus(tmp_path, capsys)
        bad = tmp_path / "bad.input"
        bad.write_bytes(b"[]")
        inputs = {"--transcript": corpus / "transcript.json", flag: bad}
        args = ["classify"]
        for name, path in inputs.items():
            args += [name, str(path)]
        code, _, err = run(args, capsys)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {bad}: "), err


class TestStdoutFailure:
    """A failed write to standard output is exit 70 with one stderr line."""

    ONE_LINE = re.compile(
        r"internal error: IoError: cannot write standard output: \[Errno \d+\] .+\n"
    )

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        corpus = tmp_path_factory.mktemp("stdout") / "corpus"
        assert main(["synth", "--seed", "3", "--legs", "200R,200", "--out", str(corpus)]) == EXIT_OK
        assert main(["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript",
                     str(corpus / "transcript.json"), "--out", str(corpus / "d")]) == EXIT_OK
        return corpus

    def _commands(self, corpus):
        return {
            "classify": ["classify", "--transcript", str(corpus / "transcript.json")],
            "pipeline": ["pipeline", "--gpx", str(corpus / "track.gpx"), "--transcript",
                         str(corpus / "transcript.json"), "--out", str(corpus / "again")],
            "stats": ["stats", str(corpus / "d" / "triads.jsonl")],
            "synth": ["synth", "--seed", "4", "--out", str(corpus / "synth")],
            # argparse writes these itself and ignores a failed write.
            "version": ["--version"],
            "help": ["--help"],
            "synth-help": ["synth", "--help"],
        }

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "command, files",
        [
            ("synth", ["ground_truth.json", "track.gpx", "transcript.json", "video_meta.json"]),
            ("pipeline", ["manifest.json", "mismatches.txt", "report.txt", "triads.jsonl"]),
        ],
    )
    def test_out_dir_not_utf8_on_strict_stdout(self, corpus, tmp_path, command, files, unbuffered):
        # The argv byte 0xff reads as U+DCFF, which a strict UTF-8 standard
        # output cannot encode; the path is printed escaped, as on stderr.
        out = os.fsencode(tmp_path) + b"/\xff"
        args = [*self._commands(corpus)[command][:-1], out]
        proc = subprocess.run(
            [sys.executable, "-m", "drivetriad.cli", *args],
            capture_output=True,
            env={**child_env(unbuffered), "PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == b""
        assert proc.stdout.endswith(b"/\\udcff\n")
        assert sorted(os.listdir(out)) == [name.encode() for name in files]

    def test_escape_leaves_the_stream_as_it_was(self, monkeypatch):
        # Output that follows in the same process, in-process callers
        # included, keeps the stream's strict error handler.
        stream = io.TextIOWrapper(io.BytesIO(), encoding="ascii", errors="strict")
        monkeypatch.setattr(sys, "stdout", stream)
        drivetriad.cli._write_stdout("a\n")
        drivetriad.cli._write_stdout("wrote: /\udcff/\u00e9\n")
        drivetriad.cli._write_stdout("b\n")
        stream.flush()
        assert stream.buffer.getvalue() == b"a\nwrote: /\\udcff/\\xe9\nb\n"
        assert stream.errors == "strict"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "command",
        ["classify", "pipeline", "stats", "synth", "version", "help", "synth-help"],
    )
    def test_full_device(self, corpus, command, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "drivetriad.cli", *self._commands(corpus)[command]],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=child_env(unbuffered),
            )
        assert proc.returncode == EXIT_INTERNAL
        assert self.ONE_LINE.fullmatch(proc.stderr), proc.stderr

    # A classify transcript of several output blocks; with wordless cues, a
    # "..." in every hundred, each dropped with a warning.
    LONG = 700

    def _long_srt(self, tmp_path, wordless):
        """The transcript, and per segment its stdout line or its warning."""
        texts = [
            "..." if wordless and i % 100 == 50 else f"Turn left onto Road {i}."
            for i in range(self.LONG)
        ]
        srt = write_srt(tmp_path / "voice.srt", texts)
        outputs = []
        for i, text in enumerate(texts):
            if text == "...":
                outputs.append(("err", f"warning: {srt}: segment at {i + 1}.000 s has no "
                                       "classifiable text ('...'); dropped\n"))
            else:
                got = classify(text)
                outputs.append(("out", "{" + labels_fragment(text, got.evidence)
                                + "}\n"))
        return srt, outputs

    @staticmethod
    def _stream(outputs, name):
        return [line for stream, line in outputs if stream == name]

    def _assert_failed(self, err, outputs):
        """One error line, after the warnings of the segments read before
        the failed write, each once and in segment order."""
        *before, last = err.splitlines(keepends=True)
        assert self.ONE_LINE.fullmatch(last), err
        assert before == self._stream(outputs, "err")[:len(before)]

    def _classify(self, srt):
        return [sys.executable, "-m", "drivetriad.cli", "classify", "--transcript", str(srt),
                "--transcript-format", "srt"]

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("wordless", [False, True], ids=["words", "wordless"])
    def test_classify_in_blocks(self, tmp_path, wordless, unbuffered):
        srt, outputs = self._long_srt(tmp_path, wordless)
        proc = subprocess.run(self._classify(srt), capture_output=True, text=True,
                              env=child_env(unbuffered))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "".join(self._stream(outputs, "out"))
        assert proc.stderr == "".join(self._stream(outputs, "err"))
        assert len(self._stream(outputs, "err")) == (7 if wordless else 0)

    def test_warnings_keep_their_place_among_lines(self, tmp_path):
        # Unbuffered, into one pipe: each warning follows the lines of the
        # segments before it, as when every line was written on its own.
        srt, outputs = self._long_srt(tmp_path, wordless=True)
        proc = subprocess.run(self._classify(srt), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=child_env(True))
        assert proc.returncode == EXIT_OK
        assert proc.stdout == "".join(line for _, line in outputs)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("wordless", [False, True], ids=["words", "wordless"])
    def test_classify_blocks_on_full_device(self, tmp_path, wordless, unbuffered):
        srt, outputs = self._long_srt(tmp_path, wordless)
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(self._classify(srt), stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=child_env(unbuffered))
        assert proc.returncode == EXIT_INTERNAL
        self._assert_failed(proc.stderr, outputs)
        if not wordless:
            assert self.ONE_LINE.fullmatch(proc.stderr), proc.stderr

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("wordless", [False, True], ids=["words", "wordless"])
    def test_classify_blocks_to_closed_pipe(self, tmp_path, wordless, unbuffered):
        srt, outputs = self._long_srt(tmp_path, wordless)
        proc = subprocess.Popen(self._classify(srt), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=child_env(unbuffered))
        with proc:
            proc.stdout.close()  # before the child has written anything
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_INTERNAL
        self._assert_failed(err, outputs)
        assert "Broken pipe" in err

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_reader_closes_early(self, tmp_path, unbuffered):
        # Far more output than a pipe or a stdout buffer holds, so writes
        # fail inside the print loop as well as at the final flush.
        srt = write_srt(tmp_path / "voice.srt", [f"Turn left onto Road {i}." for i in range(2000)])
        proc = subprocess.Popen(
            [sys.executable, "-m", "drivetriad.cli", "classify", "--transcript", str(srt),
             "--transcript-format", "srt"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(unbuffered),
        )
        with proc:
            proc.stdout.close()  # before the child has written anything
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_INTERNAL
        assert self.ONE_LINE.fullmatch(err), err
        assert "Broken pipe" in err


# --- fuzzing: every input file ends in a defined exit code ------------------

_FUZZ = settings(max_examples=20, deadline=None)
_ANCHOR = "2024-06-01T12:00:00Z"
# JSON number texts, including the ones Python's json module reads as
# NaN, +-Infinity or ints beyond float range.
_NUMBERS = st.one_of(
    st.sampled_from(
        ["NaN", "Infinity", "-Infinity", "1e309", "1e15", "1e306", "1" + "0" * 400,
         "-1", "0", "5e-324", "true", "null"]
    ),
    st.floats().map(json.dumps),
    st.integers().map(str),
)

# Lexicon pattern elements: gaps (drawn half the time), the seven token
# classes, words of the small corpus, and words holding regex syntax or a
# space (a list entry under road_suffixes or distance_units).
_LEXICON_ELEMENTS = st.one_of(
    st.just("*"),
    st.sampled_from(
        ["<num>", "<frac>", "<unit>", "<suffix>", "<cardinal>", "<bound>", "<name+>",
         "turn", "left", "right", "in", "feet", "street", "north", "arrived", "at",
         ".*", "per hour", "[["]
    ),
)
_LEXICON_LISTS = ["road_suffixes", "distance_units"]


@pytest.fixture(scope="module")
def member_inputs(tmp_path_factory):
    """A synth corpus and, in out/, the pipeline's artifacts for it."""
    corpus = tmp_path_factory.mktemp("members") / "corpus"
    assert main(["synth", "--seed", "3", "--legs", "200R,200", "--out", str(corpus)]) == EXIT_OK
    assert main(["pipeline", "--gpx", str(corpus / "track.gpx"),
                 "--transcript", str(corpus / "transcript.json"),
                 "--video-meta", str(corpus / "video_meta.json"),
                 "--out", str(corpus / "out")]) == EXIT_OK
    return corpus


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("fuzz") / "corpus"
    assert main(["synth", "--seed", "3", "--legs", "200R,200", "--out", str(corpus)]) == EXIT_OK
    return corpus


def _pipeline_with(corpus, flag, data, *extra):
    """Run the pipeline on the small corpus with one input file replaced."""
    fuzzed = corpus.parent / "fuzzed"
    fuzzed.write_bytes(data)
    paths = {
        "--gpx": corpus / "track.gpx",
        "--transcript": corpus / "transcript.json",
        "--video-meta": corpus / "video_meta.json",
        "--out": corpus.parent / "out",
        flag: fuzzed,
    }
    args = ["pipeline", *extra]
    for name, path in paths.items():
        args += [name, str(path)]
    return main(args)


class TestFuzz:
    """Arbitrary input bytes exit 0 or 65 (64 or 65 for a config file)."""

    @pytest.mark.parametrize(
        "flag, extra",
        [
            ("--gpx", ()),
            ("--transcript", ()),
            ("--transcript", ("--transcript-format", "srt", "--audio-start", _ANCHOR)),
            ("--transcript", ("--transcript-format", "plain-lines", "--audio-start", _ANCHOR)),
            ("--video-meta", ()),
            ("--lexicon", ()),
        ],
        ids=["gpx", "segment-json", "srt", "plain-lines", "sidecar", "lexicon"],
    )
    @_FUZZ
    @given(data=st.binary(max_size=200))
    def test_input_bytes(self, small_corpus, flag, extra, data):
        assert _pipeline_with(small_corpus, flag, data, *extra) in (EXIT_OK, EXIT_DATA)

    @_FUZZ
    @given(
        doc=st.dictionaries(
            st.sampled_from([*(c.value for c in drivetriad.CommandClass), *_LEXICON_LISTS]),
            st.lists(st.lists(_LEXICON_ELEMENTS, min_size=1, max_size=4).map(" ".join), max_size=3),
            min_size=1,
        )
    )
    def test_lexicon_documents(self, small_corpus, doc):
        code = _pipeline_with(small_corpus, "--lexicon", json.dumps(doc).encode())
        assert code in (EXIT_OK, EXIT_DATA)

    @_FUZZ
    @given(data=st.binary(max_size=200))
    def test_triads_bytes(self, small_corpus, data):
        fuzzed = small_corpus.parent / "fuzzed.jsonl"
        fuzzed.write_bytes(data)
        assert main(["stats", str(fuzzed)]) in (EXIT_OK, EXIT_DATA)

    @pytest.mark.parametrize("command", ["classify", "pipeline", "synth"])
    @_FUZZ
    @given(data=st.binary(max_size=200))
    def test_config_bytes(self, small_corpus, command, data):
        # No required option is given, so even a usable config cannot run.
        fuzzed = small_corpus.parent / "fuzzed-config.json"
        fuzzed.write_bytes(data)
        assert main([command, "--config", str(fuzzed)]) in (EXIT_USAGE, EXIT_DATA)

    @_FUZZ
    @given(times=st.lists(st.tuples(_NUMBERS, _NUMBERS), min_size=1, max_size=3))
    def test_segment_json_numbers(self, small_corpus, times):
        segments = ", ".join(
            f'{{"start": {start}, "end": {end}, "text": "Turn left."}}'
            for start, end in times
        )
        doc = f'{{"audio_start_utc": "{_ANCHOR}", "segments": [{segments}]}}'
        code = _pipeline_with(small_corpus, "--transcript", doc.encode())
        assert code in (EXIT_OK, EXIT_DATA)

    @_FUZZ
    @given(
        start=st.sampled_from(
            [_ANCHOR, "1970-01-01T00:00:00Z", "9999-12-31T23:59:59.999Z", "9999-12-31T23:59:59.9999Z"]
        ),
        fps=_NUMBERS,
        frame_count=_NUMBERS,
    )
    def test_sidecar_numbers(self, small_corpus, start, fps, frame_count):
        doc = f'{{"start_time": "{start}", "fps": {fps}, "frame_count": {frame_count}}}'
        code = _pipeline_with(small_corpus, "--video-meta", doc.encode())
        assert code in (EXIT_OK, EXIT_DATA)

    @_FUZZ
    @given(
        fixes=st.lists(
            st.tuples(
                _NUMBERS,
                st.sampled_from(["179.9999", "-179.9999", "180", "-180", "nan", "inf", "-105"]),
                st.sampled_from(
                    [_ANCHOR, "2024-06-01T12:00:10Z", "1969-12-31T23:59:59Z",
                     "9999-12-31T23:59:59.999Z", "9999-12-31T23:59:59.9999Z", "noon"]
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_gpx_numbers(self, small_corpus, fixes):
        points = "".join(
            f'<trkpt lat="{lat}" lon="{lon}"><time>{time}</time></trkpt>'
            for lat, lon, time in fixes
        )
        doc = f"<gpx><trk><trkseg>{points}</trkseg></trk></gpx>"
        assert _pipeline_with(small_corpus, "--gpx", doc.encode()) in (EXIT_OK, EXIT_DATA)

    @pytest.mark.parametrize("command", ["classify", "pipeline", "synth"])
    @_FUZZ
    @given(
        doc=st.dictionaries(
            st.sampled_from(
                ["gpx", "transcript", "out", "lexicon", "video-meta", "gps_offset_ms",
                 "seed", "legs", "style", "transcript_format", "nope"]
            ),
            st.one_of(st.booleans(), st.integers(), st.floats(), st.lists(st.none())),
            min_size=1,
        )
    )
    def test_config_values(self, small_corpus, command, doc):
        # Without a string path no run can start: every such config is a
        # usage error.
        fuzzed = small_corpus.parent / "fuzzed-config.json"
        fuzzed.write_text(json.dumps(doc))
        assert main([command, "--config", str(fuzzed)]) == EXIT_USAGE

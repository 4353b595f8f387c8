"""Command-line interface: subcommands, config merging, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import drivetriad
from drivetriad.cli import (
    EXIT_DATA,
    EXIT_NOINPUT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == EXIT_USAGE
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == EXIT_USAGE

    def test_version_via_subprocess(self):
        # The child must import the same package as this process, which may
        # come from the checkout's src/ rather than an installed copy.
        package_root = str(Path(drivetriad.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "drivetriad.cli", "--version"],
            capture_output=True,
            text=True,
            env=env,
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

    def test_missing_file_is_noinput(self, capsys):
        code, _, _ = run(
            ["classify", "--transcript", "/nonexistent/words.json"], capsys
        )
        assert code == EXIT_NOINPUT

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
        assert any("maps to frame inf" in w for w in manifest["warnings"])

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

    def test_relativize_hides_directories(self, tmp_path, capsys):
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
                "--relativize",
            ],
            capsys,
        )
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [i["path"] for i in manifest["inputs"]] == [
            "track.gpx",
            "transcript.json",
        ]


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
        assert f":{last_line}" in err

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
        assert ":2: elevation is not finite" in err

    def test_inverted_frame_range_in_triads_is_data_error(self, tmp_path, capsys):
        triads = self._dataset(tmp_path, capsys)
        record = json.loads(triads.read_bytes().splitlines()[0])
        record["action"]["frame_start"], record["action"]["frame_end"] = 50, 10
        bad = tmp_path / "inverted.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        code, _, err = run(["stats", str(bad)], capsys)
        assert code == EXIT_DATA
        assert ":1: frame range inverted: [50, 10]" in err

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
            ({"jitter_floor_m": "abc"}, "jitter_floor_m"),
            ({"gps_offset_ms": "abc"}, "gps_offset_ms"),
            ({"source_label": 5}, "source_label"),
            ({"audio_start": 5}, "audio_start"),
            ({"gpx": 5}, "gpx_path"),
            ({"jitter_floor_m": "nan"}, "jitter_floor_m"),
            ({"relativize": "false"}, "relativize"),
            ({"tolerance_ms": True}, "tolerance_ms"),
            ({"tolerance_ms": 1.9}, "tolerance_ms"),
            ({"tolerance_ms": "5000"}, "tolerance_ms"),
            (
                {"straight_threshold_deg": 170, "uturn_threshold_deg": 10},
                "straight_threshold_deg",
            ),
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
        assert flag[2:].replace("-", "_") in err
        assert "before the epoch" in err

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
        assert ("LexiconError" if flag == "--lexicon" else "ParseError") in err

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
        ],
    )
    def test_bad_synth_flag_is_usage_error(self, tmp_path, capsys, flags, field):
        code, _, err = run(["synth", *flags, "--out", str(tmp_path / "s")], capsys)
        assert code == EXIT_USAGE
        assert field in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"seed": 1.5}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"speed_mps": "20"}, "speed_mps"),
            ({"legs": 5}, "legs"),
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
        assert "9999-12-31T23:59:59.999Z" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("number", ["1e15", "1e309", "NaN", "Infinity"])
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
        assert re.search(r"segment \d+:? (bad timing|lands after 9999)", err)

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
        assert "line 2" in err or "segment 1" in err

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

    def test_non_utf8_triads_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run(["stats", str(bad)], capsys)
        assert code == EXIT_DATA
        assert f"EncodingError: {bad}" in err

    @pytest.mark.parametrize(
        "argv, settings, key",
        [
            (["classify", "--transcript", "t.json"], {"lexicon": 5}, "lexicon"),
            (["classify"], {"transcript": 5}, "transcript"),
            (["stats", "t.jsonl"], {"out": 5}, "out"),
            (["synth"], {"out": 5}, "out"),
            (["synth"], {"out": ["x"]}, "out"),
            (["pipeline"], {"tolerence_ms": 1}, "tolerence_ms"),
            (["pipeline"], {"gpx_path": "a.gpx"}, "gpx_path"),
            (["classify"], {"lexicon-path": "x"}, "lexicon_path"),
            (["stats", "t.jsonl"], {"sources": ["a"]}, "sources"),
            (["synth"], {"noise": 1.0}, "noise"),
            (["pipeline"], {"tolerance-ms": 100, "tolerance_ms": 9000}, "tolerance_ms"),
        ],
        ids=[
            "classify-lexicon-int", "classify-transcript-int", "stats-out-int",
            "synth-out-int", "synth-out-list", "pipeline-misspelt-key",
            "pipeline-field-name-key", "classify-unknown-key", "stats-sources-key",
            "synth-unknown-key", "pipeline-key-twice",
        ],
    )
    def test_bad_config_key_is_usage_error(self, tmp_path, capsys, argv, settings, key):
        # Checked before any input file is opened, so the paths need not exist.
        config = tmp_path / "c.json"
        config.write_text(json.dumps(settings))
        code, _, err = run([*argv, "--config", str(config)], capsys)
        assert code == EXIT_USAGE
        assert key in err
        assert "Traceback" not in err


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
                ["gpx", "transcript", "out", "lexicon", "video-meta", "tolerance_ms",
                 "seed", "legs", "style", "relativize", "transcript_format", "nope"]
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

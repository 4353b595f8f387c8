"""Command-line front end.

Four subcommands mirror the pipeline stages so each is testable alone:

* classify — label a transcript, one JSON record per segment on stdout
* pipeline — full run: capture files in, dataset directory out
* stats    — merge triads files into frequency tables
* synth    — generate a synthetic corpus with known ground truth

Every option can also come from a JSON config file (--config); values
given as flags win over file values. Exit codes: 0 success, 64 usage,
65 bad data, 66 missing input, 70 internal error. All work is on local
files; nothing ever touches the network.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable

from ._version import __version__
from .classifier import classify, load_lexicon
from .core import DEFAULT_TOLERANCE_MS, parse_float, parse_int
from .errors import DataError, EmptyInstruction, InternalError, IoError, ParseError
from .emitter import labels_fragment, read_triads, write_text
from .ingest import TRANSCRIPT_FORMATS, parse_transcript
from .pipeline import PipelineConfig, run_pipeline
from .stats import corpus_stats, render_report
from .synth import (
    DEFAULT_LEGS,
    RoutePlan,
    STYLES,
    generate_instructions,
    parse_legs,
    write_corpus,
)

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_INTERNAL = 70

# The config fields whose option is named after a shorter flag.
_OPTION_NAMES = dict(
    gpx_path="gpx", transcript_path="transcript", out_dir="out",
    video_meta_path="video_meta", lexicon_path="lexicon",
)


class _Parser(argparse.ArgumentParser):
    """argparse's usage failures exit 2; this project promises 64. Its
    --help and --version text is command output, so a failed write is
    exit 70 where argparse would ignore it."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message: str, file=None) -> None:  # argparse hook
        if message and file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)


class _Options:
    """Merged view over parsed flags and the optional config file.

    A config key must name one of the subcommand's flags or one of
    ``extra_keys``; anything else is a usage error naming the key.
    """

    def __init__(
        self, args: argparse.Namespace, parser: _Parser, extra_keys: Iterable[str] = ()
    ) -> None:
        self._args = args
        self._parser = parser
        self._file: dict = {}
        config_path = getattr(args, "config", None)
        if config_path is not None:
            raw = Path(config_path).read_bytes()
            # Every key as written, duplicates included: the outermost
            # object is the last one json closes.
            pairs: list = []

            def keep_pairs(object_pairs: list) -> dict:
                pairs[:] = object_pairs
                return dict(object_pairs)

            try:
                doc = json.loads(raw.decode("utf-8"), object_pairs_hook=keep_pairs)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{config_path}: not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ParseError(f"{config_path}: config must be a JSON object")
            for key, value in pairs:
                name = str(key).replace("-", "_")
                if name in self._file:
                    parser.error(f"{config_path}: config key {name!r} given twice")
                self._file[name] = value
            known = set(vars(args)).union(extra_keys)
            known -= {"command", "func", "config", "sources"}
            for key in sorted(self._file.keys() - known):
                parser.error(f"{config_path}: unknown config key {key!r}")

    def get(self, name: str, default=None):
        flag_value = getattr(self._args, name, None)
        if flag_value is not None:
            return flag_value
        if name in self._file and self._file[name] is not None:
            return self._file[name]
        return default

    def given(self, names: Iterable[str]) -> dict:
        """Each set option among the config fields ``names``, keyed by field."""
        values = {name: self.get(_OPTION_NAMES.get(name, name)) for name in names}
        return {name: value for name, value in values.items() if value is not None}

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            self._parser.error(f"--{name} is required (flag or config file)")
        return value

    def path(self, name: str, required: bool = False) -> str | None:
        """A path option, which a config file must give as a string."""
        value = self.require(name) if required else self.get(name)
        if value is not None and not isinstance(value, str):
            self._parser.error(f"{name} must be a path string, got {value!r}")
        return value

    def choice(self, name: str, flag: str, allowed, default):
        value = self.get(name, default)
        if value not in allowed:
            self._parser.error(
                f"{flag}: invalid value {value!r} (choose from "
                f"{', '.join(allowed)})"
            )
        return value


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="JSON",
        help="JSON file supplying any of this subcommand's options; "
        "flags override it",
    )


def _add_transcript_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--transcript", metavar="PATH", help="transcript file")
    parser.add_argument(
        "--transcript-format",
        choices=TRANSCRIPT_FORMATS,
        help=f"transcript syntax (default: {PipelineConfig.transcript_format})",
    )
    parser.add_argument(
        "--lexicon", metavar="PATH", help="JSON lexicon override file"
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="drivetriad",
        description="Turn drive recordings (GPS track, navigation-voice "
        "transcript, video metadata) into synchronized, auto-annotated "
        "vision-language-action records.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_classify = commands.add_parser(
        "classify", help="label each transcript segment (JSON lines on stdout)"
    )
    _add_transcript_flags(p_classify)
    _add_config_flag(p_classify)
    p_classify.set_defaults(func=_run_classify)

    p_pipeline = commands.add_parser(
        "pipeline", help="full run: write triads.jsonl + manifest + reports"
    )
    p_pipeline.add_argument("--gpx", metavar="PATH", help="GPX track log")
    _add_transcript_flags(p_pipeline)
    p_pipeline.add_argument(
        "--audio-start",
        metavar="ISO8601",
        help="wall-clock anchor for relative transcript times",
    )
    p_pipeline.add_argument(
        "--video-meta", metavar="PATH", help="video sidecar JSON"
    )
    p_pipeline.add_argument("--gps-offset-ms", type=parse_int, metavar="MS")
    p_pipeline.add_argument("--audio-offset-ms", type=parse_int, metavar="MS")
    p_pipeline.add_argument("--video-offset-ms", type=parse_int, metavar="MS")
    p_pipeline.add_argument(
        "--tolerance-ms",
        type=parse_int,
        metavar="MS",
        help="max clock gap bridged when placing events "
        f"(default {DEFAULT_TOLERANCE_MS})",
    )
    p_pipeline.add_argument("--out", metavar="DIR", help="output directory")
    p_pipeline.add_argument(
        "--source-label", metavar="NAME", help="column label in report.txt"
    )
    p_pipeline.add_argument(
        "--relativize",
        action="store_const",
        const=True,
        help="record only basenames in the manifest",
    )
    _add_config_flag(p_pipeline)
    p_pipeline.set_defaults(func=_run_pipeline)

    p_stats = commands.add_parser(
        "stats", help="frequency tables over one or more triads.jsonl files"
    )
    p_stats.add_argument(
        "sources",
        nargs="+",
        metavar="LABEL=PATH",
        help="triads.jsonl per source; bare PATH uses the file stem as label",
    )
    p_stats.add_argument("--out", metavar="PATH", help="write report here "
                         "instead of stdout")
    _add_config_flag(p_stats)
    p_stats.set_defaults(func=_run_stats)

    p_synth = commands.add_parser(
        "synth", help="generate a synthetic corpus with ground truth"
    )
    p_synth.add_argument("--seed", type=parse_int, metavar="N")
    p_synth.add_argument(
        "--legs",
        metavar="SPEC",
        help=f'route legs like "400R,300L,250" (default {DEFAULT_LEGS})',
    )
    p_synth.add_argument("--style", choices=STYLES, help="instruction style")
    p_synth.add_argument("--noise-sigma-m", type=parse_float, metavar="M")
    p_synth.add_argument("--speed-mps", type=parse_float, metavar="M_PER_S")
    p_synth.add_argument("--sample-hz", type=parse_float, metavar="HZ")
    p_synth.add_argument("--out", metavar="DIR", help="output directory")
    _add_config_flag(p_synth)
    p_synth.set_defaults(func=_run_synth)

    return parser


def _run_classify(args: argparse.Namespace, parser: _Parser) -> int:
    options = _Options(args, parser)
    transcript_path = options.path("transcript", required=True)
    fmt = options.choice(
        "transcript_format", "--transcript-format", TRANSCRIPT_FORMATS,
        PipelineConfig.transcript_format,
    )
    lexicon_path = options.path("lexicon")
    lexicon = load_lexicon(
        Path(lexicon_path).read_bytes() if lexicon_path else None
    )
    data = Path(transcript_path).read_bytes()
    try:
        transcript = parse_transcript(data, fmt)
    except DataError as exc:
        raise type(exc)(f"{transcript_path}: {exc}") from exc
    # Navigation prompts are templated, so a text comes back many times in
    # one transcript: each distinct text is labelled and rendered once, and
    # None marks a text with no words.
    lines: dict[str, str | None] = {}
    for segment in transcript.segments:
        text = segment.text
        if text not in lines:
            try:
                result = classify(text, lexicon)
            except EmptyInstruction:
                lines[text] = None
            else:
                fragment = labels_fragment(text, result.classes, result.evidence)
                lines[text] = "{" + fragment + "}\n"
        line = lines[text]
        if line is None:
            print(
                f"warning: {transcript_path}: segment at {segment.start_s:.3f} s "
                f"has no classifiable text ({text!r}); dropped",
                file=sys.stderr,
            )
        else:
            _write_stdout(line)
    return EXIT_OK


def _run_pipeline(args: argparse.Namespace, parser: _Parser) -> int:
    config_fields = [f.name for f in fields(PipelineConfig)]
    options = _Options(
        args, parser, (_OPTION_NAMES.get(name, name) for name in config_fields)
    )
    for name in ("gpx", "transcript", "out"):
        options.require(name)
    try:
        config = PipelineConfig(**options.given(config_fields))
    except ValueError as exc:
        parser.error(str(exc))
    result = run_pipeline(config)
    _write_stdout(
        f"events: {result.event_count}\n"
        f"segments: {result.segment_count}\n"
        f"warnings: {result.warning_count}\n"
        f"mismatches: {result.mismatch_count}\n"
        f"wrote: {result.out_dir}\n"
    )
    return EXIT_OK


def _run_stats(args: argparse.Namespace, parser: _Parser) -> int:
    out_path = _Options(args, parser).path("out")
    all_stats = []
    for item in args.sources:
        label, sep, path_text = item.partition("=")
        if not sep:
            path_text, label = item, Path(item).stem
        data = Path(path_text).read_bytes()
        triads = read_triads(data, source=path_text)
        all_stats.append(corpus_stats(label, [t.event for t in triads]))
    report = render_report(all_stats)
    if out_path is None:
        _write_stdout(report)
    else:
        write_text(out_path, report)
    return EXIT_OK


def _run_synth(args: argparse.Namespace, parser: _Parser) -> int:
    options = _Options(args, parser)
    out_dir = options.path("out", required=True)
    style = options.choice("style", "--style", STYLES, "distance-heavy")
    try:
        plan = RoutePlan(
            legs=parse_legs(options.get("legs", DEFAULT_LEGS)),
            **options.given(("speed_mps", "sample_hz", "noise_sigma_m", "seed")),
        )
        corpus = generate_instructions(plan, style)
    except ValueError as exc:
        parser.error(str(exc))
    files = write_corpus(corpus, out_dir)
    _write_stdout(f"wrote {len(files)} files to {out_dir}\n")
    return EXIT_OK


def _write_stdout(text: str) -> None:
    """Write command output; a failed write raises IoError (exit 70)."""
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise _stdout_failed(exc) from exc


def _stdout_failed(exc: OSError) -> IoError:
    """The error for a failed write or flush of standard output.

    The broken stream is dropped with what it still buffers, so the
    interpreter's own flush at exit cannot fail and report it a second time.
    """
    sys.stdout = None
    return IoError(f"cannot write standard output: {exc}")


def _internal_error(exc: InternalError) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def _dispatch(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.error("a subcommand is required")
        return args.func(args, parser)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return EXIT_USAGE if code == 2 else int(code)
    except DataError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FileNotFoundError, PermissionError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except InternalError as exc:
        return _internal_error(exc)


def main(argv: list[str] | None = None) -> int:
    code = _dispatch(argv)
    # Output is buffered, so a full disk or a closed pipe may only show at
    # this flush; after a failed write the stream is already gone.
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            return _internal_error(_stdout_failed(exc))
    return code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()

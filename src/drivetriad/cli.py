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
import sys
from pathlib import Path

from ._version import __version__
from .classifier import classify, load_lexicon
from .core import check_value, parse_float, parse_int, read_object, unique_keys
from .errors import DataError, InternalError, IoError, parse_input
from .emitter import labels_fragment, read_triads, write_text
from .ingest import TRANSCRIPT_FORMATS, parse_transcript
from .pipeline import PipelineConfig, run_pipeline
from .stats import check_label, corpus_stats, render_report
from .synth import (
    DEFAULT_LEGS,
    DEFAULT_STYLE,
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
# The synth options that set the RoutePlan field of the same name.
_PLAN_OPTIONS = ("speed_mps", "sample_hz", "noise_sigma_m", "seed")
# classify writes its output lines in blocks of this many, one write each.
_BLOCK_LINES = 256


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


def _read_config(path: str, parser: _Parser) -> dict:
    """The config file's keys, dashes read as underscores; a key given
    twice is a usage error naming it."""
    _check_path("config", path, parser)
    # Each object's keys as written, repeats included; json closes the
    # outermost object last.
    objects: list = []
    parse_input(
        path, read_object, Path(path).read_bytes(),
        lambda pairs: objects.append(pairs) or dict(pairs),
    )
    try:
        return unique_keys([(key.replace("-", "_"), value) for key, value in objects[-1]])
    except ValueError as exc:
        parser.error(f"{path}: config {exc}")


def _settings(args: argparse.Namespace, parser: _Parser) -> dict:
    """Each set option of the subcommand, by name: the flag's value if
    given, otherwise the config file's, where null means unset.

    A config key must name one of the subcommand's options; anything else
    is a usage error naming the key.
    """
    flags = {
        name: value for name, value in vars(args).items()
        if name not in ("command", "func", "config")
    }
    config = _read_config(args.config, parser) if args.config is not None else {}
    # The stats sources are positional only.
    for key in sorted(config.keys() - (flags.keys() - {"sources"})):
        parser.error(f"{args.config}: unknown config key {key!r}")
    settings = {name: value for name, value in config.items() if value is not None}
    settings.update((name, value) for name, value in flags.items() if value is not None)
    return settings


def _path(settings: dict, name: str, parser: _Parser, required: bool = False):
    """A path option, which a config file must give as a string."""
    value = settings.get(name)
    if value is not None:
        _check_path(name, value, parser)
    elif required:
        parser.error(f"--{name} is required (flag or config file)")
    return value


def _check_path(name: str, value: object, parser: _Parser) -> None:
    """PipelineConfig's rule for a path, a usage error when broken."""
    try:
        check_value(name, "Path", value)
    except ValueError as exc:
        parser.error(str(exc))


def _choice(settings: dict, name: str, allowed, default, parser: _Parser):
    value = settings.get(name, default)
    if value not in allowed:
        parser.error(
            f"--{name.replace('_', '-')}: invalid value {value!r} (choose from "
            f"{', '.join(allowed)})"
        )
    return value


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


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
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
    p_pipeline.add_argument("--out", metavar="DIR", help="output directory")
    p_pipeline.add_argument(
        "--source-label", metavar="NAME", help="column label in report.txt"
    )
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
    p_stats.set_defaults(func=_run_stats)

    p_synth = commands.add_parser(
        "synth", help="generate a synthetic corpus with ground truth"
    )
    p_synth.add_argument("--seed", type=parse_int, metavar="N",
                         help=f"random seed (default {RoutePlan.seed})")
    p_synth.add_argument(
        "--legs",
        metavar="SPEC",
        help=f'route legs like "400R,300L,250" (default {DEFAULT_LEGS})',
    )
    p_synth.add_argument("--style", choices=STYLES,
                         help=f"instruction style (default {DEFAULT_STYLE})")
    p_synth.add_argument("--noise-sigma-m", type=parse_float, metavar="M",
                         help=f"GPS noise sigma (default {RoutePlan.noise_sigma_m})")
    p_synth.add_argument("--speed-mps", type=parse_float, metavar="M_PER_S",
                         help=f"driving speed (default {RoutePlan.speed_mps})")
    p_synth.add_argument("--sample-hz", type=parse_float, metavar="HZ",
                         help=f"GPS sample rate (default {RoutePlan.sample_hz})")
    p_synth.add_argument("--out", metavar="DIR", help="output directory")
    p_synth.set_defaults(func=_run_synth)

    for command in commands.choices.values():
        command.add_argument(
            "--config",
            metavar="JSON",
            help="JSON file supplying any of this subcommand's options; "
            "flags override it",
        )
    return parser, commands.choices


def _run_classify(settings: dict, parser: _Parser) -> int:
    transcript_path = _path(settings, "transcript", parser, required=True)
    fmt = _choice(
        settings, "transcript_format", TRANSCRIPT_FORMATS,
        PipelineConfig.transcript_format, parser,
    )
    lexicon_path = _path(settings, "lexicon", parser)
    lexicon = parse_input(
        lexicon_path, load_lexicon,
        Path(lexicon_path).read_bytes() if lexicon_path else None,
    )
    data = Path(transcript_path).read_bytes()
    transcript = parse_input(transcript_path, parse_transcript, data, fmt)
    # Navigation prompts are templated, so a text comes back many times in
    # one transcript: each distinct text is labelled and rendered once, and
    # None marks a text with no words.
    lines: dict[str, str | None] = {}
    block: list[str] = []  # lines not yet written, at most _BLOCK_LINES
    for segment in transcript.segments:
        text = segment.text
        if text not in lines:
            result = classify(text, lexicon)
            lines[text] = (
                None if result is None
                else "{" + labels_fragment(text, result.evidence) + "}\n"
            )
        line = lines[text]
        if line is None:
            # The lines before a warning are written before it.
            _write_block(block)
            print(
                f"warning: {transcript_path}: segment at {segment.start_s:.3f} s "
                f"has no classifiable text ({text!r}); dropped",
                file=sys.stderr,
            )
        else:
            block.append(line)
            if len(block) == _BLOCK_LINES:
                _write_block(block)
    _write_block(block)
    return EXIT_OK


def _write_block(block: list[str]) -> None:
    """Write the lines of ``block`` in one write, and empty it."""
    if block:
        _write_stdout("".join(block))
        block.clear()


def _run_pipeline(settings: dict, parser: _Parser) -> int:
    for name in _OPTION_NAMES.values():
        _path(settings, name, parser, required=name in ("gpx", "transcript", "out"))
    field_names = {option: name for name, option in _OPTION_NAMES.items()}
    try:
        config = PipelineConfig(
            **{field_names.get(name, name): value for name, value in settings.items()}
        )
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


def _run_stats(settings: dict, parser: _Parser) -> int:
    out_path = _path(settings, "out", parser)
    sources = {}  # label -> path, in the order given
    for item in settings["sources"]:
        label, sep, path_text = item.partition("=")
        name = f"source {item!r}: label"
        if not sep:
            path_text, label = item, Path(item).stem
            name += " (by default the file stem; set one with LABEL=PATH)"
        _check_path(f"source {item!r}", path_text, parser)
        try:
            check_label(name, label)
        except ValueError as exc:
            parser.error(str(exc))
        if label in sources:
            parser.error(f"source {item!r}: label {label!r} given twice")
        sources[label] = path_text
    all_stats = []
    for label, path_text in sources.items():
        triads = parse_input(path_text, read_triads, Path(path_text).read_bytes())
        all_stats.append(corpus_stats(label, [t.event for t in triads]))
    report = render_report(all_stats)
    if out_path is None:
        _write_stdout(report)
    else:
        write_text(out_path, report)
    return EXIT_OK


def _run_synth(settings: dict, parser: _Parser) -> int:
    out_dir = _path(settings, "out", parser, required=True)
    style = _choice(settings, "style", STYLES, DEFAULT_STYLE, parser)
    try:
        plan = RoutePlan(
            legs=parse_legs(settings.get("legs", DEFAULT_LEGS)),
            **{name: settings[name] for name in _PLAN_OPTIONS if name in settings},
        )
        corpus = generate_instructions(plan, style)
    except ValueError as exc:
        parser.error(str(exc))
    files = write_corpus(corpus, out_dir)
    _write_stdout(f"wrote {len(files)} files to {out_dir}\n")
    return EXIT_OK


def _write_stdout(text: str) -> None:
    """Write command output; a failed write raises IoError (exit 70).

    A character the stream cannot encode, such as the lone surrogate that
    stands for a path byte that is not UTF-8, is written as the
    backslashreplace escape that standard error also uses. Only this text
    is escaped: the stream's own settings are left as they are.
    """
    try:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError:
            escaped = text.encode(sys.stdout.encoding, "backslashreplace")
            sys.stdout.flush()
            sys.stdout.buffer.write(escaped)
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
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required")
        # A usage error found by a subcommand prints that subcommand's usage.
        command = commands[args.command]
        return args.func(_settings(args, command), command)
    except SystemExit as exc:
        return EXIT_OK if exc.code is None else exc.code
    except DataError as exc:
        where = "" if exc.path is None else f"{exc.path}: "
        print(f"error: {where}{type(exc).__name__}: {exc}", file=sys.stderr)
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

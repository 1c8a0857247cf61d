"""polbec.cli's plain parse against argparse, on any interpreter.

cli.main parses a plain command line (a subcommand, then only its own
options as exact '--option value' pairs) without argparse, and hands every
other line to argparse.  For each line, the plain parse must either decline
it or give exactly the namespace that the whole parser gives it, with no
token left over; where argparse exits or leaves a token over, the plain
parse must decline.  argparse's reading of '-'-leading values and of '--'
has changed between Python releases, so this check needs only the standard
library, and runs under every interpreter polbec supports:

    python tests/parser_parity.py [count] [seed]

checks the fixed CORPUS and count (default 5000) lines drawn with the seed
(default 0), and exits 1 at the first disagreement, which it prints.
tests/test_cli.py imports it.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polbec import cli  # noqa: E402


def declared(command: str) -> dict:
    """The options of command, by flag: (dest, type, default, choices, required)."""
    options = cli._Options()
    cli._add_options(options, command)
    return options


COMMAND_NAMES = list(cli.COMMANDS)
FLAGS = sorted({flag for command in COMMAND_NAMES for flag in declared(command)})

# tokens no plain line holds, or holds only as a value: abbreviations, '='
# forms, help, the version, '--', unknown options and values that look like one
STRAY = ["--conf", "--form", "--ste", "--out=x", "--format=json", "--steps=3", "-h",
         "--help", "--version", "--", "--bogus", "-x", "-", "", "-1e-3", "extra",
         "thresholds", "a b", "-a b"]

# what each kind of option is given: valid values, values that need care
# (a lone '-', an empty string, negative numbers in exponent form, integers
# in float spelling) and junk, some of it like a negative number
VALUES = {
    int: ["3", "0", "-2", "1e3", " 7", "1_0", "x", "", "-x", "3.0", "-2x"],
    float: ["0.2", "2", "-1e-3", "-.5", "1e3", "-3.", "nan", "inf", "-inf", "x", "", "-x",
            "1e400", "-1E+2", "-1e", "-1.5.2"],
    str: ["a.cfg", "T", "-", "", "-x", "-1", "-1e-3", "--config", "a b", "junk", "-2x"],
}


def values_for(option) -> list[str]:
    """The values a drawn line gives an option: its choices, each in the
    wrong case too, and junk, or those of its type."""
    _, convert, _, choices, _ = option
    if choices is not None:
        return [*choices, *(c.upper() for c in choices), "junk", ""]
    return VALUES[convert]


def drawn_line(pick) -> list[str]:
    """A command line drawn by pick, which returns one item of a sequence:
    a command, then each option it takes (each required one, else now and
    then) with a drawn value, its pairs in a drawn order, one now and then
    given twice or given an option of another command, and stray tokens
    inserted anywhere, the first token included."""
    command = pick(COMMAND_NAMES)
    pairs = [[flag, pick(values_for(option))] for flag, option in declared(command).items()
             if option[4] or pick((True, False))]
    for _ in range(pick((0, 0, 1, 2))):  # an option again, or another command's
        pairs.append([pick(FLAGS), pick(pick(list(VALUES.values())))])
    pairs.sort(key=lambda pair: pick(range(8)))
    line = [command, *(token for pair in pairs for token in pair)]
    for _ in range(pick((0, 0, 0, 1, 2))):
        line.insert(pick(range(len(line) + 1)), pick(STRAY))
    return line


SWEEP = ["sweep", "--config", "a.cfg", "--param", "T", "--from", "2", "--to", "2000",
         "--steps", "5", "--command", "thresholds"]

# fixed lines that the plain parse takes: what the benchmark and the docs
# run, and the edges of its rule
PLAIN = [
    ["thresholds", "--config", "a.cfg"],
    ["thresholds", "--config", "a.cfg", "--out", "-"],
    ["thresholds", "--config", "a.cfg", "--out", ""],
    ["thresholds", "--config", "a.cfg", "--out", "a", "--out", "b"],
    ["thresholds", "--config", "a", "--config", "b"],
    ["thresholds", "--config", "-1"],
    ["masses", "--config", "a.cfg", "--format", "json", "--units", "si"],
    ["dispersion", "--config", "a.cfg", "--format", "json"],
    ["dispersion", "--config", "a.cfg", "--samples", "50001", "--kmax", "-.5"],
    ["check-coupling", "--config", "a.cfg", "--threshold", "-1e-3"],
    ["trap", "--config", "a.cfg", "--target-tc", "300", "--n-particles", "1e6"],
    SWEEP,
    [*SWEEP, "--scale", "log"],
    [*SWEEP, "--from", "-1e-3", "--to", "-.5"],
]

# fixed lines that it declines, for argparse to take
DECLINED = [
    ["thresholds", "--config", "a.cfg", "--samples", "3"],
    ["thresholds", "--config", "a.cfg", "-h"],
    ["thresholds", "--config", "a.cfg", "--"],
    ["thresholds", "--", "--config", "a.cfg"],
    ["thresholds", "--conf", "a.cfg"],
    ["thresholds", "--config=a.cfg"],
    ["thresholds", "--config"],
    ["thresholds"],
    ["thresholds", "--config", "-x"],
    ["masses", "--config", "a.cfg", "--format", "JSON"],
    ["dispersion", "--config", "a.cfg", "--samples", "1e3"],
    ["check-coupling", "--config", "a.cfg", "--threshold=-1e-3"],
    [*SWEEP, "--scale", "LOG"],
    [*SWEEP, "--steps", "1e3"],
    [*SWEEP, "--param", "--from"],
    [*SWEEP[:-2], "--command", "trap"],
    SWEEP[:-2],
]

CORPUS = PLAIN + DECLINED


def whole_parse(argv: list[str]):
    """vars() of the namespace the whole parser gives argv and the tokens it
    leaves over, or None where it exits (its output swallowed)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace, rest = cli.build_parser().parse_known_args(argv)
        except SystemExit:
            return None
    return vars(namespace), rest


def plain_parse(argv: list[str]):
    """The namespace main's plain parse gives argv, or None where it declines."""
    return cli._plain_args(argv[0], argv[1:]) if argv and argv[0] in cli.COMMANDS else None


def disagreement(argv: list[str]) -> str | None:
    """How the plain parse of argv disagrees with argparse, or None."""
    plain = plain_parse(argv)
    if plain is None:
        return None
    whole = whole_parse(argv)
    if whole is None:
        return f"{argv!r}: argparse exits, the plain parse gives {vars(plain)!r}"
    expected, rest = whole
    if rest:
        return f"{argv!r}: argparse leaves {rest!r} over, the plain parse gives {vars(plain)!r}"
    if repr(sorted(vars(plain).items())) != repr(sorted(expected.items())):
        return f"{argv!r}: argparse gives {expected!r}, the plain parse {vars(plain)!r}"
    return None


def lines(count: int, seed: int):
    """CORPUS, then count lines drawn with random.Random(seed)."""
    yield from CORPUS
    pick = random.Random(seed).choice
    for _ in range(count):
        yield drawn_line(pick)


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 5000
    seed = int(argv[1]) if len(argv) > 1 else 0
    checked = plain = 0
    for line in lines(count, seed):
        problem = disagreement(line)
        if problem:
            print(f"parser parity: {problem}")
            return 1
        checked += 1
        plain += plain_parse(line) is not None
    version = sys.version.split()[0]
    print(f"parser parity: Python {version}, {checked} lines agree, {plain} parsed plainly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

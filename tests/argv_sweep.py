"""Differential sweep of ``cli._parse`` against the full argparse parser.

    PYTHONPATH=src python tests/argv_sweep.py [COUNT [SEED]]

Draws COUNT random argvs (default 200000, seed 0) over every subcommand's
declared tokens and checks that ``cli._parse(argv)`` gives the namespace of
``build_parser().parse_args(argv)`` apart from ``command``, or that both
exit with the same code, stdout and stderr.  The full parser's namespace
passes the list refusal that ``cli._parse`` applies (``full_parse``).
Prints the interpreter, the number of argvs, how many ``cli._read_words``
read directly and the number of mismatches, and exits 1 on any mismatch.
It needs neither pytest nor hypothesis, so it runs under every interpreter
the package supports: the reader mirrors argparse, whose behaviour belongs
to the interpreter.
``tests/test_cli.py`` runs the same comparison as a hypothesis property.
"""

import io
import platform
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from equizeta import cli

# Words for positionals and string values: fixture names, one that starts
# with "-", a stdin "-", "--", an empty word and words of other subcommands.
WORDS = ("x2k_Z2(2)", "-x2-y4_Z2", "+1", "rational", "-", "--", "", "sphere_free", "list", "show")
GOOD_INTS = ("4", "0", "12")
BAD_INTS = ("-1", "1.5", "x", "", "-", "--", " 7")
STRINGS = ("2,2", "-1,1", "1", "+1", "-1", "", "--")
NOISE = ("--", "--", "-h", "--help", "--bogus", "-1", "bogus") + WORDS


def _option_words(rng, action):
    """One option of ``action`` as argv words: its full name or a prefix of
    it, and a good or bad value, separate or after "="."""
    name = rng.choice(action.option_strings)
    if rng.random() < 0.1 and len(name) > 3:
        name = name[: rng.randrange(3, len(name))]
    if action.nargs == 0:  # a store_true flag
        return [name + "=x"] if rng.random() < 0.1 else [name]
    if action.choices is not None:
        value = rng.choice(tuple(action.choices) + ("bogus",))
    elif action.type is int:
        value = rng.choice(GOOD_INTS if rng.random() < 0.8 else BAD_INTS)
    else:
        value = rng.choice(STRINGS)
    return [name + "=" + value] if rng.random() < 0.4 else [name, value]


def random_argv(rng):
    """A random argv: a subcommand's declared options and positionals in
    random order, some after "--", often with one word inserted, dropped or
    appended."""
    if rng.random() < 0.02:
        return rng.choice([[], ["-h"], ["bogus", "x"], ["--variant", "plus", "compute", "x"]])
    commands = cli._parsers()[1]
    name = rng.choice(sorted(commands))
    actions = [a for a in commands[name][0]._actions if a.dest != "help"]
    pieces, positionals = [], []
    for action in actions:
        if action.option_strings:
            if rng.random() < (0.9 if action.required else 0.5):
                pieces.append(_option_words(rng, action))
        elif action.choices:  # catalog's list|show
            positionals.append(rng.choice(sorted(action.choices)))
            if rng.random() < 0.7:
                positionals.append(rng.choice(WORDS))
        else:
            positionals.append(rng.choice(WORDS))
    if rng.random() < 0.05:
        positionals.append(rng.choice(WORDS))
    if positionals and rng.random() < 0.05:
        positionals.pop(rng.randrange(len(positionals)))
    if rng.random() < 0.4:
        pieces.append(["--"] + positionals)
    else:
        pieces.extend([p] for p in positionals)
    rng.shuffle(pieces)
    words = [w for piece in pieces for w in piece]
    edit = rng.randrange(6)
    if edit == 0:
        words.insert(rng.randrange(len(words) + 1), rng.choice(NOISE))
    elif edit == 1 and words:
        words.pop(rng.randrange(len(words)))
    elif edit == 2:
        words.append(rng.choice(NOISE))
    return [name] + words


def outcome(parse, argv):
    """("ok", the namespace's attributes apart from ``command``, stdout,
    stderr) of ``parse(argv)``, or ("exit", code, stdout, stderr) when it
    exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    values = dict(vars(args))
    values.pop("command", None)
    return "ok", values, out.getvalue(), err.getvalue()


def full_parse(argv):
    """``build_parser().parse_args(argv)``, with a list value, which argparse
    makes of a lone "--", refused by ``cli._refuse_lists`` as ``cli._parse``
    refuses it."""
    args = cli.build_parser().parse_args(argv)
    return cli._refuse_lists(cli._parsers()[1][args.command][0], args)


def read_directly(argv) -> bool:
    """True when ``cli._read_words`` reads ``argv`` with no argparse parse."""
    command = cli._parsers()[1].get(argv[0]) if argv else None
    return (command is not None and command[1] is not None
            and cli._read_words(argv[1:], command[1]) is not None)


def main(count=200_000, seed=0):
    rng = random.Random(seed)
    direct = mismatches = 0
    for _ in range(count):
        argv = random_argv(rng)
        direct += read_directly(argv)
        if outcome(cli._parse, argv) != outcome(full_parse, argv):
            mismatches += 1
            if mismatches <= 5:
                print("mismatch:", argv)
    print(f"python {platform.python_version()}: {count} argvs, "
          f"{direct} read directly, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))

"""Command-line interface.

Subcommands: compute, compare, oracle, catalog, cohomology.  Exit codes are
0 (success / equal), 1 (compare found a difference), and otherwise the
``exit_code`` of the ``EquizetaError`` raised: 2 (semantic error such as
failed validation or a non-invariant germ), 3 (parse or schema error).
All configuration is via flags; "-" reads standard input.  ``main`` reads
well-formed words after a known subcommand name straight from that
subcommand parser's declared actions (``_read_words``, from the tables that
``_parsers`` builds beside each parser) and hands anything else to argparse:
to the subcommand's own parser, then for an empty argv, an unknown first
word, a top-level ``-h`` or any argument the subcommand leaves over to the
full parser.  So argparse stays the one declaration and the only writer of
usage, help and error texts and exit codes.  Structured output is
indented JSON with sorted keys, and each output has one writer.
``catalog show`` prints ``resolution.serialize``.  Everything else goes
through ``_emit``, which takes an engine object, or a flat dict of scalars
and engine objects, and writes each object without a ``to_json`` tree: a
cleared fraction straight from its interleaved term lists, one ``%`` call
on a template of one JSON block per term for each polynomial, and a
``TSeries`` or ``RatFunc`` from the Laurent rows of its values
(``ratpoly._laurent_row``), one ``join`` per polynomial.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from . import catalog, cohomology, resolution, zeta
from .arcs import MonomialGerm, SignAction, oracle_series
from .errors import EquizetaError, InvalidInput, ParseError, SchemaError
from .ratpoly import _ZERO_ROW, RatFunc, TSeries, ZetaRational, _row_of, _too_long_to_print

EXIT_OK = 0
EXIT_UNEQUAL = 1


# How _emit writes each scalar type; exact types only, so bool is not int.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _emit(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for the
    JSON the CLI prints: an engine object, or a flat dict with str keys whose
    values are str, int, bool, None or engine objects.  A ``ZetaRational`` is
    written as its cleared fraction (``_cleared_text``), and a ``TSeries`` or
    ``RatFunc`` as its ``to_json()`` would be (``_series_text``,
    ``_ratfunc_text``), straight from its Laurent rows (``_row_writer``).

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set; this writer quotes strings with the C routine ``json`` uses.
    Anything else, a list or a nested dict among them, raises ``TypeError``.
    """
    if type(obj) is not dict:
        return _value_text(obj, "\n")
    if not obj:
        return "{}"
    return "{\n  " + ",\n  ".join(
        encode_basestring_ascii(key) + ": " + _value_text(obj[key], "\n  ") for key in sorted(obj)
    ) + "\n}"


def _value_text(obj, newline) -> str:
    """The JSON text of a scalar or an engine object whose lines after the
    first start with ``newline``."""
    write = _JSON_SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    write = _JSON_OBJECTS.get(type(obj))
    if write is None:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    return write(obj, newline)


def _cleared_text(z, newline) -> str:
    """The cleared fraction of ``z`` as ``{"den": [...], "num": [...]}``, one
    ``{"c": decimal string, "t": T exponent, "u": u exponent}`` object per
    term in (t, u) order, written straight from ``z.cleared_terms()``."""
    num, den = z.cleared_terms()
    inner = newline + "  "
    return ("{" + inner + '"den": ' + _terms_text(den, inner) + ","
            + inner + '"num": ' + _terms_text(num, inner) + newline + "}")


def _terms_text(terms, newline) -> str:
    """The interleaved [c, t, u, ...] list ``terms`` as the JSON list of its
    term objects, in one ``%`` call on a template of one block per term.  A
    coefficient too long to print is ``ratpoly._too_long_to_print`` (exit 2)."""
    if not terms:
        return "[]"
    item = newline + "  "
    field = item + "  "
    block = "{" + field + '"c": "%d",' + field + '"t": %d,' + field + '"u": %d' + item + "}"
    try:
        text = ("," + item).join([block] * (len(terms) // 3)) % tuple(terms)
    except ValueError as exc:
        raise _too_long_to_print(exc) from exc
    return "[" + item + text + newline + "]"


def _row_writer(newline):
    """The writer of a Laurent row's value (``ratpoly._laurent_row``) as its
    ``to_json()``, ``{"den": [...], "num": [...]}``, whose lines after the
    first start with ``newline``.  The num is u^low poly and the den
    u^-low den, whichever power of u is not negative: each list is that
    power's zeros as one repeated string and the polynomial in one
    ``map(str)`` join, and each distinct den is joined once per writer."""
    inner = newline + "  "
    item = inner + '  "'
    sep = '",' + item
    zero = "0" + sep
    dens = {}

    def write(row) -> str:
        low, poly, den = row
        den_text = dens.get(den)
        if den_text is None:
            den_text = dens[den] = _joined(sep, den)
        num_text = f'[{item}{zero * low}{_joined(sep, poly)}"{inner}]' if poly else "[]"
        return (f'{{{inner}"den": [{item}{zero * -low}{den_text}"{inner}],'
                f'{inner}"num": {num_text}{newline}}}')

    return write


def _joined(sep: str, poly: tuple) -> str:
    """``sep.join`` of the decimal strings of ``poly``; a coefficient too long
    to print is ``ratpoly._too_long_to_print`` (exit 2)."""
    try:
        return sep.join(map(str, poly))
    except ValueError as exc:
        raise _too_long_to_print(exc) from exc


def _ratfunc_text(f, newline) -> str:
    """``f.to_json()``, written from its Laurent row."""
    return _row_writer(newline)(_row_of(f))


def _series_text(s, newline) -> str:
    """``s.to_json()``, ``{"coeffs": [...], "order": n}``, written from its
    rows by one ``_row_writer``, a run of leading zero rows as one repeated
    string."""
    inner = newline + "  "
    item = inner + "  "
    sep = "," + item
    write = _row_writer(item)
    rows = s.rows
    lead = next((n for n, row in enumerate(rows[:-1]) if row[1]), len(rows) - 1)
    coeffs = (write(_ZERO_ROW) + sep) * lead + sep.join([write(row) for row in rows[lead:]])
    return ("{" + inner + '"coeffs": [' + item + coeffs + inner + "],"
            + inner + '"order": ' + str(len(rows) - 1) + newline + "}")


# How _emit writes each engine object; exact types, as for _JSON_SCALARS.
_JSON_OBJECTS = {
    ZetaRational: _cleared_text,
    TSeries: _series_text,
    RatFunc: _ratfunc_text,
}


def _read(ref: str):
    """The text of standard input ("-") or the bytes of the file ``ref``."""
    if ref == "-":
        return sys.stdin.read()
    try:
        with open(ref, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {ref}: {exc}") from exc


def _load_resolution(ref: str) -> resolution.ResolutionData:
    """Resolve a positional argument: stdin, a file path, or a fixture name."""
    if ref == "-" or os.path.exists(ref):
        return resolution.parse(_read(ref))
    if os.sep in ref or ref.endswith(".json"):
        raise ParseError(f"no such file: {ref}")
    return catalog.get(ref)


def _non_negative(value, flag: str):
    if value is not None and value < 0:
        raise InvalidInput(f"{flag} must be non-negative, got {value}")


def _cmd_compute(args) -> int:
    _non_negative(args.expand, "--expand")
    res = _load_resolution(args.input)
    if args.format == "json":
        print(_emit(zeta.zeta_json(res, args.variant, args.expand)))
        return EXIT_OK
    z = zeta.denef_loeser(res, args.variant)
    if args.format == "display":
        print(zeta.display(z))
    elif args.format == "rational":
        print(_emit(z))
    else:
        if args.expand is None:
            raise InvalidInput("--format series requires --expand N")
        print(_emit(z.t_series(args.expand)))
    return EXIT_OK


def _cmd_compare(args) -> int:
    _non_negative(args.order, "--order")
    a = _load_resolution(args.lhs)
    b = _load_resolution(args.rhs)
    report = zeta.distinguish(a, b, args.variant, args.order)
    print(_emit(vars(report)))
    return EXIT_OK if report.equal else EXIT_UNEQUAL


def _parse_int_list(text: str, flag: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"{flag} expects a comma-separated integer list") from exc


def _cmd_oracle(args) -> int:
    _non_negative(args.order, "--order")
    exponents = _parse_int_list(args.exponents, "--exponents")
    sign = {"+1": 1, "-1": -1, "1": 1}[args.sign]
    germ = MonomialGerm(exponents, sign)
    if args.trivial_group:
        action = SignAction(trivial=True)
    else:
        if args.action is None:
            raise InvalidInput("--action or --trivial-group is required")
        action = SignAction(_parse_int_list(args.action, "--action"))
    series = oracle_series(germ, action, args.variant, args.order)
    print(_emit(series))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            print(name)
        return EXIT_OK
    res = catalog.get(args.name)
    print(resolution.serialize(res).decode())
    return EXIT_OK


_PIPELINE_BUILDERS = {
    "sphere_free": cohomology.sphere_free_pipeline,
    "sphere_fixed": cohomology.sphere_fixed_pipeline,
    "circle_fixed": cohomology.circle_fixed_pipeline,
}


def _cmd_cohomology(args) -> int:
    if args.input in _PIPELINE_BUILDERS:
        spec = _PIPELINE_BUILDERS[args.input]()
    else:
        spec = resolution.load_json(_read(args.input))
    series = cohomology.run_pipeline(spec)
    print(str(series))
    prefix = series.laurent(-4)
    if prefix:
        top = (len(series.num) - 1) - (len(series.den) - 1)
        shown = " ".join(str(c) for c in prefix)
        print(f"laurent u^{top}..u^-4: {shown}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """(the top-level parser, {subcommand name: (that subcommand's parser,
    its ``_table``)})."""
    parser = argparse.ArgumentParser(
        prog="equizeta",
        description="equivariant zeta functions of invariant Nash germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="zeta function of resolution data")
    compute.add_argument("input", help="resolution JSON path, '-', or fixture name")
    compute.add_argument("--variant", choices=zeta.VARIANTS, default="naive")
    compute.add_argument("--expand", type=int, default=None, metavar="N")
    compute.add_argument(
        "--format",
        choices=("display", "json", "rational", "series"),
        default="display",
    )
    compute.set_defaults(func=_cmd_compute)

    compare = sub.add_parser("compare", help="compare two germs' zeta functions")
    compare.add_argument("lhs")
    compare.add_argument("rhs")
    compare.add_argument("--variant", choices=zeta.VARIANTS, default="naive")
    compare.add_argument("--order", type=int, default=16, metavar="N")
    compare.set_defaults(func=_cmd_compare)

    oracle = sub.add_parser("oracle", help="arc-space series of a monomial germ")
    oracle.add_argument("--exponents", required=True, metavar="N1,N2,...")
    oracle.add_argument("--sign", choices=("+1", "-1", "1"), default="+1")
    oracle.add_argument("--action", default=None, metavar="e1,e2,...")
    oracle.add_argument("--trivial-group", action="store_true")
    oracle.add_argument("--variant", choices=zeta.VARIANTS, default="naive")
    oracle.add_argument("--order", type=int, default=8, metavar="N")
    oracle.set_defaults(func=_cmd_oracle)

    cat = sub.add_parser("catalog", help="browse built-in fixtures")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_list = cat_sub.add_parser("list")
    cat_list.set_defaults(func=_cmd_catalog, action="list")
    cat_show = cat_sub.add_parser("show")
    cat_show.add_argument("name")
    cat_show.set_defaults(func=_cmd_catalog, action="show")

    coh = sub.add_parser("cohomology", help="betti series of a module pipeline")
    coh.add_argument(
        "input",
        help="pipeline JSON path, '-', or a built-in name "
        "(sphere_free, sphere_fixed, circle_fixed)",
    )
    coh.set_defaults(func=_cmd_cohomology)

    return parser, {name: (command, _table(command)) for name, command in sub.choices.items()}


# The type of a store_true flag's slot in a _table.
_FLAG = object()


def _table(command):
    """What ``_read_words`` needs of ``command``'s declared actions:
    ({full option name: slot}, the positionals' slots in declared order, the
    dests of the required options, the defaults in the order argparse sets
    them).  A slot is (dest, type or None, choices or None), and a
    ``store_true`` flag's is (dest, _FLAG, None).  None when ``command``
    declares an action other than help, a plain store or a ``store_true``
    flag, such as ``catalog``'s subparsers.  The differential tests draw
    their words from these same declarations, so a declaration that the
    reader would not mirror fails them."""
    options, positionals, required, defaults = {}, [], [], {}
    for action in command._actions:
        kind = type(action)
        if kind is argparse._HelpAction:
            continue
        if kind is argparse._StoreTrueAction:
            slot = (action.dest, _FLAG, None)
        elif kind is argparse._StoreAction and action.nargs is None:
            slot = (action.dest, action.type, action.choices)
        else:
            return None
        for name in action.option_strings:
            options[name] = slot
        if not action.option_strings:
            positionals.append(slot)
        elif action.required:
            required.append(action.dest)
        defaults[action.dest] = action.default
    for dest, value in command._defaults.items():
        defaults.setdefault(dest, value)
    return options, tuple(positionals), tuple(required), defaults


# What _value returns for a value that argparse would refuse.
_REFUSED = object()


def _value(slot, text):
    """``text`` through ``slot``'s type and choices, as argparse applies
    them, or ``_REFUSED`` when either refuses it."""
    _, kind, choices = slot
    if kind is not None:
        try:
            text = kind(text)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return _REFUSED
    if choices is not None and text not in choices:
        return _REFUSED
    return text


def _read_words(words, table):
    """The namespace that ``table``'s parser gives for ``words``, read in
    one pass; None for anything outside the well-formed subset below.

    Read: full option names as ``--name value`` or ``--name=value``, flags,
    positionals in declared order, and one ``--`` after which every word, at
    least one, is a positional.  Each value goes through its slot's type and
    choices, and every positional and required option must be present.  None
    for an abbreviated or unknown option, ``-h``, a separate value or a
    positional that starts with "-", an ``=`` value of "--" (argparse before
    3.13 strips it), a flag given a value, a failed type or choice, a
    missing or extra positional, and a second or trailing ``--``."""
    options, positionals, required, defaults = table
    tail = ()
    if "--" in words:
        cut = words.index("--")
        words, tail = words[:cut], words[cut + 1:]
        if not tail or "--" in tail:
            return None
    given, texts = [], []  # (slot, word) per option given; positional words
    words = iter(words)
    for word in words:
        if word[:1] != "-":
            texts.append(word)
            continue
        slot = options.get(word)
        if slot is None:
            name, eq, word = word.partition("=")
            slot = options.get(name)
            if slot is None or not eq or slot[1] is _FLAG or word == "--":
                return None
        elif slot[1] is not _FLAG:
            word = next(words, None)
            if word is None or word[:1] == "-":
                return None
        given.append((slot, word))
    texts.extend(tail)
    if len(texts) != len(positionals):
        return None
    given.extend(zip(positionals, texts))
    if not {slot[0] for slot, _ in given}.issuperset(required):
        return None
    values = dict(defaults)
    for slot, word in given:
        value = True if slot[1] is _FLAG else _value(slot, word)
        if value is _REFUSED:
            return None
        values[slot[0]] = value
    return argparse.Namespace(**values)


def _merge_dash_values(argv):
    """Glue '--action -1,1' into '--action=-1,1' so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--action", "--exponents", "--sign") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and len(nxt) > 1 and nxt[1].isdigit():
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def _parse(argv):
    """The namespace that ``build_parser().parse_args(argv)`` gives, apart
    from ``command``, from at most one argparse parse.

    The top-level parser would only hand ``argv[1:]`` to the named
    subcommand's parser and then refuse anything that parser left over.  So
    the words after a known subcommand name are first read straight from
    that parser's ``_table`` (``_read_words``); whatever the reader declines
    goes to the subcommand's parser, and anything but a known subcommand
    name first, or any leftover, to the full parser, which prints the usage,
    help or error and exits.  What argparse returns passes
    ``_refuse_lists``."""
    parser, commands = _parsers()
    command, table = commands.get(argv[0] if argv else None, (None, None))
    if table is not None:
        args = _read_words(argv[1:], table)
        if args is not None:
            return args
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return _refuse_lists(command, args)
    args = parser.parse_args(argv)
    return _refuse_lists(commands[args.command][0], args)


def _refuse_lists(command, args):
    """args, or ``command``'s usage error (exit 2) for an option or
    positional whose value argparse gave as a list.  No declared action
    takes one, but argparse strips a lone "--" value to []: an ``=`` value
    before Python 3.13, and a positional after a first "--" on every
    version."""
    for action in command._actions:
        if isinstance(getattr(args, action.dest, None), list):
            command.error(f"argument {argparse._get_action_name(action)}: expected one argument")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(_merge_dash_values(list(argv)))
    try:
        return args.func(args)
    except EquizetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main_entry():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

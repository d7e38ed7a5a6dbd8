"""Command-line front end with machine-readable output.

Seven subcommands expose the library: classify, decompose, enumerate-pr,
validate, assumption-check, counterexample, and orbit-shift.  Output is
JSON (sorted keys) or TSV, selected by --format or the POLYWEIGHT_FORMAT
environment variable; repeated identical requests produce byte-identical
output.  Exit codes: 0 success, 2 malformed request, 3 domain error,
4 precondition violation.
"""

import argparse
import json
import os
import sys
from collections import namedtuple

from . import __version__, kernel_backend_name
# ``perfbench/tracing.py`` wraps ``shift_bound_a`` here; the orbit-shift
# handler reads the bound off ``check_shift_bijection``'s result.
from .affine import check_shift_bijection, shift_bound_a  # noqa: F401
from .certify import check_assumption
from .classify import (
    ClassificationContext,
    decompose,
    enumerate_Pr,
    go_even_counterexample,
    in_Pr,
    is_polynomial,
    is_restricted,
)
from .errors import (
    DecompositionUnavailable,
    DomainError,
    PreconditionError,
)
from .groups import parse_group_spec, validate_datum
from .lattice import PRPOW_BIT_LIMIT, is_prime, is_prime_power

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_PRECONDITION = 4

_FORMATS = ("json", "tsv")


class RequestError(ValueError):
    """A request that violates the CLI grammar or its invariants."""


def _parse_weight(text, ambient_dim):
    try:
        weight = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise RequestError(
            f"weight {text!r} is not a comma-separated integer list"
        ) from None
    if len(weight) != ambient_dim:
        raise RequestError(
            f"weight has {len(weight)} coordinates; the group needs "
            f"{ambient_dim}"
        )
    return weight


def _require_positive(value, name):
    if value < 1:
        raise RequestError(f"{name} must be a positive integer, got {value}")


def _modulus_datum(args):
    """The datum of ``--group``, once ``--p`` is prime and ``--r`` positive."""
    datum = parse_group_spec(args.group)
    if not is_prime(args.p):
        raise RequestError(f"p must be prime, got {args.p}")
    _require_positive(args.r, "r")
    return datum


def _context_for(args):
    return ClassificationContext(_modulus_datum(args), args.p, args.r)


def _require_prime_power(value):
    # the library refuses the same bit length; here the flag is named
    if value >= 2 and value.bit_length() > PRPOW_BIT_LIMIT:
        raise DomainError(
            f"--prpower is refused: its bit_length {value.bit_length()} "
            f"exceeds {PRPOW_BIT_LIMIT}"
        )
    if not is_prime_power(value):
        raise RequestError(f"--prpower must be a prime power, got {value}")


def _weights(values):
    return [list(v) for v in values]


def _cmd_classify(args):
    ctx = _context_for(args)
    weight = _parse_weight(args.weight, ctx.datum.ambient_dim)
    result = {
        "weight": list(weight),
        "phi": list(ctx.phi(weight)),
        "is_polynomial": is_polynomial(weight, ctx),
        "is_restricted": is_restricted(weight, ctx),
        "in_Pr": in_Pr(weight, ctx),
    }
    try:
        split = decompose(weight, ctx)
    except DecompositionUnavailable as exc:
        result.update(
            is_simple_polynomial=False,
            lambda0=None,
            lambda_tilde=None,
            note=str(exc),
        )
    else:
        result.update(
            is_simple_polynomial=is_polynomial(split.lambda_tilde, ctx),
            lambda0=list(split.lambda0),
            lambda_tilde=list(split.lambda_tilde),
            note="",
        )
    return ctx, result


def _cmd_decompose(args):
    ctx = _context_for(args)
    weight = _parse_weight(args.weight, ctx.datum.ambient_dim)
    split = decompose(weight, ctx)
    return ctx, {
        "weight": list(weight),
        "lambda0": list(split.lambda0),
        "lambda_tilde": list(split.lambda_tilde),
        "phi_lambda0": list(ctx.phi(split.lambda0)),
        "phi_lambda_tilde": list(ctx.phi(split.lambda_tilde)),
    }


def _cmd_enumerate(args):
    ctx = _context_for(args)
    elements = enumerate_Pr(ctx)
    return ctx, {"count": len(elements), "elements": _weights(elements)}


def _cmd_validate(args):
    datum = parse_group_spec(args.group)
    report = validate_datum(datum)
    return datum, dict(
        report._asdict(), all_ok=report.all_ok, witnesses=list(report.witnesses)
    )


def _cmd_assumption(args):
    datum = _modulus_datum(args)
    if args.box_radius is not None:
        _require_positive(args.box_radius, "--box-radius")
    report = check_assumption(datum, args.p, args.r, box_radius=args.box_radius)
    return datum, {
        "box_radius": report.box_radius,
        "all_ok": report.all_ok,
        "properties": [
            {
                field: getattr(verdict, field)
                for field in ("name", "ok", "checked", "witness", "skipped")
            }
            for verdict in report.properties
        ],
    }


def _cmd_counterexample(args):
    _require_prime_power(args.prpower)
    report = go_even_counterexample(args.prpower)
    return None, {
        "prpow": report.prpow,
        "lambda0": list(report.lam0),
        "lambda_tilde": list(report.lam_tilde),
        "phi_lambda0": list(report.phi_lam0),
        "phi_lambda0_shifted": list(report.phi_lam0_shifted),
        "phi_lambda_tilde": list(report.phi_lam_tilde),
        "witness": None if report.witness is None else list(report.witness),
        "weyl_order": report.weyl_order,
    }


def _cmd_orbit_shift(args):
    ctx = _context_for(args)
    weight = _parse_weight(args.weight, ctx.datum.ambient_dim)
    _require_positive(args.box_radius, "--box-radius")
    if args.shift_i < 0:
        raise RequestError(f"--shift-i must be >= 0, got {args.shift_i}")
    outcome = check_shift_bijection(weight, args.shift_i, ctx, args.box_radius)
    return ctx, {
        "weight": list(weight),
        "shift_i": args.shift_i,
        "box_radius": args.box_radius,
        "shift_bound": outcome.shift_bound,
        "ok": outcome.ok,
        "counterexample": (
            None
            if outcome.counterexample is None
            else list(outcome.counterexample)
        ),
        "orbit_size": outcome.orbit_size,
    }


def _metadata(args, target):
    meta = {
        "command": args.command,
        "version": __version__,
        "backend": kernel_backend_name,
    }
    if target is None:
        return meta
    datum = target.datum if isinstance(target, ClassificationContext) else target
    meta["group"] = datum.spec_string
    meta["kernel_basis"] = _weights(datum.lattice.kernel_basis)
    if isinstance(target, ClassificationContext):
        meta["p"] = target.p
        meta["r"] = target.r
    return meta


def _render_value(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return " ".join(",".join(str(c) for c in row) for row in value)
        return ",".join(str(c) for c in value)
    return str(value)


def _render_tsv(result):
    if "elements" in result:
        lines = ["\t".join(str(c) for c in row) for row in result["elements"]]
    elif "properties" in result:
        lines = [
            "\t".join(
                (
                    prop["name"],
                    _render_value(prop["ok"]),
                    str(prop["checked"]),
                    prop["witness"],
                )
            )
            for prop in result["properties"]
        ]
        lines.append("all_ok\t" + _render_value(result["all_ok"]))
    else:
        lines = [
            f"{key}\t{_render_value(result[key])}" for key in sorted(result)
        ]
    return "\n".join(lines) + "\n"


def _render(args, target, result):
    if args.format == "tsv":
        return _render_tsv(result)
    payload = _metadata(args, target)
    payload["result"] = result
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


Option = namedtuple("Option", "flag type required default help",
                    defaults=(None, False, None, None))
Command = namedtuple("Command", "handler help options")

_GROUP = Option("--group", required=True,
                help="group spec: gl:N | gsp:N | go:N | levi:N1,N2,...")
_MODULUS = (
    _GROUP,
    Option("--p", int, True, help="prime"),
    Option("--r", int, True, help="positive exponent"),
)
_WEIGHT = Option("--weight", required=True, help="comma-separated integers")

# Every subcommand once, with its options in the order the parser adds them.
_COMMANDS = {
    "classify": Command(
        _cmd_classify, "membership predicates and decomposition summary",
        _MODULUS + (_WEIGHT,)),
    "decompose": Command(
        _cmd_decompose, "base digit plus p^r-multiple split",
        _MODULUS + (_WEIGHT,)),
    "enumerate-pr": Command(
        _cmd_enumerate, "all digit-set classes as canonical reps", _MODULUS),
    "validate": Command(
        _cmd_validate, "construction-hypothesis verdicts for a datum", (_GROUP,)),
    "assumption-check": Command(
        _cmd_assumption, "certify the functional's properties on a box",
        _MODULUS + (Option("--box-radius", int),)),
    "counterexample": Command(
        _cmd_counterexample, "even orthogonal rank-8 witness-failure scenario",
        (Option("--prpower", int, True, help="prime power p^r"),)),
    "orbit-shift": Command(
        _cmd_orbit_shift, "shift-bijection check on an orbit slice",
        _MODULUS + (_WEIGHT, Option("--shift-i", int, True),
                    Option("--box-radius", int, default=6))),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyweight",
        description="Polynomial weight classification for classical "
        "similitude groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default=os.environ.get("POLYWEIGHT_FORMAT", "json"),
        help="output format (env POLYWEIGHT_FORMAT; default json)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        for option in command.options:
            settings = option._asdict()
            sub.add_argument(settings.pop("flag"), **settings)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse checks --format, not a default read from POLYWEIGHT_FORMAT
        if args.format not in _FORMATS:
            raise RequestError(f"unknown output format {args.format!r}")
        target, result = _COMMANDS[args.command].handler(args)
        rendered = _render(args, target, result)
    except ValueError as exc:  # RequestError and the library's errors
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PreconditionError):
            return EXIT_PRECONDITION
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_PARSE
    sys.stdout.write(rendered)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

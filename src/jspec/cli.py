"""Command-line surface with stable JSON input and output.

Subcommands mirror the library one to one.  Documents are read from file
arguments ("-" reads stdin; single-input commands default to it) and one
JSON object is written to stdout.  Exit codes: 0 success, 2 input error,
3 numeric failure, 4 mathematical infeasibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io as jio
from . import spectralsets as ss
from .errors import (
    AlgebraMismatchError,
    InfeasiblePathError,
    InvalidFrameError,
    MembershipError,
    NumericError,
    OrbitMismatchError,
    UnsupportedAlgebraError,
)
from .orbits import _orbit_coords
from .permsets import pointed_sample_check
from .spectral import _idempotent_coords, eigen_map, spectral_decompose
from .spectralsets import SpectralSet

_INPUT_ERRORS = (
    ValueError,
    TypeError,
    KeyError,
    OSError,
    AlgebraMismatchError,
    InvalidFrameError,
    UnsupportedAlgebraError,
    MemoryError,  # an allocation that fails below errors.FLOAT_BUDGET
)
_INFEASIBLE_ERRORS = (
    InfeasiblePathError,
    OrbitMismatchError,
    MembershipError,
)


def _json(text: str, where: str):
    """Decode JSON text; nesting too deep for the decoder is an input error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deeply to decode") from None


def _load(path: str):
    """The JSON document in a file, read as bytes and decoded once as strict
    UTF-8 (the JSON decoder refuses a BOM and reads a CRLF line end as
    whitespace), or on stdin for "-"."""
    if path == "-":
        return _json(sys.stdin.read(), "stdin")
    with open(path, "rb") as fh:
        return _json(fh.read().decode("utf-8"), path)


def _nonneg(value: str) -> int:
    v = int(value)
    if v < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return v


# ---------------------------------------------------------------------------
# handlers


def _cmd_eig(args):
    x = jio.parse_element(_load(args.element))
    return {"lambda": eigen_map(x)}


def _cmd_decompose(args):
    x = jio.parse_element(_load(args.element))
    frame, values = spectral_decompose(x)
    return {
        "lambda": values,
        "frame": jio._element_array(x.algebra, _idempotent_coords(frame)),
    }


def _cmd_member(args):
    q_set = jio.parse_permset(_load(args.set))
    x = jio.parse_element(_load(args.element))
    sset = SpectralSet(x.algebra, q_set)
    return {"member": ss.ss_member(sset, x)}


def _cmd_connect(args):
    q_set = jio.parse_permset(_load(args.set))
    x = jio.parse_element(_load(args.x))
    y = jio.parse_element(_load(args.y))
    sset = SpectralSet(x.algebra, q_set)
    q_path = jio.parse_qpath(_load(args.qpath)) if args.qpath else None
    path = ss.connect(
        sset, x, y, q_path=q_path, steps=args.steps, tolerance=args.tolerance
    )
    return {
        "samples": jio._element_array(path.algebra, path.coords),
        "max_step": path.max_step,
        "tolerance": path.tolerance,
    }


def _cmd_fan(args):
    c = jio.parse_element(_load(args.c))
    a = jio.parse_element(_load(args.a))
    (delta, big), _, inside = ss._fan(c, a, args.samples, args.seed)
    return {"delta": delta, "Delta": big, "samples_in_interval": inside}


def _cmd_orbit_sample(args):
    x = jio.parse_element(_load(args.element))
    return {"samples": jio._element_array(x.algebra, _orbit_coords(x, args.count, args.seed))}


def _cmd_components(args):
    q_set = jio.parse_permset(_load(args.set))
    algebra = jio.parse_algebra(_load(args.algebra))
    comps = ss.components_finite(SpectralSet(algebra, q_set))
    # seven pieces per component, its representative, description and
    # element text at 1, 3 and 5
    pieces = jio._Raw(['{"representative": ', "", ', "description": ', "", ', "element": ', "", "}, "])
    pieces *= len(comps)
    pieces[5::7] = jio._element_texts(algebra, comps.coords)
    pieces[1::7] = jio._element_texts(algebra.rank, comps.representatives)
    pieces[3::7] = map(jio._string, comps.descriptions)
    pieces.insert(0, "[")
    pieces[-1] = "}]" if len(comps) else "[]"  # over the last separator, or the "["
    return {"components": pieces}


def _cmd_certify(args):
    q_set = jio.parse_permset(_load(args.set))
    cert = jio.parse_certificate(_load(args.certificate))
    sset = SpectralSet(cert.algebra, q_set)
    verdict = ss.certificate_check(sset, cert, args.samples, args.seed)
    return {
        "accepted": verdict.accepted,
        "failed_clause": verdict.failed_clause,
        "detail": verdict.detail,
    }


def _cmd_sum_split(args):
    z = jio.parse_element(_load(args.z))
    q1_set = jio.parse_permset(_load(args.q1set))
    q2_set = jio.parse_permset(_load(args.q2set))
    q1 = jio.parse_numbers(_json(args.q1, "--q1"), "--q1")
    q2 = jio.parse_numbers(_json(args.q2, "--q2"), "--q2")
    split = ss.sum_split(z, q1_set, q2_set, q1, q2)
    part1, part2 = jio._element_texts(z.algebra, [x.coords for x in split])
    return {"part1": jio._Raw([part1]), "part2": jio._Raw([part2])}


def _cmd_pointed_check(args):
    q_set = jio.parse_permset(_load(args.set))
    witness = pointed_sample_check(q_set, args.samples, args.seed)
    if witness is None:
        return {"verdict": "no-violation-found"}
    return {"verdict": "witness", "witness": witness}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """The `jspec` parser, built once per process with its subcommand
    parsers, which `main` reuses; each `parse_args` call returns a fresh
    namespace."""
    return _parsers()[0]


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `jspec` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="jspec",
        description="Spectral sets over Euclidean Jordan algebras: eigenvalue "
        "maps, orbit paths, connectivity witnesses, and cone certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="sorted eigenvalues of an element")
    p.add_argument("element", nargs="?", default="-", help="element document (default stdin)")
    p.set_defaults(handler=_cmd_eig)

    p = sub.add_parser("decompose", help="eigenvalues and a Jordan frame")
    p.add_argument("element", nargs="?", default="-")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("member", help="spectral-set membership test")
    p.add_argument("set", help="permutation-invariant set document")
    p.add_argument("element", nargs="?", default="-")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("connect", help="path witness between two members")
    p.add_argument("set")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--steps", type=int, default=32, help="sweep samples; the orbit leg takes "
                   "2*steps - 1, a witness 3*steps - 2 (default 32)")
    p.add_argument("--qpath", default=None, help="coefficient polyline file")
    p.add_argument("--tolerance", type=float, default=ss.PATH_TOL)
    p.set_defaults(handler=_cmd_connect)

    p = sub.add_parser("fan", help="range of <c, .> over an eigenvalue orbit")
    p.add_argument("c")
    p.add_argument("a")
    p.add_argument("--samples", type=_nonneg, default=1000)
    p.add_argument("--seed", type=_nonneg, default=0)
    p.set_defaults(handler=_cmd_fan)

    p = sub.add_parser("orbit-sample", help="random orbit elements")
    p.add_argument("element", nargs="?", default="-")
    p.add_argument("--count", type=_nonneg, default=10)
    p.add_argument("--seed", type=_nonneg, default=0)
    p.set_defaults(handler=_cmd_orbit_sample)

    p = sub.add_parser("components", help="components of a finite spectral set")
    p.add_argument("set")
    p.add_argument("algebra", help="algebra descriptor document")
    p.set_defaults(handler=_cmd_components)

    p = sub.add_parser("certify", help="audit a direct-sum cone certificate")
    p.add_argument("set")
    p.add_argument("certificate")
    p.add_argument("--samples", type=_nonneg, default=50)
    p.add_argument("--seed", type=_nonneg, default=0)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("sum-split", help="split an element across two sets")
    p.add_argument("z")
    p.add_argument("q1set")
    p.add_argument("q2set")
    p.add_argument("--q1", required=True, help="JSON vector")
    p.add_argument("--q2", required=True, help="JSON vector")
    p.set_defaults(handler=_cmd_sum_split)

    p = sub.add_parser("pointed-check", help="randomized pointedness probe")
    p.add_argument("set")
    p.add_argument("--samples", type=_nonneg, default=10000)
    p.add_argument("--seed", type=_nonneg, default=0)
    p.set_defaults(handler=_cmd_pointed_check)

    return parser, dict(sub.choices)


def _parse_args(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)` in one pass: the top-level parser
    hands every argument after the command to the command's parser, so a
    command line that starts with a command, asks for no help and leaves no
    argument over parses the same through that parser alone.  Any other
    command line, and any leftover, goes through the top-level parser, which
    writes the usage or error text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None and "-h" not in argv and "--help" not in argv:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    pieces = []
    try:
        jio._render(args.handler(args), pieces)
    except _INFEASIBLE_ERRORS as exc:
        clause = getattr(exc, "clause", None)
        label = f" [{clause}]" if clause else ""
        print(f"jspec: infeasible{label}: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"jspec: numeric failure: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"jspec: input error: {exc}", file=sys.stderr)
        return 2
    # the document is whole before its first piece is written, so an error
    # leaves stdout empty
    pieces.append("\n")
    write = sys.stdout.write
    for piece in pieces:
        write(piece)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: gen, certify, measure, reconstruct, falsify, witness, strict.
Every subcommand accepts --json and then emits exactly one JSON document on
stdout.  Exit codes: 0 = analysis completed (whatever the verdict),
2 = usage/parse/validation error, 3 = numerical failure.  Verdicts never
map to nonzero exit codes, so automation should parse --json.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import frames_io
# falsify_exact, falsify_search, kernel_basis and omega_matrix are no longer
# called here (`falsify` runs on certify's ladder) but stay conjpr.cli
# attributes, which perfbench/tracing.py wraps.
from .certify import certify, falsify_exact, falsify_search, kernel_basis, strict_report  # noqa: F401
from .errors import (
    CprError,
    DefiniteInputError,
    NoKernelError,
    NotPSDError,
    UnderdeterminedError,
    ValidationError,
)
from .frames_io import ComplexFrame
from .lift import measure, omega_matrix  # noqa: F401
from .reconstruct import reconstruct_altproj, reconstruct_linear
from .witness import cone_frame, witness_general

_NUMERICAL_ERRORS = (
    NotPSDError,
    UnderdeterminedError,
    NoKernelError,
    DefiniteInputError,
)


def _emit(args, doc: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(doc))
    else:
        for line in human_lines:
            print(line)


def _cmd_gen(args) -> int:
    if args.cone:
        if args.m != 3:
            raise ValidationError("--cone frames live in dimension 3 (use --m 3)")
        frame = cone_frame(args.n)
    else:
        frame = frames_io.random_frame(args.m, args.n, seed=args.seed)
    frames_io.save_frame(frame, args.output)
    generic = frames_io.generic_cpr_size(args.m) if args.m >= 2 else 1
    below = args.n < generic
    lines = [f"wrote {frame.m}x{frame.n} frame to {args.output}"]
    if below:
        lines.append(
            f"note: n={args.n} is below the generic retrieval size {generic} for m={args.m}"
        )
    _emit(
        args,
        {
            "written": str(args.output),
            "m": frame.m,
            "n": frame.n,
            "generic_cpr_size": generic,
            "below_generic": below,
        },
        lines,
    )
    return 0


def _cmd_certify(args) -> int:
    frame = frames_io.load_frame(args.frame)
    if isinstance(frame, ComplexFrame):
        raise ValidationError(
            "certify handles real frames only; run `cpr strict` on complex frames"
        )
    cert = certify(frame, budget=args.budget, seed=args.seed)
    witness_file = None
    if cert.witness is not None:
        witness_file = str(Path(args.frame).with_suffix(".witness.json"))
        frames_io.save_witness(cert.witness, witness_file)
    if args.output:
        frames_io.save_certificate(cert, args.output, witness_file=witness_file)
    lines = [f"{cert.verdict} ({cert.method})"]
    if cert.det_value is not None:
        lines.append(f"det = {cert.det_value!r}")
    if cert.kernel_dim is not None:
        lines.append(f"kernel dimension = {cert.kernel_dim}")
    if cert.violating_subset is not None:
        lines.append(f"complement property fails on subset {list(cert.violating_subset)}")
    if witness_file:
        lines.append(f"witness written to {witness_file}")
    if cert.trials:
        lines.append(f"search stats: {cert.trials}")
    _emit(args, frames_io.certificate_doc(cert, witness_file), lines)
    return 0


def _cmd_measure(args) -> int:
    frame = frames_io.load_frame(args.frame)
    x = frames_io.load_signal(args.signal)
    rng = frames_io.rng_stream(args.seed, 0) if args.noise_sigma else None
    meas = measure(frame, x, noise_sigma=args.noise_sigma, rng=rng)
    frames_io.save_measurement(meas, args.output)
    _emit(
        args,
        {
            "written": str(args.output),
            "n": meas.n,
            "noise_sigma": meas.noise_sigma,
        },
        [f"wrote {meas.n} measurements to {args.output}"],
    )
    return 0


def _cmd_reconstruct(args) -> int:
    frame = frames_io.load_frame(args.frame)
    meas = frames_io.load_measurement(args.meas)
    if args.method == "linear":
        result = reconstruct_linear(frame, meas)
    else:
        result = reconstruct_altproj(
            frame, meas, restarts=args.restarts, seed=args.seed
        )
    if args.strict and not result.converged:
        raise NotPSDError(
            f"reconstruction did not converge (best residual {result.lift_residual:.3e})",
            code="NotConverged",
        )
    frames_io.save_signal(result.estimate, args.output)
    _emit(
        args,
        {
            "written": str(args.output),
            "lift_residual": result.lift_residual,
            "rank_excess": result.rank_excess,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        [
            f"wrote estimate to {args.output}",
            f"lift_residual = {result.lift_residual:.3e}",
            f"rank_excess = {result.rank_excess:.3e}",
            f"converged = {result.converged} ({result.iterations} iterations)",
        ],
    )
    return 0


def _cmd_falsify(args) -> int:
    frame = frames_io.load_frame(args.frame)
    if isinstance(frame, ComplexFrame):
        raise ValidationError("falsify handles real frames only")
    frames_io._check_int(args.budget, "budget", 1)
    # the certify ladder: an exact answer from the lift kernel where it
    # decides, the multistart search where it does not
    cert = certify(frame, budget=args.budget, seed=args.seed)
    pair = cert.witness
    restarts = cert.trials["restarts"] if cert.trials else 0
    if cert.method == "KernelInertia":
        no_witness_line = (
            "no witness exists: the lifted kernel is spanned by a matrix with "
            "three eigenvalues of one sign"
        )
    elif cert.verdict == "CertifiedCPR":
        no_witness_line = "no witness exists: the lifted operator is injective"
    else:
        no_witness_line = f"no witness found in {restarts} restarts"
    if pair is None:
        _emit(
            args,
            {"found": False, "witness": None, "restarts": restarts},
            [no_witness_line],
        )
        return 0
    _emit(
        args,
        {"found": True, "witness": frames_io.witness_doc(pair), "restarts": restarts},
        [
            "witness pair found:",
            f"  x = {np.array2string(pair.x, precision=6)}",
            f"  y = {np.array2string(pair.y, precision=6)}",
            f"  residual = {pair.residual:.3e}",
        ],
    )
    return 0


def _cmd_witness(args) -> int:
    if args.diag:
        a, b, c = _parse_floats(args.diag, 3, "--diag")
        frames_io._check_tol(a, positive=True, name="a")
        frames_io._check_tol(b, positive=False, name="b")
        frames_io._check_tol(c, positive=True, name="c")
        # a diagonal target's eigenvalues are its entries exactly, so none is
        # zeroed: the pair realizes diag(a, b, -c) to round-off for every b >= 0
        pair = witness_general(np.diag([a, b, -c]), tol=0.0)
    else:
        pair = witness_general(frames_io.load_matrix(args.matrix))
    frames_io.save_witness(pair, args.output)
    _emit(
        args,
        {"written": str(args.output), "residual": pair.residual},
        [f"wrote witness pair to {args.output} (residual {pair.residual:.3e})"],
    )
    return 0


def _cmd_strict(args) -> int:
    frame = frames_io.load_frame(args.frame)
    report = strict_report(frame)
    y = report.witness_y
    doc = {
        "verdict": report.verdict,
        "witness_y": None if y is None else frames_io.complex_pairs(y),
        "im_gram_nullity": report.im_gram_nullity,
    }
    lines = [f"{report.verdict} (imaginary-gram nullity {report.im_gram_nullity})"]
    if y is not None:
        lines.append(f"witness y = {np.array2string(y, precision=6)}")
    _emit(args, doc, lines)
    return 0


def _parse_floats(text: str, count: int, flag: str) -> tuple:
    parts = text.split(",")
    if len(parts) != count:
        raise ValidationError(f"{flag} expects {count} comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpr",
        description="Conjugate phase retrieval: certificates, witnesses, reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random or cone frame")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cone", action="store_true", help="vectors on the cone x1^2+x2^2=x3^2")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("certify", help="decide conjugate retrievability of a real frame")
    p.add_argument("frame")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="also write the certificate JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("measure", help="simulate magnitude-squared measurements")
    p.add_argument("frame")
    p.add_argument("signal")
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("reconstruct", help="recover a signal class from measurements")
    p.add_argument("frame")
    p.add_argument("meas")
    p.add_argument("--method", choices=("linear", "altproj"), default="linear")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true", help="exit 3 when not converged")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("falsify", help="search for a measurement-equal distinct pair")
    p.add_argument("frame")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_falsify)

    p = sub.add_parser("witness", help="synthesize an explicit witness pair")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--diag", help="a,b,c for the target diag(a, b, -c); a, c > 0, b >= 0")
    group.add_argument("--matrix", help="JSON file with a symmetric target matrix")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("strict", help="conjugation-blindness analysis of a frame")
    p.add_argument("frame")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_strict)

    return parser


#: Options whose value may start with "-" in a form argparse does not take
#: for a negative number (-1,1,1 or -1e-3).
_SIGNED_VALUE_OPTIONS = ("--diag", "--noise-sigma")


def _join_signed_values(argv) -> list:
    """Rewrite "--diag VALUE" as "--diag=VALUE" (likewise --noise-sigma) when VALUE starts with "-".

    argparse reads a token such as -1,1,1 as an option, not as the option's
    value, so without this the value checks never see the bare form.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and re.match(r"-[\d.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except CprError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _NUMERICAL_ERRORS) else 2
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

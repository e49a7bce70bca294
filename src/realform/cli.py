"""Command-line interface.

Subcommands: classify, decide, coords, generate, verify.  JSON is the
only wire format; complex numbers are always [re, im] pairs.  Output is
deterministic: sorted keys, floats in their shortest round-trip repr.

Exit codes: 0 yes/ok, 1 no, 2 parse or spec error (including k
outside [2, 8]), 3 spectral precondition failure, 4 genericity failure,
5 numerical failure (singular input matrix, failed certificate, no
conjugation, degenerate frame, triple ratio or cross ratio), 6
inconclusive (a route's conditions and the direct solve disagree).  ``main``
maps every library error to its code in one place, and may be called
repeatedly in one process: the parser is built once.
"""

import argparse
import cmath
import functools
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .coords import CrossRatio, _triple_minors, cross_ratio_lists
from .decide import (FORCED_METHODS, decide, flag_base, flag_set, prepare, spectral_pass,
                     verify_certificate)
from .errors import (
    DegenerateFrame,
    DegenerateTriple,
    GenericityViolation,
    IncompatibleEigenvalues,
    IndeterminateCrossRatio,
    NoConjugation,
    NonDiagonalizable,
    NumericalDegeneracy,
    RealformError,
    RepeatedEigenvalues,
    SharedEigendirections,
    SpectralPreconditionError,
)
from .oracle import InstanceSpec, generate
from .projlin import MAX_DIM, MIN_DIM

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_SPECTRAL = 3
EXIT_GENERICITY = 4
EXIT_NUMERICAL = 5
EXIT_INCONCLUSIVE = 6

# library error -> exit code, first match wins; any other RealformError is EXIT_PARSE
_EXIT_CODES = (
    ((RepeatedEigenvalues, NonDiagonalizable, IncompatibleEigenvalues, SpectralPreconditionError),
     EXIT_SPECTRAL),
    ((GenericityViolation, SharedEigendirections), EXIT_GENERICITY),
    ((NumericalDegeneracy, NoConjugation, DegenerateFrame, DegenerateTriple,
      IndeterminateCrossRatio), EXIT_NUMERICAL),
)


class CliError(RealformError):
    """A command line or input document that cannot be read: exit 2."""


def _c2pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag] if cmath.isfinite(z) else None


def _matrix_out(m) -> list:
    return [[_c2pair(z) for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def _matrix_in(m, k, what) -> np.ndarray:
    """A k x k complex matrix from nested lists of [re, im] pairs."""
    if not isinstance(m, list) or len(m) != k or any(
            not isinstance(row, list) or len(row) != k for row in m):
        raise CliError(f"{what} is not a {k}x{k} matrix of [re, im] pairs")
    for row in m:
        for v in row:
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise CliError("complex numbers must be [re, im] pairs")
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
                raise CliError("complex number components must be numbers")
    try:
        pairs = np.array(m, dtype=float)
    except OverflowError:
        raise CliError("number outside the float range in input")
    if not np.isfinite(pairs).all():
        raise CliError("non-finite number in input")
    return pairs.view(complex)[..., 0]   # bit-exact complex(re, im), signed zeros included


def _read_json(path, what):
    """The JSON value in ``path``; an unreadable file is a parse error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read {what}: {exc}")


def _load_document(args):
    """(k, matrices, tolerances) of the input document; the tolerances are
    read last, so a document error is reported ahead of a tolerance error."""
    doc = _read_json(args.input, "input document")
    if not isinstance(doc, dict) or "k" not in doc or "matrices" not in doc:
        raise CliError("input document needs fields 'k' and 'matrices'")
    k = doc["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise CliError("'k' must be an integer")
    if not MIN_DIM <= k <= MAX_DIM:
        raise CliError(f"'k' must lie in [{MIN_DIM}, {MAX_DIM}]")
    if not isinstance(doc["matrices"], list) or not doc["matrices"]:
        raise CliError("'matrices' must be a non-empty list")
    mats = [_matrix_in(m, k, f"matrix {idx}") for idx, m in enumerate(doc["matrices"])]
    options = doc.get("options", {})
    if not isinstance(options, dict) or not isinstance(options.get("tolerances", {}), dict):
        raise CliError("'options' and its 'tolerances' must be objects")
    return k, mats, _tolerances(options, args)


_TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))


def _tolerances(options, args) -> Tolerances:
    flags = {name: getattr(args, name) for name in _TOLERANCE_NAMES
             if getattr(args, name, None) is not None}
    if not flags and not options.get("tolerances"):
        return DEFAULT_TOLERANCES
    cfg = DEFAULT_TOLERANCES
    try:
        # only a JSON number is converted (type(True) is bool): Tolerances
        # refuses a boolean, a string or null by name
        cfg = cfg.override(**{k: float(v) if type(v) in (int, float) else v
                              for k, v in options.get("tolerances", {}).items()})
    except (ValueError, TypeError, OverflowError) as exc:
        raise CliError(f"bad tolerance override in document: {exc}")
    try:
        return cfg.override(**flags)
    except ValueError as exc:
        raise CliError(f"bad tolerance flag: {exc}")


def _emit(doc, path=None) -> None:
    """Write ``doc`` as sorted, indented JSON to ``path``, or to stdout."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_tol_flags(p):
    for name in _TOLERANCE_NAMES:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float, default=None)


def cmd_classify(args) -> int:
    k, mats, cfg = _load_document(args)
    infos, exc = spectral_pass(mats, cfg)
    if exc is not None:
        raise exc
    _emit({"k": k, "classifications": [{"index": i.index, **asdict(i.sclass)} for i in infos]})
    return EXIT_YES


def cmd_decide(args) -> int:
    _, mats, cfg = _load_document(args)
    verdict, cert = decide(mats, cfg, method=args.method)
    _emit(_decision_doc(verdict, cert))
    return {"yes": EXIT_YES, "no": EXIT_NO}.get(verdict.answer, EXIT_INCONCLUSIVE)


def _decision_doc(verdict, cert):
    return {
        "verdict": verdict.answer,
        "method": verdict.method,
        "multiplicity": verdict.multiplicity.value if verdict.multiplicity else None,
        "residual": float(cert.residual) if cert.residual is not None else None,
        "gamma": _matrix_out(cert.gamma) if cert.gamma is not None else None,
        "conditions": [
            {
                "name": c.name,
                "value": _c2pair(c.value),
                "requirement": c.requirement,
                "pass": bool(c.passed),
            }
            for c in cert.conditions
        ],
        "diagnostics": list(cert.diagnostics),
    }


def cmd_coords(args) -> int:
    _, mats, cfg = _load_document(args)
    _emit(_coords_doc(prepare(mats, cfg), cfg))
    return EXIT_YES


def _coords_doc(infos, cfg):
    g, h, others = flag_base(infos, "coordinate dump")
    crs, triples = flag_set(g, h, [(i, i.rows) for i in others], cfg)
    # (generator, tag) of each line, in the order of the cross-ratio rows
    lines = [(h.index, "B")] + [(info.index, tag) for info in others
                                for tag in ("beta", "beta_prime")]
    # [[A, B, C, D]] = -1 / [A, B, C, D]
    cross_out = [
        {"generator": owner, "flag": tag, "i": i, "j": j,
         "value": _c2pair(cr.value), "fg_value": _c2pair(CrossRatio(-cr.den, cr.num).value)}
        for (owner, tag), row in zip(lines, cross_ratio_lists(crs))
        for cr in row
        for i, j in [cr.provenance]
    ]
    # the triple ratio rows: (A, B, C), (A, C, D), then (A, f, C) of each other line
    triple_out = [
        {"generator": owner, "flag": tag, "i": p, "j": q, "l": r, "value": _c2pair(value)}
        for (owner, tag), row in zip([(h.index, "B"), (h.index, "D")] + lines[1:], triples.tolist())
        for value, (p, q, r) in zip(row, _triple_minors(g.rows.shape[0])[0])
    ]
    return {"k": g.rows.shape[0], "cross_ratios": cross_out, "triple_ratios": triple_out}


def cmd_generate(args) -> int:
    mix = {kind: getattr(args, kind) for kind in ("hyperbolic", "elliptic", "mixed")
           if getattr(args, kind)} or {"hyperbolic": args.generators}
    perturbation = None
    if args.perturb is not None:
        try:
            gen_s, mag_s = args.perturb.split(":")
            perturbation = (int(gen_s), float(mag_s))
        except ValueError:
            raise CliError("--perturb takes GENERATOR:MAGNITUDE")
    spec = InstanceSpec(
        k=args.k,
        n_generators=args.generators,
        type_mix=mix,
        seed=args.seed,
        scramble="random_gamma" if not args.no_scramble else "none",
        perturbation=perturbation,
    )
    inst = generate(spec)
    doc = {
        "k": spec.k,
        "matrices": [_matrix_out(m) for m in inst.matrices],
        "options": {},
    }
    sidecar = {
        "answer": inst.answer,
        "gamma": _matrix_out(inst.gamma) if inst.gamma is not None else None,
        "seed": args.seed,
    }
    if args.output:
        _emit(doc, args.output)
        _emit(sidecar, args.output + ".truth")
    else:
        _emit({"instance": doc, "truth": sidecar})
    return EXIT_YES


def cmd_verify(args) -> int:
    k, mats, cfg = _load_document(args)
    gdoc = _read_json(args.gamma, "gamma file")
    gamma = _matrix_in(gdoc.get("gamma", gdoc) if isinstance(gdoc, dict) else gdoc, k, "gamma")
    residual = verify_certificate(mats, gamma, cfg)
    _emit({"residual": float(residual), "cert_tol": float(cfg.cert_tol),
           "pass": bool(residual < cfg.cert_tol)})
    return EXIT_YES if residual < cfg.cert_tol else EXIT_NO


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="realform",
                                     description="Simultaneous conjugacy into PGL(k,R)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="spectral classification of each matrix")
    p.add_argument("input")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decide", help="decide conjugacy; exit 0 yes, 1 no, 6 inconclusive")
    p.add_argument("input")
    p.add_argument("--method", choices=list(FORCED_METHODS), default="auto")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("coords", help="dump cross/triple ratio coordinates")
    p.add_argument("input")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("generate", help="generate an instance with known answer")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--hyperbolic", type=int, default=0)
    p.add_argument("--elliptic", type=int, default=0)
    p.add_argument("--mixed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-scramble", action="store_true")
    p.add_argument("--perturb", default=None, metavar="GENERATOR:MAGNITUDE")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a realifier against the collection")
    p.add_argument("input")
    p.add_argument("--gamma", required=True)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has written its usage or help
        return exc.code
    try:
        return args.func(args)
    except RealformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())

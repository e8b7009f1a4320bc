"""Command-line front end.

Subcommands: check-jacobi (verify a bracket), bracket (evaluate one
bracket), spectrum (classify Poisson ideals of a quasi-exact bracket),
lift (completion-exactness certificate), corpus (regression runner).

Exit codes are a stable contract, kept by main alone: 0 for an answer,
1 for a negative answer, 2 for a usage error. A command returns 0 or 1
for what it prints and raises otherwise. main answers 1 to the two
negative answers that arrive as exceptions, NotPoissonError and
PointSearchError, and 2, with one `error:` line, to any other ValueError.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .corpus import bundled_corpus_text, load_corpus, run_corpus
from .lifting import MAX_WEIGHT, PointSearchError, cm_certificate, verify_certificate
from .parser import ParseError, parse
from .poly import Poly, int_text
from .serialize import dumps, report_payload
from .spectrum import PencilParameter, spectrum_report
from .triples import NotPoissonError, PolyVec, jacobi_witness, verify_triple, bracket as bracket_op


def _parse_option(text: str, what: str) -> Poly:
    try:
        return parse(text)
    except ParseError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _triple(args) -> PolyVec:
    return PolyVec(
        _parse_option(args.f, "--f"),
        _parse_option(args.g, "--g"),
        _parse_option(args.h, "--h"),
    )


def _cmd_check_jacobi(args) -> int:
    witness = jacobi_witness(_triple(args))
    if witness.is_zero():
        print("Poisson: the Jacobi identity holds")
        return 0
    print(f"not Poisson: dot(F, curl F) = {witness}")
    return 1


def _cmd_bracket(args) -> int:
    vec = _triple(args)
    lhs = _parse_option(args.lhs, "--lhs")
    rhs = _parse_option(args.rhs, "--rhs")
    print(bracket_op(vec, lhs, rhs))
    return 0


def _parse_params(text: str) -> list[PencilParameter]:
    try:
        return [PencilParameter.parse(chunk) for chunk in map(str.strip, text.split(",")) if chunk]
    except ValueError as exc:
        raise ValueError(f"--params: {exc}") from None


_KIND_TEXT = {
    "common_zero": "common zero of s and t",
    "singular_point": "singular point of the member at ({parameter})",
    "not_poisson": "not Poisson",
}


def _cmd_spectrum(args) -> int:
    s = _parse_option(args.s, "--s")
    t = _parse_option(args.t, "--t")
    params = _parse_params(args.params)
    report = spectrum_report(s, t, params, args.max_deg)
    payload = report_payload(s, t, args.max_deg, report)
    if args.json:
        sys.stdout.write(dumps(payload))
        return 0
    stratum = payload["residually_null"]
    print(f"bracket: qm_exact({payload['s']}, {payload['t']})")
    print("zero ideal: Poisson prime")
    basis = ", ".join(stratum["basis"]) or "0"
    print(f"residually null: dimension {stratum['dimension']}; basis: {basis}")
    for pc in stratum["points"]:
        print(f"  point ({', '.join(pc['point'])}): {_KIND_TEXT[pc['kind']].format(**pc)}")
    for e in stratum["eliminants"]:
        print(f"  no rational root: {e}")
    for param, primes in payload["height_one"].items():
        print(f"height one at ({param}):")
        for r in primes:
            tags = ["primitive" if r["primitive"] else "not primitive", f"multiplicity {int_text(r['multiplicity'])}"]
            if r["absolutely_irreducible_certified"]:
                tags.append("absolutely irreducible")
            print(f"  ({r['generator']})  [{', '.join(tags)}]")
    print("flags:", " ".join(f"{k}={str(v).lower()}" for k, v in payload["flags"].items()))
    return 0


def _cmd_lift(args) -> int:
    if args.weight < 0:
        raise ValueError("--weight must be non-negative")
    if args.weight > MAX_WEIGHT:
        raise ValueError(f"--weight must be at most {MAX_WEIGHT}")
    if args.search_box < 0:
        raise ValueError("--search-box must be non-negative")
    T = verify_triple(_triple(args))
    cert = cm_certificate(T, args.weight, args.search_box)
    coords = ", ".join(str(c) for c in cert.point)
    print(f"cycles: {cert.cycles}")
    print(f"point: ({coords})")
    print(f"b (degree <= {cert.lift.b.cap}): {cert.lift.b}")
    print(f"d (degree <= {cert.lift.d.cap}): {cert.lift.d}")
    conv = " ".join(
        "d[{},{},{}]={}".format(*mono, value) for mono, value in cert.lift.conventions
    )
    print(f"conventions: {conv}")
    ok = verify_certificate(cert, T)
    print(f"congruence through degree {cert.lift.weight}: {'verified' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_corpus(args) -> int:
    if args.file is None:
        text = bundled_corpus_text()
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read corpus: {exc}") from None
    results = run_corpus(load_corpus(text))
    if args.json:
        payload = [
            {"name": r.name, "passed": r.passed, "diffs": list(r.diffs)} for r in results
        ]
        sys.stdout.write(dumps(payload))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
            for d in r.diffs:
                print(f"      {d}")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} passed")
    return 0 if all(r.passed for r in results) else 1


def _int_option(text: str) -> int:
    """int(text) of an optional sign and ASCII digits, without '_' or spaces."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls;
    parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="pba",
        description="Exact Poisson-bracket calculus and Poisson spectra on Q[x,y,z].",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_triple(p):
        p.add_argument("--f", required=True, help="bracket component {y,z}")
        p.add_argument("--g", required=True, help="bracket component {z,x}")
        p.add_argument("--h", required=True, help="bracket component {x,y}")

    p = sub.add_parser("check-jacobi", help="verify that a triple defines a Poisson bracket")
    add_triple(p)
    p.set_defaults(run=_cmd_check_jacobi)

    p = sub.add_parser("bracket", help="evaluate the bracket of two polynomials")
    add_triple(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(run=_cmd_bracket)

    p = sub.add_parser("spectrum", help="classify Poisson ideals of qm_exact(s, t)")
    p.add_argument("--s", required=True, help="pencil numerator")
    p.add_argument("--t", default="1", help="pencil denominator (default 1)")
    p.add_argument("--params", default="", help="comma-separated lambda:mu values")
    p.add_argument("--max-deg", type=_int_option, default=3, help="factor search bound (default 3)")
    p.add_argument("--json", action="store_true", help="emit the pba/1 JSON document")
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("lift", help="completion-exactness certificate for a Poisson triple")
    add_triple(p)
    p.add_argument("--weight", type=_int_option, required=True, help="truncation order")
    p.add_argument("--search-box", type=_int_option, default=4, help="base point search radius")
    p.set_defaults(run=_cmd_lift)

    p = sub.add_parser("corpus", help="run the regression corpus")
    p.add_argument("action", choices=["run"])
    p.add_argument("--file", default=None, help="corpus JSON path (default: bundled)")
    p.add_argument("--json", action="store_true", help="emit results as JSON")
    p.set_defaults(run=_cmd_corpus)

    return top


# Flags whose value is an expression or number that may start with '-'.
_VALUE_FLAGS = {
    "--f", "--g", "--h", "--lhs", "--rhs", "--s", "--t",
    "--params", "--max-deg", "--weight", "--search-box", "--file",
}


def _glue_values(argv: list[str]) -> list[str]:
    """Join each value flag with its argument so values like "-x" parse."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_glue_values(list(argv)))
    try:
        return args.run(args)
    except NotPoissonError as exc:
        print(f"not Poisson: dot(F, curl F) = {exc.witness}")
    except PointSearchError as exc:
        print(f"no certificate: {exc}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())

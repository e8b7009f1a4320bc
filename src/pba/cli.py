"""Command-line front end.

Subcommands: check-jacobi (verify a bracket), bracket (evaluate one
bracket), spectrum (classify Poisson ideals of a quasi-exact bracket),
lift (completion-exactness certificate), corpus (regression runner).

Exit codes are a stable contract: 0 for success or a true predicate,
1 for a semantically negative answer (non-Poisson input, corpus
mismatch), 2 for usage and parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .corpus import bundled_corpus_text, load_corpus, run_corpus
from .lifting import PointSearchError, cm_certificate, verify_certificate
from .parser import ParseError, parse
from .poly import Poly
from .serialize import dumps, report_payload
from .spectrum import PencilParameter, PointKind, spectrum_report
from .triples import NotPoissonError, PolyVec, jacobi_witness, verify_triple, bracket as bracket_op


def _parse_or_exit(text: str, what: str) -> Poly:
    try:
        return parse(text)
    except ParseError as exc:
        print(f"error: {what}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _triple(args) -> PolyVec:
    return PolyVec(
        _parse_or_exit(args.f, "--f"),
        _parse_or_exit(args.g, "--g"),
        _parse_or_exit(args.h, "--h"),
    )


def _cmd_check_jacobi(args) -> int:
    vec = _triple(args)
    witness = jacobi_witness(vec)
    if witness.is_zero():
        print("Poisson: the Jacobi identity holds")
        return 0
    print(f"not Poisson: dot(F, curl F) = {witness}")
    return 1


def _cmd_bracket(args) -> int:
    vec = _triple(args)
    lhs = _parse_or_exit(args.lhs, "--lhs")
    rhs = _parse_or_exit(args.rhs, "--rhs")
    print(bracket_op(vec, lhs, rhs))
    return 0


def _parse_params(text: str) -> list[PencilParameter]:
    params = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            params.append(PencilParameter.parse(chunk))
        except ValueError as exc:
            print(f"error: --params: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return params


def _kind_text(pc) -> str:
    if pc.kind is PointKind.COMMON_ZERO:
        return "common zero of s and t"
    if pc.kind is PointKind.SINGULAR_POINT:
        return f"singular point of the member at ({pc.parameter})"
    return "not Poisson"


def _cmd_spectrum(args) -> int:
    s = _parse_or_exit(args.s, "--s")
    t = _parse_or_exit(args.t, "--t")
    params = _parse_params(args.params)
    try:
        report = spectrum_report(s, t, params, args.max_deg)
    except ValueError as exc:  # NotCoprimeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(dumps(report_payload(s, t, args.max_deg, report)))
        return 0
    stratum = report.residually_null
    print(f"bracket: qm_exact({s}, {t})")
    print("zero ideal: Poisson prime")
    basis = ", ".join(str(b) for b in stratum.basis.basis) or "0"
    print(f"residually null: dimension {stratum.dimension}; basis: {basis}")
    for pc in stratum.points:
        coords = ", ".join(str(c) for c in pc.point)
        print(f"  point ({coords}): {_kind_text(pc)}")
    for e in stratum.eliminants:
        print(f"  no rational root: {e}")
    for param, primes in report.height_one.items():
        print(f"height one at ({param}):")
        for r in primes:
            tags = ["primitive" if r.primitive else "not primitive"]
            tags.append(f"multiplicity {r.multiplicity}")
            if r.absolutely_irreducible_certified:
                tags.append("absolutely irreducible")
            print(f"  ({r.generator})  [{', '.join(tags)}]")
    flags = report.flags
    print(
        f"flags: factorization_complete={str(flags.factorization_complete).lower()}"
        f" finitely_many_poisson_maximal={str(flags.finitely_many_poisson_maximal).lower()}"
    )
    return 0


def _cmd_lift(args) -> int:
    if args.weight < 0:
        print("error: --weight must be non-negative", file=sys.stderr)
        return 2
    if args.search_box < 0:
        print("error: --search-box must be non-negative", file=sys.stderr)
        return 2
    try:
        T = verify_triple(_triple(args))
    except NotPoissonError as exc:
        print(f"not Poisson: dot(F, curl F) = {exc.witness}")
        return 1
    try:
        cert = cm_certificate(T, args.weight, args.search_box)
    except PointSearchError as exc:
        print(f"no certificate: {exc}")
        return 1
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
        except OSError as exc:
            print(f"error: cannot read corpus: {exc}", file=sys.stderr)
            return 2
    try:
        entries = load_corpus(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = run_corpus(entries)
    if args.json:
        payload = [
            {"name": r.name, "passed": r.passed, "diffs": list(r.diffs)} for r in results
        ]
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
            for d in r.diffs:
                print(f"      {d}")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} passed")
    return 0 if all(r.passed for r in results) else 1


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
    p.add_argument("--max-deg", type=int, default=3, help="factor search bound (default 3)")
    p.add_argument("--json", action="store_true", help="emit the pba/1 JSON document")
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("lift", help="completion-exactness certificate for a Poisson triple")
    add_triple(p)
    p.add_argument("--weight", type=int, required=True, help="truncation order")
    p.add_argument("--search-box", type=int, default=4, help="base point search radius")
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
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface; the only module that performs I/O.

Exit codes: 0 = success / verdict computed, 1 = a mathematical check
failed (identities violated, obstruction found, missing idempotent),
2 = usage or parse error.  "-" as a filename reads standard input, so
commands compose: ``currentalg current r2.json m1_2.json | currentalg
rigidity -``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import scalars
from .algebra import (ASSOC_COMM, LIE, Algebra, AlgebraError, IdentityError, check_identities,
                      complexify)
from .catalog import (
    UnknownAlgebraError,
    catalog_entry,
    catalog_names,
    fingerprint,
    make,
)
from .cohomology import chevalley_dims, harrison_h2
from .current import current_algebra
from .io import (
    AlgebraFileError,
    parse_algebra_file,
    parse_cochain_file,
    write_algebra_file,
)
from .rigidity import (
    TruncatedDeformation,
    rigid_in_Lpq,
    rigidity_certificate,
    truncated_deformation_check,
)
from .scalars import ScalarError
from .structure import is_idempotent, pierce, some_nonzero_idempotent

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="currentalg", description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    parser.add_argument("--field", choices=list(scalars.FIELDS), default=None,
                        help="scalar field for catalog emit (Qi complexifies)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the defining identities")
    p.add_argument("file")

    p = sub.add_parser("analyze", help="compute the invariant fingerprint")
    p.add_argument("file")

    p = sub.add_parser("cohomology", help="Chevalley cohomology dimensions")
    p.add_argument("--degree", type=int, choices=(1, 2), required=True)
    p.add_argument("file")

    p = sub.add_parser("harrison", help="Harrison H^2 of a commutative algebra")
    p.add_argument("file")

    p = sub.add_parser("current", help="build g (x) A and emit its file")
    p.add_argument("gfile")
    p.add_argument("afile")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("pierce", help="Pierce split at an idempotent")
    p.add_argument("file")
    p.add_argument("--idempotent", required=True,
                   help="comma-separated coordinates, or 'auto'")

    p = sub.add_parser("rigidity", help="H^2 rigidity certificate")
    p.add_argument("file")

    p = sub.add_parser("rigid-pq", help="rigidity certificate in the product variety")
    p.add_argument("gfile")
    p.add_argument("afile")

    p = sub.add_parser("deform", help="truncated deformation check")
    p.add_argument("file")
    p.add_argument("--cochain", required=True)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("catalog", help="named algebra constructors")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    csub.add_parser("list")
    pe = csub.add_parser("emit")
    pe.add_argument("name")
    pe.add_argument("params", nargs="*", help="key=value integer parameters")
    pe.add_argument("-o", "--output", default="-")

    return parser


# Built once per process; parsing leaves the parser unchanged.
_PARSER = _build_parser()


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "(none)"
    if isinstance(value, (list, tuple)):
        if value and all(isinstance(v, (list, tuple)) for v in value):
            return "; ".join("(" + ", ".join(str(x) for x in v) + ")"
                             for v in value)
        return ", ".join(_render_value(v) for v in value) or "(none)"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_render_value(v)}" for k, v in value.items())
    return str(value)


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in report["data"].items():
        if (isinstance(value, dict) and value
                and all(isinstance(v, dict) for v in value.values())):
            lines.append(f"{key}:")
            width = max(len(str(n)) for n in value)
            for name, sub in value.items():
                lines.append(f"  {name:<{width}}  {_render_value(sub)}")
        else:
            lines.append(f"{key}: {_render_value(value)}")
    return "\n".join(lines) + "\n"


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(report))


def _vector_to_strings(field, vec) -> list:
    return [str(scalars.coerce(field, c)) for c in vec]


def _subspace_dict(field, sub) -> dict:
    return {"dim": sub.dim,
            "basis": [_vector_to_strings(field, v) for v in sub.basis]}


def _cmd_validate(args) -> tuple:
    alg = parse_algebra_file(args.file)
    report = check_identities(alg)
    identity = "Jacobi" if alg.kind == LIE else "associativity"
    data = {
        "name": alg.name, "kind": alg.kind, "dim": alg.dim,
        identity: "pass" if report.passed else "fail",
        "passed": report.passed,
        "violations": [list(v) for v in report.violations],
    }
    code = EXIT_OK if report.passed else EXIT_MATH_FAIL
    return code, {"command": "validate", "ok": report.passed, "data": data}


def _cmd_analyze(args) -> tuple:
    alg = parse_algebra_file(args.file)
    try:  # fingerprint checks the identities first; the report is built on failure
        fp = {k: v for k, v in asdict(fingerprint(alg)).items() if v is not None}
    except IdentityError:
        data = {"name": alg.name, "passed": False,
                "violations": [list(v) for v in check_identities(alg).violations]}
        return EXIT_MATH_FAIL, {"command": "analyze", "ok": False,
                                "data": {"fingerprint": data}}
    fp["name"] = alg.name
    return EXIT_OK, {"command": "analyze", "ok": True, "data": {"fingerprint": fp}}


def _load(args, kind: str) -> Algebra:
    """The algebra in ``args.file``, which the command needs to be of ``kind``."""
    alg = parse_algebra_file(args.file)
    if alg.kind != kind:
        article = "an" if kind == ASSOC_COMM else "a"
        raise UsageError(f"{args.command} requires {article} {kind} algebra file")
    return alg


def _cmd_cohomology(args) -> tuple:
    alg = _load(args, LIE)
    dims = chevalley_dims(alg, args.degree)
    data = {"name": alg.name, "degree": args.degree, **asdict(dims)}
    return EXIT_OK, {"command": "cohomology", "ok": True, "data": data}


def _cmd_harrison(args) -> tuple:
    alg = _load(args, ASSOC_COMM)
    dims = harrison_h2(alg)
    data = {"name": alg.name, **asdict(dims)}
    return EXIT_OK, {"command": "harrison", "ok": True, "data": data}


def _cmd_current(args) -> tuple:
    g = parse_algebra_file(args.gfile)
    A = parse_algebra_file(args.afile)
    flat = current_algebra(g, A)
    write_algebra_file(flat, args.output)
    return EXIT_OK, None


def _cmd_pierce(args) -> tuple:
    alg = _load(args, ASSOC_COMM)
    if args.idempotent in ([], "--"):  # what argparse makes of --idempotent=-- varies by version
        raise UsageError("argument --idempotent: expected one argument")
    if args.idempotent == "auto":
        e = some_nonzero_idempotent(alg)
        if e is None:
            data = {"name": alg.name, "error": "nilalgebra: no nonzero idempotent"}
            return EXIT_MATH_FAIL, {"command": "pierce", "ok": False,
                                    "data": data}
    else:
        try:
            coords = [scalars.parse_scalar_text(alg.field, part)
                      for part in args.idempotent.split(",")]
        except ScalarError as exc:
            raise UsageError(str(exc))
        if len(coords) != alg.dim:
            raise UsageError(
                f"idempotent needs {alg.dim} coordinates, got {len(coords)}")
        e = tuple(coords)
        if all(c == 0 for c in e) or not is_idempotent(alg, e):
            data = {"name": alg.name,
                    "error": "supplied vector is not a nonzero idempotent",
                    "vector": _vector_to_strings(alg.field, e)}
            return EXIT_MATH_FAIL, {"command": "pierce", "ok": False,
                                    "data": data}
    split = pierce(alg, e)
    data = {
        "name": alg.name,
        "idempotent": _vector_to_strings(alg.field, split.e),
        "a11": _subspace_dict(alg.field, split.a11),
        "a00": _subspace_dict(alg.field, split.a00),
    }
    return EXIT_OK, {"command": "pierce", "ok": True, "data": data}


def _cmd_rigidity(args) -> tuple:
    alg = _load(args, LIE)
    cert = rigidity_certificate(alg)
    data = {
        "name": alg.name,
        "H2": cert.h2_dims.dim_H,
        "verdict": cert.verdict,
        "h2": asdict(cert.h2_dims),
        "orbit_dim": cert.orbit_dim,
    }
    return EXIT_OK, {"command": "rigidity", "ok": True, "data": data}


def _cmd_rigid_pq(args) -> tuple:
    g = parse_algebra_file(args.gfile)
    A = parse_algebra_file(args.afile)
    if g.kind != LIE or A.kind != ASSOC_COMM:
        raise UsageError("rigid-pq takes a lie file then an assoc-comm file")
    cert = rigid_in_Lpq(g, A)
    data = {
        "g": g.name, "A": A.name,
        "verdict": cert.verdict,
        "h2_lie": asdict(cert.h2_lie),
        "h2_harrison": asdict(cert.h2_harrison),
    }
    return EXIT_OK, {"command": "rigid-pq", "ok": True, "data": data}


def _cmd_deform(args) -> tuple:
    alg = _load(args, LIE)
    cochain = parse_cochain_file(args.cochain)
    if cochain.dim != alg.dim:
        raise UsageError("cochain dimension does not match the algebra")
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    deformation = TruncatedDeformation(base=alg, cochains=(cochain,),
                                       order=args.order)
    result = truncated_deformation_check(deformation)
    ok = result.first_obstruction is None
    data = {
        "name": alg.name,
        "order": args.order,
        "ok_up_to": result.ok_up_to,
        "first_obstruction": (None if ok else
                              {"order": result.first_obstruction[0],
                               "triple": list(result.first_obstruction[1])}),
    }
    code = EXIT_OK if ok else EXIT_MATH_FAIL
    return code, {"command": "deform", "ok": ok, "data": data}


def _cmd_catalog(args) -> tuple:
    if args.catalog_command == "list":
        rows = {}
        for name in catalog_names():
            _, params, desc = catalog_entry(name)
            rows[name] = {"params": list(params), "description": desc}
        return EXIT_OK, {"command": "catalog-list", "ok": True,
                         "data": {"algebras": rows}}
    params = {}
    for item in args.params:
        if "=" not in item:
            raise UsageError(f"parameter {item!r} is not key=value")
        key, _, raw = item.partition("=")
        try:
            params[key] = int(raw)
        except ValueError:
            raise UsageError(f"parameter {key!r} must be an integer")
    alg = make(args.name, **params)
    if args.field == scalars.QI:
        alg = complexify(alg)
    write_algebra_file(alg, args.output)
    return EXIT_OK, None


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "cohomology": _cmd_cohomology,
    "harrison": _cmd_harrison,
    "current": _cmd_current,
    "pierce": _cmd_pierce,
    "rigidity": _cmd_rigidity,
    "rigid-pq": _cmd_rigid_pq,
    "deform": _cmd_deform,
    "catalog": _cmd_catalog,
}


def run_command(argv) -> int:
    # argparse takes a value such as -1/2,0 for an option: join each --idempotent,
    # or a prefix of it that argparse would accept, to the token after it
    argv, at = list(argv), 0
    while at < len(argv) - 1:
        if len(argv[at]) > 2 and "--idempotent".startswith(argv[at]):
            argv[at:at + 2] = [argv[at] + "=" + argv[at + 1]]
        at += 1
    try:
        args = _PARSER.parse_args(argv)
        code, report = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AlgebraFileError, ScalarError, UnknownAlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IdentityError as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if report is not None:
        _print_report(report, args.json)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

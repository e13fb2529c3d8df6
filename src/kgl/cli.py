"""Command line interface: it only parses, loads, calls and prints.

Every command but generate loads its input (an instance of four JSON
documents: semigroupoid, action, bundle, kernel; for lift, four matrices),
calls the pipeline of the same name in kgl.pipelines, and prints the
machine-readable report it returns on stdout or to --out. Exit code 0
means every record passed, 1 means some check failed (the record carries a
witness), and 2 means the input or usage was invalid.
"""

import argparse
import sys

from . import generators, pipelines
from .errors import KglError
from .formats import (
    _canonical_text,
    instance_to_doc,
    load,
    load_kernel_file,
    load_lift_file,
    save_instance,
)
from .numlin import DEFAULT_TOL, Tolerances
from .reports import TAGS, report_to_json, save_report


def _tolerances(args) -> Tolerances:
    return Tolerances(atol=DEFAULT_TOL.atol if args.atol is None else args.atol,
                      rank_rel=DEFAULT_TOL.rank_rel if args.rank_rel is None else args.rank_rel)


def _represent(args, tol):
    inst = load(args.instance)
    dominant = load_kernel_file(args.dominant, inst.bundle) if args.dominant else None
    return pipelines.represent(inst, args.krein, tol, dominant, args.reducibility)


def _generate(args, tol):
    doc = instance_to_doc(*generators.generate_instance(
        args.family, seed=args.seed, mode=args.mode, tol=tol))
    if args.out:
        save_instance(doc, args.out)
    else:
        sys.stdout.write(_canonical_text(doc) + "\n")


# command -> the report of its pipeline, or None for generate, which prints its own output
_COMMANDS = {
    "validate": lambda args, tol: pipelines.validate(load(args.instance, strict=False), tol),
    "classify": lambda args, tol: pipelines.classify(load(args.instance), tol),
    "check": lambda args, tol: pipelines.check(load(args.instance), args.what, tol),
    "linearize": lambda args, tol: pipelines.linearize(load(args.instance), args.krein, tol),
    "split": lambda args, tol: pipelines.split(load(args.instance), tol),
    "represent": _represent,
    "lift": lambda args, tol: pipelines.lift(*load_lift_file(args.problem), tol),
    "generate": _generate,
    "report": lambda args, tol: pipelines.report(load(args.instance, strict=False), tol),
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--atol", type=float, default=None,
                        help="residual tolerance (default 1e-9)")
    common.add_argument("--rank-rel", type=float, default=None,
                        help="relative eigenvalue cutoff for ranks, in (0, 1) (default 1e-10)")
    common.add_argument("--out", default=None, help="write the report or instance here")

    parser = argparse.ArgumentParser(
        prog="kgl",
        description="Operator-valued kernel laboratory: validation, linearisation, "
                    "representation and lifting checks over finite bundles.")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the fixed vocabulary of report tags and exit")

    sub = parser.add_subparsers(dest="command")

    def add_instance(sp):
        sp.add_argument("instance", nargs="+", help="instance file(s)")

    add_instance(sub.add_parser("validate", parents=[common],
                                help="check semigroupoid and action axioms"))
    add_instance(sub.add_parser("classify", parents=[common],
                                help="unit/transitive/inverse/groupoid flags"))

    sp = sub.add_parser("check", parents=[common], help="kernel property checks")
    sp.add_argument("what", choices=pipelines.CHECKS)
    add_instance(sp)

    sp = sub.add_parser("linearize", parents=[common],
                        help="minimal linearisation with certificates")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--hilbert", action="store_true")
    grp.add_argument("--krein", action="store_true")
    add_instance(sp)

    add_instance(sub.add_parser("split", parents=[common],
                                help="difference-of-PSD split with certificate"))

    sp = sub.add_parser("represent", parents=[common],
                        help="invariant representation with law checks")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--hilbert", action="store_true")
    grp.add_argument("--krein", action="store_true")
    sp.add_argument("--dominant", default=None,
                    help="kernel file with a dominating PSD kernel (needs --krein)")
    sp.add_argument("--reducibility", action="store_true",
                    help="also check commutation with the symmetry bundle (needs --krein)")
    add_instance(sp)

    sp = sub.add_parser("lift", parents=[common],
                        help="lift an operator pair to induced spaces")
    sp.add_argument("problem", help="JSON file with matrices a, b, t, s")

    sp = sub.add_parser("generate", parents=[common],
                        help="write a deterministic instance")
    sp.add_argument("--family", required=True,
                    choices=("pair_groupoid", "group_action", "partial_bijections",
                             "group_as_groupoid"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", default="psd_invariant",
                    choices=("psd_invariant", "hermitian_invariant", "arbitrary"))

    add_instance(sub.add_parser("report", parents=[common],
                                help="full pipeline report"))
    return parser


_PARSER = _build_parser()  # built once, at import


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.list_checks:
        for tag in sorted(TAGS):
            sys.stdout.write(f"{tag}: {TAGS[tag]}\n")
        return 0
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        return 2
    if args.command == "represent" and args.hilbert and (args.dominant or args.reducibility):
        _PARSER.error("represent: --dominant and --reducibility need --krein")
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        sys.stderr.write(f"kgl: error: {exc}\n")
        return 2
    try:
        report = _COMMANDS[args.command](args, tol)
    except (KglError, OSError) as exc:
        sys.stderr.write(f"kgl: error: {exc}\n")
        return 2
    if report is None:
        return 0
    if args.out:
        save_report(report, args.out)
    else:
        sys.stdout.write(report_to_json(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

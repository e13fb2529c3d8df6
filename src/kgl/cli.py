"""Command line interface.

Every command loads an instance (four JSON documents: semigroupoid,
action, bundle, kernel), runs its checks, and emits a machine-readable
report on stdout or to --out. Exit code 0 means every record passed, 1
means some check failed (the record carries a witness), and 2 means the
input or usage was invalid.
"""

import argparse
import os
import sys

from . import generators, hilbert_lin, krein_core, krein_lin, numlin
from .errors import KernelNotDominated, KglError, PairingViolated
from .formats import (
    _canonical_text,
    instance_to_doc,
    load,
    load_kernel_file,
    load_lift_file,
    matrix_to_doc,
    save_instance,
)
from .kernel import (
    bounded_shift_records,
    hermitian_records,
    invariance_record,
    is_invariant,
    psd_records,
)
from .numlin import DEFAULT_TOL, Tolerances
from .reports import TAGS, Record, Report, digest_of, report_to_json, save_report
from .sgpd import classify, validate, validate_action

_CHECKS = ("hermitian", "psd", "invariant", "bounded-shift")


def _tolerances(args) -> Tolerances:
    atol = DEFAULT_TOL.atol
    env = os.environ.get("KGL_ATOL")
    if env:
        atol = float(env)
    if getattr(args, "atol", None) is not None:
        atol = args.atol
    rank_rel = DEFAULT_TOL.rank_rel
    if getattr(args, "rank_rel", None) is not None:
        rank_rel = args.rank_rel
    return Tolerances(atol=atol, rank_rel=rank_rel)


def _violations_witness(vr):
    if vr.ok:
        return None
    return [[v.axiom, list(v.witness), v.detail] for v in vr.entries[:5]]


def _validation_records(inst):
    vr = validate(inst.sg)
    va = validate_action(inst.action)
    return [
        Record("semigroupoid axioms hold", "axioms/semigroupoid",
               float(len(vr.entries)), 0.5, vr.ok, witness=_violations_witness(vr)),
        Record("action axioms hold", "axioms/action",
               float(len(va.entries)), 0.5, va.ok, witness=_violations_witness(va)),
    ]


def cmd_validate(args, tol):
    inst = load(args.instance, strict=False)
    return Report("validate", inst.digest, _tol_dict(tol), _validation_records(inst))


def cmd_classify(args, tol):
    inst = load(args.instance)
    cls = classify(inst.sg)
    witness = {
        "has_unit": cls.has_unit,
        "is_transitive": cls.is_transitive,
        "is_inverse": cls.is_inverse,
        "is_groupoid": cls.is_groupoid,
        "star_matches_inverse": cls.star_matches_inverse,
        "units": cls.units,
    }
    rec = Record("classification established by exhaustive search",
                 "axioms/classification", 0.0, 0.5, True, witness=witness)
    return Report("classify", inst.digest, _tol_dict(tol), [rec])


def _guarded(check, families=(krein_lin.KREIN,)):
    """The records of check(), or failing records when a guard of the
    construction rejects the instance: one for a kernel the dominant does
    not dominate, or, for a shift that does not descend to the quotient,
    one per family whose representation it breaks. Such an instance is
    analysed, so its report exits with 1, not 2."""
    try:
        return check()
    except KernelNotDominated as exc:
        return [Record("dominant kernel dominates the instance kernel", "krein/gram",
                       1.0, 0.5, False, witness=str(exc))]
    except PairingViolated as exc:
        return [Record(*family["well-defined"], 1.0, 0.5, False, witness=str(exc))
                for family in families]


def cmd_check(args, tol):
    inst = load(args.instance)
    k, p = inst.kernel, inst.partition
    if args.what == "hermitian":
        records = hermitian_records(k, p, tol)
    elif args.what == "invariant":
        records = [invariance_record(k, inst.action, tol)]
    elif args.what == "psd":
        records = psd_records(k, p, tol)
    else:
        records = bounded_shift_records(k, inst.action, tol)
    return Report(f"check {args.what}", inst.digest, _tol_dict(tol), records)


def cmd_linearize(args, tol):
    inst = load(args.instance)
    k, p = inst.kernel, inst.partition
    if args.krein:
        records, family = hermitian_records(k, p, tol), krein_lin.KREIN
    else:
        records, family = psd_records(k, p, tol), hilbert_lin.HILBERT
    if all(r.passed for r in records):
        view_records = krein_lin.rk_krein_space(krein_lin.krein_linearisation(k, p, tol), tol)[1]
        records.extend(krein_lin.rekey(view_records, krein_lin.KREIN, family))
    route = "krein" if args.krein else "hilbert"
    return Report(f"linearize --{route}", inst.digest, _tol_dict(tol), records)


def cmd_split(args, tol):
    inst = load(args.instance)
    k, p = inst.kernel, inst.partition
    records = hermitian_records(k, p, tol)
    if all(r.passed for r in records):
        k_plus, k_minus, split = krein_lin.split_records(k, p, tol)
        records.extend(split)
        for label, plus, minus in zip(p.parts, psd_records(k_plus, p, tol),
                                      psd_records(k_minus, p, tol)):
            both_psd = plus.passed and minus.passed
            records.append(Record("both split parts are PSD", "krein/split",
                                  0.0 if both_psd else 1.0, 0.5, both_psd, witness=label))
    return Report("split", inst.digest, _tol_dict(tol), records)


def cmd_represent(args, tol):
    inst = load(args.instance)
    k, p, act = inst.kernel, inst.partition, inst.action
    if args.hilbert:
        records = psd_records(k, p, tol)
        records.append(invariance_record(k, act, tol))
        if all(r.passed for r in records):
            lin, cls = krein_lin.krein_linearisation(k, p, tol), classify(inst.sg)

            def laws():
                rep = hilbert_lin.represent(lin, act, tol)
                return rep.records + hilbert_lin.partial_isometry_report(rep, cls, tol)
            records.extend(_guarded(laws, (hilbert_lin.HILBERT,)))
        return Report("represent --hilbert", inst.digest, _tol_dict(tol), records)

    records = hermitian_records(k, p, tol)
    records.append(invariance_record(k, act, tol))
    dominant = None
    if args.dominant:
        dominant = load_kernel_file(args.dominant, inst.bundle)

    def laws():
        via = "dominant" if dominant is not None else "direct"
        lin = krein_lin.krein_linearisation(k, p, tol, via=via, dominant=dominant)
        rep = krein_lin.represent(lin, act, tol)
        if not args.reducibility:
            return rep.records
        return rep.records + krein_lin.fundamental_reducibility_check(rep, tol)

    if all(r.passed for r in records):
        records.extend(_guarded(laws))
    return Report("represent --krein", inst.digest, _tol_dict(tol), records)


def cmd_lift(args, tol):
    a, b, t, s = load_lift_file(args.problem)
    digest_src = _canonical_text({k: matrix_to_doc(m) for k, m in zip("abts", (a, b, t, s))})
    return Report("lift", digest_of(digest_src), _tol_dict(tol),
                  krein_core.lift_operator(a, b, t, s, tol).records)


def cmd_generate(args, tol):
    sg, act, bundle, kernel = generators.generate_instance(
        args.family, seed=args.seed, mode=args.mode, tol=tol)
    doc = instance_to_doc(sg, act, bundle, kernel)
    if args.out:
        save_instance(doc, args.out)
    else:
        sys.stdout.write(_canonical_text(doc) + "\n")
    return None


def cmd_report(args, tol):
    inst = load(args.instance, strict=False)
    records = _validation_records(inst)
    if not all(r.passed for r in records):
        return Report("report", inst.digest, _tol_dict(tol), records)
    cls = classify(inst.sg)
    k, p, act = inst.kernel, inst.partition, inst.action

    herm_records = hermitian_records(k, p, tol)
    records.extend(herm_records)
    hermitian = all(r.passed for r in herm_records)
    lin = krein_lin.krein_linearisation(k, p, tol) if hermitian else None
    psd = hermitian and hilbert_lin.is_definite(lin)
    invariant = hermitian and is_invariant(k, act, tol)[0]
    profile = {
        "is_groupoid": cls.is_groupoid,
        "is_inverse": cls.is_inverse,
        "partially_psd": psd,
        "invariant": invariant,
    }
    records.append(Record("classification established by exhaustive search",
                          "axioms/classification", 0.0, 0.5, True, witness=profile))
    if not hermitian:
        return Report("report", inst.digest, _tol_dict(tol), records)

    records.extend(krein_lin.split_records(k, p, tol)[2])
    view_records = krein_lin.rk_krein_space(lin, tol)[1]
    records.extend(view_records)
    dominant = krein_lin.canonical_dominant(k, p, tol)
    records.extend(_guarded(lambda: krein_lin.uniqueness_report(k, dominant, p, tol)))

    # a partially PSD kernel's Hilbert records are its Krein records, rekeyed
    if psd:
        records.extend(krein_lin.rekey(view_records, krein_lin.KREIN, hilbert_lin.HILBERT))
    if invariant:
        def laws():
            rep = krein_lin.represent(lin, act, tol)
            if not psd:
                return rep.records
            hrep = hilbert_lin.definite_representation(rep, tol)
            return rep.records + hrep.records + hilbert_lin.partial_isometry_report(hrep, cls, tol)
        families = (krein_lin.KREIN, hilbert_lin.HILBERT) if psd else (krein_lin.KREIN,)
        records.extend(_guarded(laws, families))
    return Report("report", inst.digest, _tol_dict(tol), records)


def _tol_dict(tol: Tolerances) -> dict:
    return {"atol": tol.atol, "rank_rel": tol.rank_rel}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--atol", type=float, default=None,
                        help="residual tolerance (default 1e-9; KGL_ATOL also read)")
    common.add_argument("--rank-rel", type=float, default=None,
                        help="relative eigenvalue cutoff for ranks (default 1e-10)")
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
    sp.add_argument("what", choices=_CHECKS)
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
                    help="kernel file with a dominating PSD kernel (Krein route)")
    sp.add_argument("--reducibility", action="store_true",
                    help="also check commutation with the symmetry bundle")
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


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "check": cmd_check,
    "linearize": cmd_linearize,
    "split": cmd_split,
    "represent": cmd_represent,
    "lift": cmd_lift,
    "generate": cmd_generate,
    "report": cmd_report,
}


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
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        sys.stderr.write(f"kgl: error: {exc}\n")
        return 2
    try:
        with numlin.decomposition_store():
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

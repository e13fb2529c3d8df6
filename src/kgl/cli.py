"""Command line interface.

Every command loads an instance (four JSON documents: semigroupoid,
action, bundle, kernel), runs its checks, and emits a machine-readable
report on stdout or to --out. Exit code 0 means every record passed, 1
means some check failed (the record carries a witness), and 2 means the
input or usage was invalid.
"""

import argparse
import json
import os
import sys

from . import generators, hilbert_lin, krein_core, krein_lin, numlin
from .errors import KernelNotDominated, KglError, PairingViolated, QuotientIncompatible
from .formats import (
    instance_to_doc,
    load,
    load_kernel_file,
    load_lift_file,
    matrix_to_doc,
    save_instance,
)
from .kernel import (
    bounded_shift_constants,
    conv_blocks,
    invariance_bounds,
    is_invariant,
    is_partially_hermitian,
    is_partially_psd,
)
from .numlin import DEFAULT_TOL, Tolerances, frob, opnorm
from .reports import TAGS, Record, Report, report_to_json, save_report
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


def _hermitian_records(conv, tol):
    records = []
    for label, g in conv.gram.items():
        resid = frob(g - g.conj().T)
        bound = tol.atol * max(1.0, frob(g))
        records.append(Record("kernel is Hermitian on the part", "kernel/hermitian",
                              resid, bound, resid <= bound, witness=label))
    return records


def _psd_records(conv, tol):
    records = []
    for label, g in conv.gram.items():
        herm_resid = frob(g - g.conj().T)
        if herm_resid > tol.atol * max(1.0, frob(g)):
            records.append(Record("kernel is PSD on the part", "kernel/psd",
                                  herm_resid, tol.atol * max(1.0, frob(g)), False,
                                  witness={"part": label, "reason": "not Hermitian"}))
            continue
        s = numlin.spectrum(g, tol)
        records.append(Record("kernel is PSD on the part", "kernel/psd",
                              s.psd_violation, -s.floor, s.is_psd, witness=label))
    return records


def _invariance_record(inst, tol):
    ok, wit = is_invariant(inst.kernel, inst.action, tol)
    conv = conv_blocks(inst.kernel, inst.partition)
    if ok:
        bound = tol.atol * max([1.0] + [frob(g) for g in conv.gram.values()])
        return Record("kernel is invariant under the action", "kernel/invariant",
                      0.0, bound, True)
    alpha, x, y = wit
    ax = inst.action.apply(alpha, x)
    ay = inst.action.apply(inst.sg.star[alpha], y)
    resid = frob(inst.kernel.block(ax, y) - inst.kernel.block(x, ay))
    return Record("kernel is invariant under the action", "kernel/invariant",
                  resid, invariance_bounds(conv, inst.sg, tol)[alpha], False,
                  witness={"element": alpha, "x": x, "y": y})


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


def cmd_check(args, tol):
    inst = load(args.instance)
    conv = conv_blocks(inst.kernel, inst.partition)
    records = []
    if args.what == "hermitian":
        records = _hermitian_records(conv, tol)
    elif args.what == "psd":
        records = _psd_records(conv, tol)
    elif args.what == "invariant":
        records = [_invariance_record(inst, tol)]
    elif args.what == "bounded-shift":
        records = _psd_records(conv, tol)
        if all(r.passed for r in records):
            constants = bounded_shift_constants(inst.kernel, inst.action, tol)
            for alpha, m in constants.items():
                records.append(Record("shifted form is boundedly dominated",
                                      "kernel/bounded-shift",
                                      0.0 if m is not None else 1.0, 0.5,
                                      m is not None,
                                      witness={"element": alpha, "constant": m}))
    return Report(f"check {args.what}", inst.digest, _tol_dict(tol), records)


def cmd_linearize(args, tol):
    inst = load(args.instance)
    k, p = inst.kernel, inst.partition
    conv = conv_blocks(k, p)
    if args.krein:
        records = _hermitian_records(conv, tol)
        if all(r.passed for r in records):
            lin = krein_lin.krein_linearisation(k, p, tol)
            _, rk_records = krein_lin.rk_krein_space(k, p, lin, tol)
            records.extend(rk_records)
        return Report("linearize --krein", inst.digest, _tol_dict(tol), records)
    records = _psd_records(conv, tol)
    if all(r.passed for r in records):
        lin = hilbert_lin.minimal_linearisation(k, p, tol)
        records.extend(hilbert_lin.verify_factorization(lin, k, tol))
        view = hilbert_lin.rkhs(k, p, lin)
        records.extend(hilbert_lin.verify_reproducing(view, tol))
    return Report("linearize --hilbert", inst.digest, _tol_dict(tol), records)


def cmd_split(args, tol):
    inst = load(args.instance)
    k, p = inst.kernel, inst.partition
    conv = conv_blocks(k, p)
    records = _hermitian_records(conv, tol)
    if all(r.passed for r in records):
        k_plus, k_minus, cert = krein_lin.jordan_split(k, p, tol)
        conv_p = conv_blocks(k_plus, p)
        conv_m = conv_blocks(k_minus, p)
        for label, g in conv.gram.items():
            resid = frob(g - (conv_p.gram[label] - conv_m.gram[label]))
            bound = tol.atol * max(1.0, frob(g))
            records.append(Record("split reconstructs the kernel", "krein/split",
                                  resid, bound, resid <= bound, witness=label))
            both_psd = numlin.psd_check(conv_p.gram[label], tol) and numlin.psd_check(
                conv_m.gram[label], tol)
            records.append(Record("both split parts are PSD", "krein/split",
                                  0.0 if both_psd else 1.0, 0.5, both_psd, witness=label))
            c = cert[label]
            records.append(Record("split parts have disjoint ranges", "krein/split",
                                  float(abs(c["rank_plus"] + c["rank_minus"] - c["rank_sum"])),
                                  0.5, c["disjoint"], witness={"part": label, **c}))
    return Report("split", inst.digest, _tol_dict(tol), records)


def cmd_represent(args, tol):
    inst = load(args.instance)
    k, p, act = inst.kernel, inst.partition, inst.action
    conv = conv_blocks(k, p)
    if args.hilbert:
        records = _psd_records(conv, tol)
        records.append(_invariance_record(inst, tol))
        if all(r.passed for r in records):
            cls = classify(inst.sg)
            try:
                rep = hilbert_lin.invariant_representation(k, act, p, tol)
            except QuotientIncompatible as exc:
                records.append(Record("represented shifts are well defined",
                                      "hilbert/representation", 1.0, 0.5, False,
                                      witness=str(exc)))
            else:
                records.extend(hilbert_lin.representation_laws(rep, tol))
                records.extend(hilbert_lin.partial_isometry_report(rep, cls, tol))
        return Report("represent --hilbert", inst.digest, _tol_dict(tol), records)

    records = _hermitian_records(conv, tol)
    records.append(_invariance_record(inst, tol))
    dominant = None
    if args.dominant:
        dominant = load_kernel_file(args.dominant, inst.bundle)
    if all(r.passed for r in records):
        try:
            _, rep = krein_lin.invariant_krein_representation(k, act, p, tol,
                                                              dominant=dominant)
        except KernelNotDominated as exc:
            records.append(Record("dominant kernel dominates the instance kernel",
                                  "krein/gram", 1.0, 0.5, False, witness=str(exc)))
        except PairingViolated as exc:
            records.append(Record("represented shifts are well defined",
                                  "krein/representation", 1.0, 0.5, False,
                                  witness=str(exc)))
        else:
            records.extend(rep.records)
            if args.reducibility:
                records.extend(krein_lin.fundamental_reducibility_check(
                    rep, dominant, act, tol))
    return Report("represent --krein", inst.digest, _tol_dict(tol), records)


def cmd_lift(args, tol):
    a, b, t, s = load_lift_file(args.problem)
    digest_src = json.dumps({k: matrix_to_doc(m) for k, m in zip("abts", (a, b, t, s))},
                            sort_keys=True, separators=(",", ":"))
    records = []
    scale = max(1.0, opnorm(b) * opnorm(t), opnorm(s) * opnorm(a))
    compat = frob(b @ t - s.conj().T @ a)
    records.append(Record("compatibility identity holds", "krein/lift",
                          compat, tol.atol * scale, compat <= tol.atol * scale))
    if records[0].passed:
        lifted = krein_core.lift_operator(a, b, t, s, tol)
        fact = frob(lifted.t_lift @ lifted.source.pi - lifted.target.pi @ t)
        bound = tol.atol * max(1.0, opnorm(lifted.target.pi) * opnorm(t))
        records.append(Record("lift factors through the canonical maps", "krein/lift",
                              fact, bound, fact <= bound))
        pair = frob(krein_core.krein_adjoint(lifted.t_lift, lifted.source.space,
                                             lifted.target.space) - lifted.s_lift)
        pbound = tol.atol * max(1.0, opnorm(lifted.t_lift))
        records.append(Record("lifted pair are indefinite adjoints", "krein/lift",
                              pair, pbound, pair <= pbound))
    from .reports import digest_of
    return Report("lift", digest_of(digest_src), _tol_dict(tol), records)


def cmd_generate(args, tol):
    sg, act, bundle, kernel = generators.generate_instance(
        args.family, seed=args.seed, mode=args.mode, tol=tol)
    doc = instance_to_doc(sg, act, bundle, kernel)
    if args.out:
        save_instance(doc, args.out)
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return None


def cmd_report(args, tol):
    inst = load(args.instance, strict=False)
    records = _validation_records(inst)
    if not all(r.passed for r in records):
        return Report("report", inst.digest, _tol_dict(tol), records)
    cls = classify(inst.sg)
    k, p, act = inst.kernel, inst.partition, inst.action
    conv = conv_blocks(k, p)

    herm_records = _hermitian_records(conv, tol)
    records.extend(herm_records)
    hermitian = all(r.passed for r in herm_records)
    psd = hermitian and is_partially_psd(k, p, tol)
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

    k_plus, k_minus, cert = krein_lin.jordan_split(k, p, tol)
    conv_p, conv_m = conv_blocks(k_plus, p), conv_blocks(k_minus, p)
    for label, g in conv.gram.items():
        resid = frob(g - (conv_p.gram[label] - conv_m.gram[label]))
        bound = tol.atol * max(1.0, frob(g))
        c = cert[label]
        records.append(Record("split reconstructs the kernel", "krein/split",
                              resid, bound, resid <= bound, witness=label))
        records.append(Record("split parts have disjoint ranges", "krein/split",
                              float(abs(c["rank_plus"] + c["rank_minus"] - c["rank_sum"])),
                              0.5, c["disjoint"], witness={"part": label, **c}))

    lin = krein_lin.krein_linearisation(k, p, tol)
    _, rk_records = krein_lin.rk_krein_space(k, p, lin, tol)
    records.extend(rk_records)

    dominant = krein_lin.canonical_dominant(k, p, tol)
    records.extend(krein_lin.uniqueness_report(k, dominant, p, tol))

    if psd:
        hlin = hilbert_lin.minimal_linearisation(k, p, tol)
        records.extend(hilbert_lin.verify_factorization(hlin, k, tol))
        records.extend(hilbert_lin.verify_reproducing(hilbert_lin.rkhs(k, p, hlin), tol))
    if invariant:
        _, rep = krein_lin.invariant_krein_representation(k, act, p, tol)
        records.extend(rep.records)
    if invariant and psd:
        hrep = hilbert_lin.invariant_representation(k, act, p, tol, lin=hlin)
        records.extend(hilbert_lin.representation_laws(hrep, tol))
        records.extend(hilbert_lin.partial_isometry_report(hrep, cls, tol))
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_checks:
        for tag in sorted(TAGS):
            sys.stdout.write(f"{tag}: {TAGS[tag]}\n")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
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

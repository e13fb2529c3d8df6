"""Each `kgl` command as one library call.

Every function takes a loaded instance (lift: its four matrices) and
Tolerances, and returns the Report whose JSON the command of its name
prints: report_to_json(report(load(path, strict=False))) is the stdout of
`kgl report path`. No call leaves state behind in the package: each
kernel holds its own part Grams and part spectra (kernel.part_spectra), so
what a call decomposes lives as long as the kernels it was given or built.
"""

import dataclasses

from . import formats, hilbert_lin, kernel, krein_core, krein_lin, sgpd
from .errors import KernelNotDominated, PairingViolated
from .numlin import DEFAULT_TOL
from .reports import Record, Report, digest_of

__all__ = ["CHECKS", "validate", "classify", "check", "linearize", "split", "represent",
           "lift", "report"]

# check name -> the records of `kgl check <name>`
CHECKS = {
    "hermitian": lambda inst, tol: kernel.hermitian_records(inst.kernel, inst.partition, tol),
    "psd": lambda inst, tol: kernel.psd_records(inst.kernel, inst.partition, tol),
    "invariant": lambda inst, tol: [kernel.invariance_record(inst.kernel, inst.action, tol)],
    "bounded-shift": lambda inst, tol: kernel.bounded_shift_records(inst.kernel, inst.action, tol),
}


def _report(command, digest, tol, records) -> Report:
    return Report(command, digest, dataclasses.asdict(tol), records)


def _route(krein: bool):
    """The premise records function, record family and name of a route."""
    if krein:
        return kernel.hermitian_records, krein_lin.KREIN, "krein"
    return kernel.psd_records, hilbert_lin.HILBERT, "hilbert"


def _validation_records(inst) -> list:
    """One record per table, with the first five violations as its witness."""
    checks = (("semigroupoid axioms hold", "axioms/semigroupoid", sgpd.validate(inst.sg)),
              ("action axioms hold", "axioms/action", sgpd.validate_action(inst.action)))
    return [Record(name, tag, float(len(vr.entries)), 0.5, vr.ok,
                   witness=[[v.axiom, list(v.witness), v.detail] for v in vr.entries[:5]] or None)
            for name, tag, vr in checks]


def _classification_record(witness) -> Record:
    return Record("classification established by exhaustive search", "axioms/classification",
                  0.0, 0.5, True, witness=witness)


def _guarded(check, families) -> list:
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


def _hilbert_laws(rep, cls, tol) -> list:
    """The hilbert/* laws of rep, a representation on the linearisation of a
    partially PSD kernel, with its bounded-shift and partial-isometry records."""
    hrep = hilbert_lin.definite_representation(rep, tol)
    return hrep.records + hilbert_lin.partial_isometry_report(hrep, cls, tol)


def validate(inst, tol=DEFAULT_TOL) -> Report:
    """`kgl validate`: the semigroupoid and action axioms."""
    return _report("validate", inst.digest, tol, _validation_records(inst))


def classify(inst, tol=DEFAULT_TOL) -> Report:
    """`kgl classify`: the unit, transitivity, inverse and groupoid flags."""
    witness = dataclasses.asdict(sgpd.classify(inst.sg))
    del witness["inverse_map"]
    return _report("classify", inst.digest, tol, [_classification_record(witness)])


def check(inst, what: str, tol=DEFAULT_TOL) -> Report:
    """`kgl check <what>`, what one of CHECKS."""
    return _report(f"check {what}", inst.digest, tol, CHECKS[what](inst, tol))


def linearize(inst, krein: bool, tol=DEFAULT_TOL) -> Report:
    """`kgl linearize --krein|--hilbert`: the premise, then the linearisation."""
    premise, family, route = _route(krein)
    k, p = inst.kernel, inst.partition
    records = premise(k, p, tol)
    if all(r.passed for r in records):
        view_records = krein_lin.rk_krein_space(krein_lin.krein_linearisation(k, p, tol), tol)[1]
        records += krein_lin.rekey(view_records, krein_lin.KREIN, family)
    return _report(f"linearize --{route}", inst.digest, tol, records)


def split(inst, tol=DEFAULT_TOL) -> Report:
    """`kgl split`: the Jordan split, and per part that both sides are PSD.

    Both are read from the part spectra (w, U), with no side formed: the
    sides U diag(max(+-w, 0)) U* have the eigenvalues max(+-w, 0), none
    below zero, so each side is PSD."""
    k, p = inst.kernel, inst.partition
    records = kernel.hermitian_records(k, p, tol)
    if all(r.passed for r in records):
        records += krein_lin.split_records(k, p, tol)
        records += [Record("both split parts are PSD", "krein/split", 0.0, 0.5, True,
                           witness=label) for label in p.parts]
    return _report("split", inst.digest, tol, records)


def represent(inst, krein: bool, tol=DEFAULT_TOL, dominant=None,
              reducibility: bool = False) -> Report:
    """`kgl represent --krein|--hilbert`: the premise and invariance, then the
    representation laws. A dominant and reducibility need the Krein route."""
    if not krein and (dominant is not None or reducibility):
        raise ValueError("a dominant and the reducibility check need the Krein route")
    premise, family, route = _route(krein)
    k, p, act = inst.kernel, inst.partition, inst.action
    records = premise(k, p, tol) + [kernel.invariance_record(k, act, tol)]

    def laws():
        rep = krein_lin.represent(krein_lin.krein_linearisation(k, p, tol, dominant), act, tol)
        if not krein:
            return _hilbert_laws(rep, sgpd.classify(inst.sg), tol)
        if reducibility:
            return rep.records + krein_lin.fundamental_reducibility_check(rep, tol)
        return rep.records

    if all(r.passed for r in records):
        records += _guarded(laws, (family,))
    return _report(f"represent --{route}", inst.digest, tol, records)


def lift(a, b, t, s, tol=DEFAULT_TOL) -> Report:
    """`kgl lift`: the krein/lift records, under the digest of the matrices."""
    docs = {name: formats.matrix_to_doc(m) for name, m in zip("abts", (a, b, t, s))}
    digest = digest_of(formats._canonical_text(docs))
    return _report("lift", digest, tol, krein_core.lift_operator(a, b, t, s, tol).records)


def report(inst, tol=DEFAULT_TOL) -> Report:
    """`kgl report`: validation, then the profile of valid tables and every
    record it admits: split, linearisations, uniqueness, representations."""
    records = _validation_records(inst)
    if not all(r.passed for r in records):
        return _report("report", inst.digest, tol, records)
    cls = sgpd.classify(inst.sg)
    k, p, act = inst.kernel, inst.partition, inst.action

    herm_records = kernel.hermitian_records(k, p, tol)
    records += herm_records
    hermitian = all(r.passed for r in herm_records)
    lin = krein_lin.krein_linearisation(k, p, tol) if hermitian else None
    psd = hermitian and hilbert_lin.is_definite(lin)
    invariant = hermitian and kernel.is_invariant(k, act, tol)[0]
    profile = dict(is_groupoid=cls.is_groupoid, is_inverse=cls.is_inverse, partially_psd=psd,
                   invariant=invariant)
    records.append(_classification_record(profile))
    if not hermitian:
        return _report("report", inst.digest, tol, records)

    records += krein_lin.split_records(k, p, tol)
    view_records = krein_lin.rk_krein_space(lin, tol)[1]
    records += view_records
    # against the canonical dominant |G| the Gram operator is sign(w) on the
    # range: each side of a part's signature has gap exactly 1
    for label, space in lin.spaces.items():
        r_plus, r_minus = space.signature
        records.append(krein_lin._uniqueness_record(label, 1.0 if r_minus else None,
                                                    1.0 if r_plus else None))

    # a partially PSD kernel's Hilbert records are its Krein records, rekeyed
    if psd:
        records += krein_lin.rekey(view_records, krein_lin.KREIN, hilbert_lin.HILBERT)
    if invariant:
        def laws():
            rep = krein_lin.represent(lin, act, tol)
            return rep.records + (_hilbert_laws(rep, cls, tol) if psd else [])
        families = (krein_lin.KREIN, hilbert_lin.HILBERT) if psd else (krein_lin.KREIN,)
        records += _guarded(laws, families)
    return _report("report", inst.digest, tol, records)

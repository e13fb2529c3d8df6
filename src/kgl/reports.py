"""Check records and machine-readable certification reports.

Every numerical certification in the package is reported as a record with
a name, a tag from a fixed vocabulary, the measured residual, the
tolerance it was compared against, a pass flag and an optional witness.
A report bundles the records of one command run over one instance. Its
serialization is deterministic: equal reports give equal bytes. The numbers
in a report are byte-identical across runs only on the same platform, numpy
and BLAS build and BLAS thread count, since the thread count changes the
last digits of residuals and tolerances.
"""

import hashlib
import json
from dataclasses import dataclass, field

__all__ = ["Record", "Report", "TAGS", "digest_of", "save_report", "report_to_json"]

# Fixed tag vocabulary: tag -> the certified property, in one line.
TAGS = {
    "axioms/semigroupoid": "composition, involution and unit axioms of a finite star-semigroupoid hold exhaustively",
    "axioms/action": "left-action axioms (anchor surjectivity, fiber compatibility, associativity) hold exhaustively",
    "axioms/classification": "unit/transitive/inverse/groupoid flags established by exhaustive search",
    "kernel/hermitian": "the kernel is Hermitian on every partition part",
    "kernel/psd": "the kernel is positive semidefinite on every partition part",
    "kernel/invariant": "the kernel satisfies the action-invariance identity on all applicable triples",
    "kernel/bounded-shift": "every shifted form is bounded by a finite multiple of the original form",
    "hilbert/factorization": "the minimal Hilbert factorization reconstructs every within-part kernel block",
    "hilbert/minimality": "feature-map columns span the whole linearisation space (rank equals Gram rank)",
    "hilbert/rkhs": "kernel columns are members and the reproducing identity holds in the Hilbert case",
    "hilbert/uniqueness": "two minimal Hilbert linearisations are unitarily equivalent via the canonical unitary",
    "hilbert/representation": "the induced representation is multiplicative, star-compatible and intertwines the feature maps",
    "hilbert/bounded-shift-consistency": "the bounded-shift constant equals the squared norm of the represented shift",
    "hilbert/partial-isometry": "represented shifts of an inverse semigroupoid are partial isometries",
    "krein/lift": "operator pairs in adjoint duality lift to the induced spaces with commuting factorizations",
    "krein/gap-uniqueness": "the spectrum has a gap at zero, so the induced space is unique up to J-unitary equivalence",
    "krein/gram": "the Gram operator is a Hermitian contraction reproducing the indefinite form against the dominant",
    "krein/split": "the kernel splits into a difference of PSD kernels with disjoint ranges (rank certificate)",
    "krein/factorization": "the indefinite minimal factorization reconstructs every within-part kernel block",
    "krein/rk-space": "kernel columns are members and the indefinite reproducing identity holds",
    "krein/representation": "the indefinite representation is multiplicative, sharp-compatible and intertwines the feature maps",
    "krein/reducibility": "the represented shifts commute with the bundle of fundamental symmetries",
}


@dataclass
class Record:
    name: str
    tag: str
    residual: float
    tolerance: float
    passed: bool
    witness: object = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown report tag {self.tag!r}")
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)


@dataclass
class Report:
    command: str
    digest: str
    tolerances: dict
    records: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)


def _jsonable_witness(w):
    if w is None:
        return None
    if isinstance(w, (list, tuple)):
        return [_jsonable_witness(v) for v in w]
    if isinstance(w, dict):
        return {str(k): _jsonable_witness(v) for k, v in w.items()}
    if isinstance(w, (str, int, float, bool)):
        return w
    return repr(w)


def report_to_json(report: Report) -> str:
    doc = {
        "command": report.command,
        "instance_digest": report.digest,
        "tolerances": {k: float(v) for k, v in sorted(report.tolerances.items())},
        "pass": report.ok,
        "records": [
            {
                "name": r.name,
                "tag": r.tag,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "witness": _jsonable_witness(r.witness),
            }
            for r in report.records
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_report(report: Report, path):
    """Write the report; identical reports produce identical bytes."""
    text = report_to_json(report)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

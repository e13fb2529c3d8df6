"""Fingerprint kgl's command outputs, to show that a change leaves them byte-identical.

Writes the seeded `tables` and `spectral` corpora of perfbench (its
`corpus.py`, imported unchanged) and runs twelve commands on every instance,
in-process and with one BLAS thread:

    report, validate, classify, check hermitian|psd|invariant|bounded-shift,
    linearize --hilbert|--krein, split, represent --hilbert|--krein

plus `generate` for every family and mode, `split --rank-rel 1e-17` on
each generated instance (a cutoff below rounding, where the split's
verdicts are at their most fragile), `represent --krein --dominant`,
with and without `--reducibility`, on generated invariant dominant pairs, and
`lift` on generated quadruples, as generated and with S moved by 1e-3, each
scaled by c in {1e-6, 1, 1e6}, and `report`, `represent --krein` and
`represent --hilbert` on three instances whose shifts fail to descend to
the quotient (`guard_instance` in `tests/helpers.py`), so that the guard
records are compared too, and `report` on 30 malformed instances, the
first seeds of the fuzz in `tests/test_fuzz.py` (`malformed_text` in
`tests/helpers.py`), so that the loader's errors (exit code and stderr)
are compared as well. It also runs the six demos of the checkout
that holds `--src` (its `demos/`), each as a script with that `src` on the
path. The output JSON maps each run to the SHA-256 of its (exit code, stdout, stderr)
and to the short hashes and the numbers of its parts (see `parts`; a demo's
parts are its exit code, stderr and each blank-line-separated section of its
stdout, see `demo_parts`), each corpus to its
digest (of the file bytes), and each corpus instance to its
`instance_digest` (of the content), so that a change of the file layout
reads as files differing with equal content. Temporary directories read as
`<scratch>` in command outputs and `<tmp>` in demo outputs. Run from the root
of a checkout:

    python3 tools/compare_outputs.py --src OLD/src --out old.json
    python3 tools/compare_outputs.py --src src --out new.json
    python3 tools/compare_outputs.py --diff old.json new.json

`--diff` prints the keys whose fingerprints differ or that only one side has,
each output key with the parts that differ (a record field reads as its tag
and field, such as `kernel/psd tolerance`), then a count per section and per
differing part, and exits 1 if there are any. For each differing part it
also prints the largest relative difference |x - y| / max(|x|, |y|) between
the numbers of the two sides, which each fingerprint keeps per part (0 means
only something other than a number differs), over the outputs whose part
has as many numbers on both sides, and how many outputs it is not
comparable in.
"""

import os

# Pin BLAS to one thread before anything can import numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH, TESTS = os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")

COMMANDS = (
    ("report",),
    ("validate",),
    ("classify",),
    ("check", "hermitian"),
    ("check", "psd"),
    ("check", "invariant"),
    ("check", "bounded-shift"),
    ("linearize", "--hilbert"),
    ("linearize", "--krein"),
    ("split",),
    ("represent", "--hilbert"),
    ("represent", "--krein"),
)
FAMILIES = ("pair_groupoid", "group_action", "partial_bijections", "group_as_groupoid")
MODES = ("psd_invariant", "hermitian_invariant", "arbitrary")
SEEDS = (1, 2)
SECTIONS = ("corpus", "content", "outputs", "demos")  # file bytes, instance digests, outputs
DOMINANT_SEEDS = range(6)
LIFT_SEEDS = range(3)
LIFT_SCALES = (1e-6, 1.0, 1e6)
GUARD_EPS = (3e-10, 5e-10, 1e-9)
GUARD_COMMANDS = (("report",), ("represent", "--krein"), ("represent", "--hilbert"))
MALFORMED_SEEDS = range(30)
FRAGILE_SPLIT = ("split", "--rank-rel", "1e-17")


def _short(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _values(code, out, err) -> dict:
    """The parts of one output, keyed by part name (see `parts`)."""
    found = {"exit": code, "stderr": err}
    try:
        doc = json.loads(out)
        records = doc.pop("records")
    except (ValueError, KeyError, TypeError, AttributeError):
        found["stdout"] = out
        return found
    found.update({f"report {key}": value for key, value in doc.items()})
    found["tags"] = [r["tag"] for r in records]
    for r in records:
        for key, value in r.items():
            if key != "tag":
                found.setdefault(f"{r['tag']} {key}", []).append(value)
    return found


def parts(code, out, err) -> dict:
    """Short hashes of the parts of one output, keyed by part name.

    The parts are the exit code, stderr and, when stdout is a report, each
    top-level report field (`report <field>`), the sequence of record tags
    (`tags`) and, per tag and record field, that field's values over the
    tag's records in report order (`<tag> <field>`). Any other stdout is
    one part.
    """
    return {name: _short(value) for name, value in _values(code, out, err).items()}


def numbers(value) -> list:
    """The numbers in a JSON value, in document order; booleans are not numbers."""
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for item in value for n in numbers(item)]
    return []


def part_numbers(code, out, err) -> dict:
    """The numbers of each part of one output that holds any, keyed by part name."""
    found = {name: numbers(value) for name, value in _values(code, out, err).items()
             if name != "stdout"}
    return {name: ns for name, ns in found.items() if ns}


def run(argv, scratch):
    """Fingerprint of one in-process `kgl` run, with the scratch path masked
    out: the SHA-256 of its (exit code, stdout, stderr), its parts and their numbers."""
    from kgl import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # an uncaught error is an output too: exit 1 and its traceback tail
            code = 1
            err.write(traceback.format_exc().strip().splitlines()[-1] + "\n")
    out, err = (s.getvalue().replace(scratch, "<scratch>") for s in (out, err))
    text = json.dumps([code, out, err])
    return {"sha": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "parts": parts(code, out, err), "numbers": part_numbers(code, out, err)}


def corpus_outputs(scratch, result):
    import corpus
    from kgl import formats
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            where = os.path.join(scratch, f"{workload}-{seed}")
            manifest, _ = corpus.write_corpus(corpus.plan_corpus(workload, seed), where)
            result["corpus"][f"{workload}/{seed}"] = corpus.corpus_digest(where)
            for i, entry in enumerate(manifest["instances"]):
                name = f"{workload}/{seed}/{i:03d}"
                result["content"][name] = formats.load(entry["file"], strict=False).digest
                for command in COMMANDS:
                    key = f"{name} {' '.join(command)}"
                    result["outputs"][key] = run(command + (entry["file"],), scratch)


def generated_outputs(scratch, result):
    from kgl import formats, generators
    from kgl.errors import UnsupportedFamily
    for family in FAMILIES:
        for seed in SEEDS:
            for mode in MODES:
                argv = ("generate", "--family", family, "--seed", str(seed), "--mode", mode)
                result["outputs"][" ".join(argv)] = run(argv, scratch)
                path = os.path.join(scratch, f"generated-{family}-{seed}-{mode}.json")
                formats.save_instance(formats.instance_to_doc(
                    *generators.generate_instance(family, seed=seed, mode=mode)), path)
                key = f"generated {family}/{seed}/{mode} {' '.join(FRAGILE_SPLIT)}"
                result["outputs"][key] = run(FRAGILE_SPLIT + (path,), scratch)
        for seed in DOMINANT_SEEDS:
            sg, act, bundle, _ = generators.generate_instance(
                family, seed=seed, mode="hermitian_invariant")
            try:
                k, l = generators.invariant_dominant_pair(act, bundle, seed)
            except UnsupportedFamily:
                continue
            inst = os.path.join(scratch, f"pair-{family}-{seed}.json")
            dom = os.path.join(scratch, f"dominant-{family}-{seed}.json")
            formats.save_instance(formats.instance_to_doc(sg, act, bundle, k), inst)
            formats.save_instance({"kernel": formats.kernel_to_doc(l)}, dom)
            for extra in ((), ("--reducibility",)):
                argv = ("represent", "--krein", "--dominant", dom) + extra + (inst,)
                key = f"dominant {family}/{seed} {' '.join(argv[:3] + extra)}"
                result["outputs"][key] = run(argv, scratch)


def lift_outputs(scratch, result):
    from kgl import formats, generators
    for seed in LIFT_SEEDS:
        a, b, t, s = generators.random_lift_quadruple(4, 3, seed)
        for moved in (False, True):
            for c in LIFT_SCALES:
                quad = (c * a, c * b, c * t, c * (s + 1e-3 if moved else s))
                path = os.path.join(scratch, f"lift-{seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({k: formats.matrix_to_doc(m) for k, m in zip("abts", quad)}, fh)
                key = f"lift {seed}{' moved' if moved else ''} c={c:g}"
                result["outputs"][key] = run(("lift", path), scratch)


def guard_outputs(scratch, result):
    from helpers import guard_instance
    from kgl import formats
    for eps in GUARD_EPS:
        path = os.path.join(scratch, f"guard-{eps:g}.json")
        formats.save_instance(formats.instance_to_doc(*guard_instance(eps)), path)
        for command in GUARD_COMMANDS:
            result["outputs"][f"guard eps={eps:g} {' '.join(command)}"] = run(
                command + (path,), scratch)


def malformed_outputs(scratch, result):
    from helpers import MUTATIONS, malformed_text
    path = os.path.join(scratch, "malformed.json")
    for seed in MALFORMED_SEEDS:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(malformed_text(seed))
        kind = MUTATIONS[seed % len(MUTATIONS)]
        result["outputs"][f"malformed {seed} {kind} report"] = run(("report", path), scratch)


def demo_parts(code, out, err) -> dict:
    """Short hashes of the parts of one demo run: its exit code, its stderr
    and each blank-line-separated section of its stdout (`stdout 1`, ...)."""
    sections = [s for s in re.split(r"\n\s*\n", out) if s.strip()]
    found = {"exit": code, "stderr": err}
    found.update({f"stdout {i}": text for i, text in enumerate(sections, 1)})
    return {name: _short(value) for name, value in found.items()}


def run_demo(script, src, scratch):
    """Fingerprint of one demo script run with src on the path, in a fresh
    working directory under scratch. Every temporary directory the demo makes
    (under a TMPDIR of its own) reads as `<tmp>`: the SHA-256 of its
    (exit code, stdout, stderr) and its parts (see `demo_parts`)."""
    name = os.path.splitext(os.path.basename(script))[0]
    cwd, tmp = os.path.join(scratch, f"demo-{name}"), os.path.join(scratch, f"demo-{name}-tmp")
    os.makedirs(cwd)
    os.makedirs(tmp)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), TMPDIR=tmp)
    proc = subprocess.run([sys.executable, os.path.abspath(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    masked = re.compile(re.escape(tmp) + r"[/\\][^/\\\s'\"]+")
    out, err = (masked.sub("<tmp>", s).replace(scratch, "<scratch>")
                for s in (proc.stdout, proc.stderr))
    text = json.dumps([proc.returncode, out, err])
    return {"sha": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "parts": demo_parts(proc.returncode, out, err)}


def demo_outputs(src, scratch, result):
    demos = os.path.join(src, os.pardir, "demos")
    for script in sorted(f for f in os.listdir(demos) if f.endswith(".py")):
        result["demos"][script] = run_demo(os.path.join(demos, script), src, scratch)


def fingerprint(src, out):
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    sys.path.insert(0, os.path.abspath(TESTS))
    result = {"seeds": list(SEEDS), "corpus": {}, "content": {}, "outputs": {}, "demos": {}}
    with tempfile.TemporaryDirectory(prefix="kgl-compare-") as scratch:
        corpus_outputs(scratch, result)
        generated_outputs(scratch, result)
        lift_outputs(scratch, result)
        guard_outputs(scratch, result)
        malformed_outputs(scratch, result)
        demo_outputs(src, scratch, result)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(result['outputs'])} outputs, {len(result['corpus'])} corpus digests, "
          f"{len(result['content'])} content digests, {len(result['demos'])} demos -> {out}")


def _differing_parts(va, vb) -> list:
    """Names of the parts of two output fingerprints that differ or that one lacks."""
    pa, pb = va["parts"], vb["parts"]
    return sorted(name for name in set(pa) | set(pb) if pa.get(name) != pb.get(name))


def relative_difference(xs, ys):
    """Largest |x - y| / max(|x|, |y|) over two equally long lists of numbers
    (0 where both are 0); None when the lists differ in length."""
    if len(xs) != len(ys):
        return None
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(xs, ys) if x != y),
               default=0.0)


def diff(path_a, path_b) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    counts, by_part, largest, uncomparable = [], collections.Counter(), {}, collections.Counter()
    for section in SECTIONS:
        sa, sb = a.get(section, {}), b.get(section, {})
        keys = sorted(set(sa) | set(sb))
        differ = 0
        for key in keys:
            va, vb = sa.get(key), sb.get(key)
            if va == vb:
                continue
            differ += 1
            if not (va and vb):
                print(f"{section}: {key} (only in {path_a if va else path_b})")
            elif section in ("outputs", "demos"):
                names = _differing_parts(va, vb)
                by_part.update(names)
                print(f"{section}: {key}: {', '.join(names)}")
                for name in names:
                    rel = None
                    if "numbers" in va and "numbers" in vb:
                        rel = relative_difference(va["numbers"].get(name, []),
                                                  vb["numbers"].get(name, []))
                    if rel is None:
                        uncomparable[name] += 1
                    else:
                        largest[name] = max(largest.get(name, 0.0), rel)
            else:
                print(f"{section}: {key}")
        counts.append((section, differ, len(keys)))
    for section, differ, total in counts:
        print(f"{section}: {differ} of {total} differ")
    for name, n in sorted(by_part.items()):
        print(f"part {name}: differs in {n} outputs")
        odd = uncomparable[name]
        figure = "not comparable" if name not in largest else f"{largest[name]:.3g}" + (
            f" over {n - odd} outputs; {odd} not comparable" if odd else "")
        print(f"part {name}: largest relative difference {figure}"
              + (" (numbers differ in count or are not recorded)" if odd else ""))
    return 1 if any(differ for _, differ, _ in counts) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="directory holding the kgl package")
    parser.add_argument("--out", help="where to write the fingerprints")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two fingerprint files instead")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not (args.src and args.out):
        parser.error("--src and --out are required unless --diff is given")
    fingerprint(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

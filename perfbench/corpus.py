"""Seeded instance corpora for the `kgl report` benchmark, with their verdicts.

Every workload is a fixed list of shapes (family, size, fiber dimension,
kernel mode, defect). The seed changes only the random draws inside each
shape, so two seeds give corpora of the same size mix. The verdict each
instance must get (exit code, failing tags, profile flags) follows from how
it was built, never from a run of kgl; where a property rests on a random
draw (a Hermitian kernel being indefinite, an arbitrary kernel being
non-invariant), the draw is checked here with plain numpy against a margin
far from kgl's thresholds and redrawn when it falls inside that margin.

Run as a script, it writes the corpus of a plan (see `plan_corpus`) and
prints its set-up time: the kgl import plus kgl's generation and writing of
the accepted draws.

    python3 perfbench/corpus.py --plan PLAN.json --out DIR --src src
"""

import argparse
import hashlib
import itertools
import json
import os
import sys
import time

WORKLOADS = ("tables", "spectral")
DEFECTS = ("drop-compose", "drop-act", "non-hermitian", "non-invariant")
MODES = ("psd_invariant", "hermitian_invariant")

# Every valid `tables` shape appears once with each fiber dimension 1-3 in
# both invariant modes. The sizes are a subset of the workload's ranges (pair
# groupoids on 4-8 symbols, cyclic groups of order 16-32, partial bijections
# (3,), (2,2), (2,2,1)): pair groupoids on 7-8 symbols, cyclic orders above
# 16 and (3,) are left out, so that one pass over the corpus takes about
# 13 s and a 50 s run makes three to four full passes, 200 reports or more.
TABLE_SHAPES = (
    ("pair_groupoid", 4), ("pair_groupoid", 5), ("pair_groupoid", 6),
    ("group_as_groupoid", 16), ("partial_bijections", (2, 2)),
    ("partial_bijections", (2, 2, 1)),
)
TABLE_FIBERS = (1, 2, 3)
# The defective `tables` instances span the whole of those ranges: their
# reports stop early, or skip the representations.
DEFECT_SHAPES = (
    ("pair_groupoid", 4), ("pair_groupoid", 5), ("pair_groupoid", 6), ("pair_groupoid", 7),
    ("pair_groupoid", 8), ("group_as_groupoid", 16), ("group_as_groupoid", 24),
    ("group_as_groupoid", 32), ("partial_bijections", (2, 2)),
    ("partial_bijections", (2, 2, 1)), ("partial_bijections", (3,)),
)

# (cyclic group order, points, fiber): one part of dimension points * fiber.
SPECTRAL_SHAPES = ((2, 8, 16), (4, 8, 16), (2, 6, 22), (2, 8, 17), (4, 8, 17), (2, 6, 23))
SPECTRAL_MODES = ("psd_invariant", "hermitian_invariant", "arbitrary")

# Margins, relative to max(1, max |eigenvalue|) or max(1, ||G||_F) as kgl
# scales its own thresholds (atol 1e-9, rank_rel 1e-10 by default).
PSD_FLOOR = 1e-12       # a PSD draw has no eigenvalue below -PSD_FLOOR * scale
INDEFINITE_CEIL = 1e-6  # an indefinite draw has one below -INDEFINITE_CEIL * scale
BREAK_SIZE = 1e-5       # size of an injected defect, far above atol
VARIANT_CEIL = 1e-6     # a non-invariant draw breaks some triple by this much
FULL_RANK_FLOOR = 1e-6  # a full-rank draw has no eigenvalue below this * scale


class CorpusError(RuntimeError):
    """A shape could not be drawn with its verdict fixed."""


def specs(workload: str) -> list:
    """The seed-independent shape list of a workload."""
    if workload == "tables":
        valid = [
            {"family": fam, "size": size, "fiber": fiber, "mode": mode}
            for (fam, size), fiber, mode in itertools.product(TABLE_SHAPES, TABLE_FIBERS, MODES)
        ]
        # two defects per shape, rotating so every defect meets every kind of shape
        defective = [
            {"family": fam, "size": size, "fiber": 1 + i % 3, "mode": MODES[(i // 2) % 2],
             "defect": DEFECTS[(i + i // 2) % 4]}
            for i, (fam, size) in enumerate(s for s in DEFECT_SHAPES for _ in range(2))
        ]
        return valid + defective
    if workload == "spectral":
        # PSD draws are held to full rank: the rank sets how much linear
        # algebra a report does, and a random rank would swamp the timings
        return [
            {"family": "group_action", "order": n, "points": m, "fiber": f, "mode": mode,
             "full_rank": mode == "psd_invariant"}
            for (n, m, f), mode in itertools.product(SPECTRAL_SHAPES, SPECTRAL_MODES)
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def spec_name(spec: dict) -> str:
    if spec["family"] == "group_action":
        shape = f"Z{spec['order']}x{spec['points']}"
    else:
        size = spec["size"]
        shape = "-".join(map(str, size)) if isinstance(size, tuple) else str(size)
    parts = [spec["family"], shape, f"f{spec['fiber']}", spec["mode"]]
    if "defect" in spec:
        parts.append(spec["defect"])
    return "/".join(parts)


def _draw_seeds(workload: str, seed: int, index: int):
    """Deterministic candidate instance seeds for one corpus slot."""
    for attempt in itertools.count():
        key = f"{workload}/{seed}/{index}/{attempt}".encode()
        yield int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


# ------------------------------------------------------------------
# plain-numpy views of an instance document (independent of kgl)


def _matrix(entry):
    import numpy as np
    return np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)


def _part_grams(doc) -> list:
    """Within-part Gram matrices of the kernel document, one per anchor symbol."""
    import numpy as np
    anchor = doc["action"]["anchor"]
    dims = doc["bundle"]["dims"]
    blocks = {(e["row"], e["col"]): _matrix(e) for e in doc["kernel"]["entries"]}
    grams = []
    for s in sorted(set(anchor.values())):
        pts = sorted(x for x in anchor if anchor[x] == s)
        offs = dict(zip(pts, itertools.accumulate([0] + [dims[x] for x in pts])))
        n = sum(dims[x] for x in pts)
        g = np.zeros((n, n), dtype=complex)
        for x in pts:
            for y in pts:
                if (x, y) in blocks:
                    g[offs[x]:offs[x] + dims[x], offs[y]:offs[y] + dims[y]] = blocks[(x, y)]
        grams.append(g)
    return grams


def _scale(g) -> float:
    import numpy as np
    return max(1.0, float(np.linalg.norm(g)))


def _lowest_eigenvalue(doc) -> float:
    """Smallest eigenvalue over the parts, relative to max(1, max |eigenvalue|)."""
    import numpy as np
    lowest = float("inf")
    for g in _part_grams(doc):
        w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        if w.size:
            lowest = min(lowest, float(w[0]) / max(1.0, float(np.max(np.abs(w)))))
    return lowest


def _psd_class(lowest: float):
    """True if every part is PSD, False if some part is clearly indefinite,
    None when a draw sits between the two margins."""
    if lowest >= -PSD_FLOOR:
        return True
    if lowest <= -INDEFINITE_CEIL:
        return False
    return None


def _act_table(doc) -> dict:
    return {(g, x): y for g, x, y in doc["action"]["act"]}


def _clearly_variant(doc) -> bool:
    """Some triple (alpha, x, y) breaks K(alpha.x, y) = K(x, alpha*.y) by a margin."""
    import numpy as np
    act = _act_table(doc)
    star = dict(doc["semigroupoid"]["star"])
    dims = doc["bundle"]["dims"]
    blocks = {(e["row"], e["col"]): _matrix(e) for e in doc["kernel"]["entries"]}
    bound = VARIANT_CEIL * max(_scale(g) for g in _part_grams(doc))

    def block(x, y):
        return blocks.get((x, y), np.zeros((dims[x], dims[y])))

    for (alpha, x), ax in act.items():
        for (beta, y), by in act.items():
            if beta == star[alpha] and np.linalg.norm(block(ax, y) - block(x, by)) > bound:
                return True
    return False


# ------------------------------------------------------------------
# defects, applied to the instance document


def _entry(doc, x, y, fiber):
    """The kernel entry at (x, y), inserted as a zero block when absent."""
    for e in doc["kernel"]["entries"]:
        if e["row"] == x and e["col"] == y:
            return e
    e = {"row": x, "col": y, "re": [[0.0] * fiber for _ in range(fiber)],
         "im": [[0.0] * fiber for _ in range(fiber)]}
    doc["kernel"]["entries"].append(e)
    return e


def _inject(doc, defect, rng, fiber) -> None:
    import numpy as np
    sg = doc["semigroupoid"]
    if defect == "drop-compose":
        del sg["compose"][int(rng.integers(len(sg["compose"])))]
        return
    if defect == "drop-act":
        del doc["action"]["act"][int(rng.integers(len(doc["action"]["act"])))]
        return
    size = BREAK_SIZE * max(_scale(g) for g in _part_grams(doc))
    if defect == "non-hermitian":
        # one off-diagonal block inside a part, its mirror left alone
        anchor = doc["action"]["anchor"]
        pairs = [(x, y) for x in sorted(anchor) for y in sorted(anchor)
                 if x != y and anchor[x] == anchor[y]]
        x, y = pairs[int(rng.integers(len(pairs)))]
        z = rng.standard_normal((fiber, fiber)) + 1j * rng.standard_normal((fiber, fiber))
        z *= size / np.linalg.norm(z)
        e = _entry(doc, x, y, fiber)
        e["re"] = (np.asarray(e["re"]) + z.real).tolist()
        e["im"] = (np.asarray(e["im"]) + z.imag).tolist()
        return
    if defect == "non-invariant":
        # raise K(x, x) by a multiple of the identity where some alpha moves x
        # and alpha* brings it back: K(alpha.x, alpha.x) and K(x, alpha*.alpha.x)
        # then differ by exactly that multiple
        act = _act_table(doc)
        star = dict(sg["star"])
        moves = sorted((g, x) for (g, x), y in act.items()
                       if y != x and act.get((star[g], y)) == x)
        _, x = moves[int(rng.integers(len(moves)))]
        e = _entry(doc, x, x, fiber)
        e["re"] = (np.asarray(e["re"]) + size * np.eye(fiber)).tolist()
        return
    raise ValueError(f"unknown defect {defect!r}")


# ------------------------------------------------------------------
# instance builders


def _structure_params(spec):
    from kgl import sgpd
    fam, size = spec["family"], spec.get("size")
    if fam == "pair_groupoid":
        return {"symbols": tuple(f"s{i}" for i in range(size))}
    if fam == "group_as_groupoid":
        return {"table": sgpd.cyclic_group_table(size)}
    if fam == "partial_bijections":
        return {"fiber_sizes": size}
    if fam == "group_action":
        n, m = spec["order"], spec["points"]
        step = m // n
        base = tuple(f"x{k}" for k in range(m))
        amap = {(f"g{i}", f"x{k}"): f"x{(k + i * step) % m}"
                for i in range(n) for k in range(m)}
        return {"table": sgpd.cyclic_group_table(n), "base": base, "action_map": amap}
    raise ValueError(f"unknown family {fam!r}")


def generate_doc(spec, inst_seed):
    """Instance document for one draw, or None if the draw's fiber is not the
    shape's (generate_instance takes the fiber dimension from the seed)."""
    from kgl import formats, generators, sgpd
    from kgl.bundle import HilbertBundle
    params = _structure_params(spec)
    if spec["family"] == "group_action":
        sg, act = sgpd.generate("group_action", **params)
        bundle = HilbertBundle(points=act.base, dim={x: spec["fiber"] for x in act.base})
        kernel = generators.generate_kernel(act, bundle, spec["mode"], seed=inst_seed)
    else:
        if int(generators.rng_for(inst_seed).integers(1, 4)) != spec["fiber"]:
            return None
        sg, act, bundle, kernel = generators.generate_instance(
            spec["family"], seed=inst_seed, mode=spec["mode"], **params)
    return formats.instance_to_doc(sg, act, bundle, kernel)


def expected_verdict(spec, psd: bool) -> dict:
    """Exit code, failing tags and profile flags implied by the construction."""
    groupoid = spec["family"] != "partial_bijections"
    invariant = spec["mode"] != "arbitrary"
    defect = spec.get("defect")
    if defect == "drop-compose":
        return {"exit": 1, "failing": ["axioms/semigroupoid"], "profile": None,
                "represented": False}
    if defect == "drop-act":
        return {"exit": 1, "failing": ["axioms/action"], "profile": None,
                "represented": False}
    if defect == "non-hermitian":
        return {"exit": 1, "failing": ["kernel/hermitian"],
                "profile": {"is_groupoid": groupoid, "is_inverse": True,
                            "partially_psd": False, "invariant": False},
                "represented": False}
    if defect == "non-invariant":
        invariant = False
    return {"exit": 0, "failing": [],
            "profile": {"is_groupoid": groupoid, "is_inverse": True,
                        "partially_psd": psd, "invariant": invariant},
            "represented": invariant}


def draw_instance(workload, seed, index, spec):
    """(instance seed, document, expected verdict) of the first draw of a corpus
    slot whose verdict is fixed by its construction."""
    from kgl import generators
    for attempt, inst_seed in enumerate(_draw_seeds(workload, seed, index)):
        if attempt > 500:
            raise CorpusError(f"no usable draw for {spec_name(spec)}")
        doc = generate_doc(spec, inst_seed)
        if doc is None:
            continue
        if "defect" in spec:
            _inject(doc, spec["defect"], generators.rng_for(inst_seed + 1), spec["fiber"])
        if spec.get("defect") in ("drop-compose", "drop-act", "non-hermitian"):
            return inst_seed, doc, expected_verdict(spec, psd=False)
        lowest = _lowest_eigenvalue(doc)
        psd = _psd_class(lowest)
        if psd is None or psd != (spec["mode"] == "psd_invariant"):
            continue
        if spec.get("full_rank") and lowest < FULL_RANK_FLOOR:
            continue
        if spec["mode"] == "arbitrary" and not _clearly_variant(doc):
            continue
        return inst_seed, doc, expected_verdict(spec, psd)


def plan_corpus(workload: str, seed: int) -> dict:
    """The accepted instance seed and the expected verdict of every corpus slot.

    Finding the seeds redraws rejected candidates and runs the numpy checks
    above; none of that is kgl's work, so it happens here, outside the timed
    set-up, which then generates only the accepted draws.
    """
    slots = []
    for index, spec in enumerate(specs(workload)):
        inst_seed, _, expect = draw_instance(workload, seed, index, spec)
        slots.append({"name": spec_name(spec), "inst_seed": inst_seed, "expect": expect})
    return {"workload": workload, "seed": seed, "slots": slots}


def write_corpus(plan: dict, out_dir: str) -> tuple:
    """Generate and write every planned instance under out_dir.

    Returns (manifest, seconds spent in kgl generating and writing). The
    injection of a defect edits the document between the two and is not
    counted.
    """
    from kgl import formats, generators
    os.makedirs(out_dir, exist_ok=True)
    entries, spent = [], 0.0
    for index, (spec, slot) in enumerate(zip(specs(plan["workload"]), plan["slots"])):
        path = os.path.join(out_dir, f"{index:03d}.json")
        t0 = time.perf_counter()
        doc = generate_doc(spec, slot["inst_seed"])
        t1 = time.perf_counter()
        if "defect" in spec:
            _inject(doc, spec["defect"], generators.rng_for(slot["inst_seed"] + 1),
                    spec["fiber"])
        t2 = time.perf_counter()
        formats.save_instance(doc, path)
        spent += (t1 - t0) + (time.perf_counter() - t2)
        entries.append({"name": slot["name"], "file": path, "expect": slot["expect"]})
    manifest = {"workload": plan["workload"], "seed": plan["seed"], "instances": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest, spent


def corpus_digest(out_dir: str) -> str:
    """Content hash of every instance file, in corpus order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json") and name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="JSON file written by plan_corpus")
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the kgl package")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, args.src)
    t_import = time.perf_counter()
    import kgl  # noqa: F401  (the import is part of the set-up cost)
    import_s = time.perf_counter() - t_import
    manifest, spent = write_corpus(plan, args.out)
    print(json.dumps({"setup_s": import_s + spent, "import_s": import_s,
                      "wall_s": time.perf_counter() - t0,
                      "instances": len(manifest["instances"]),
                      "digest": corpus_digest(args.out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

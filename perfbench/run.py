"""Benchmark of `kgl report`: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload spectral --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --probe

Run from the root of a checkout; kgl is imported from its `src/`. One client
runs one report at a time (closed loop), each in a child forked from a
parent that has kgl imported. Every verdict is checked against the one the
corpus was built to have. The last line of standard output is a JSON object
with `correct`, `attempted`, `failed` and `metrics`; the lines before it
print every metric with its unit, plus the environment record.
"""

import argparse
import bisect
import collections
import ctypes
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

# Pin BLAS to one thread before anything can import numpy.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
INHERITED_BLAS = {v: os.environ.get(v) for v in BLAS_VARS}
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import corpus  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 3
REPORT_CAP_S = 60.0
MIN_SAMPLES = 100  # p90 wants at least ten samples beyond it

END_TO_END = (("report_s.p50", "s"), ("report_s.p90", "s"), ("reports_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.self_s", "s"), ("bundle.self_s", "s"),
    ("formats.self_s", "s"), ("formats.in_bytes", "bytes"),
    ("sgpd.self_s", "s"), ("sgpd.validate.calls", "count"), ("sgpd.classify.calls", "count"),
    ("sgpd.orbit_trivial_bundle.calls", "count"),
    ("kernel.self_s", "s"), ("kernel.conv_blocks.calls", "count"),
    ("kernel.is_invariant.calls", "count"), ("kernel.bounded_shift_constant.calls", "count"),
    ("kernel.shift_map.calls", "count"), ("kernel.block.calls", "count"),
    ("numlin.self_s", "s"), ("numlin.herm_eig.calls", "count"), ("numlin.eigh.calls", "count"),
    ("numlin.eigh.distinct", "count"), ("numlin.eigh.useful_ratio", "ratio"),
    ("numlin.eigh.n3", "count"), ("numlin.pinv.calls", "count"),
    ("numlin.opnorm.calls", "count"), ("numlin.frob.calls", "count"),
    ("krein_core.self_s", "s"), ("krein_core.induced_krein.calls", "count"),
    ("krein_lin.self_s", "s"), ("krein_lin.jordan_split.s", "s"),
    ("krein_lin.krein_linearisation.s", "s"), ("krein_lin.rk_krein_space.s", "s"),
    ("krein_lin.uniqueness_report.s", "s"), ("krein_lin.invariant_krein_representation.s", "s"),
    ("hilbert_lin.self_s", "s"), ("hilbert_lin.minimal_linearisation.s", "s"),
    ("hilbert_lin.invariant_representation.s", "s"), ("hilbert_lin.representation_laws.s", "s"),
    ("reports.self_s", "s"), ("reports.out_bytes", "bytes"),
    ("generators.self_s", "s"), ("trace.overhead", "ratio"),
)


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: error: {msg}\n")
    return 2


def say(line: str = "") -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# ------------------------------------------------------------------
# environment record


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    blas_threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_env_inherited": INHERITED_BLAS,
        "blas_threads": blas_threads,
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pinned": blas_threads == 1 if blas_threads is not None else threads == 1,
    }


# ------------------------------------------------------------------
# set-up


def setup(plan: dict, run_dir: str, reps: int):
    """Write the planned corpus `reps` times in fresh interpreters; keep the first.

    Returns (manifest, set-up seconds of each rep, whether every rep wrote
    identical bytes).
    """
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    times, digests = [], set()
    for rep in range(reps):
        out = os.path.join(run_dir, f"corpus{rep}")
        cmd = [sys.executable, os.path.join(HERE, "corpus.py"), "--plan", plan_path,
               "--out", out, "--src", SRC]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"corpus build failed:\n{proc.stderr[-2000:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(info["setup_s"])
        digests.add(info["digest"])
        if rep:
            shutil.rmtree(out)
    with open(os.path.join(run_dir, "corpus0", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return manifest, times, len(digests) == 1


# ------------------------------------------------------------------
# measurement loops


def _check(result: dict, inst: dict, failures: list) -> bool:
    errors = harness.verdict_errors(result["verdict"], inst["expect"])
    if errors:
        failures.append(f"{inst['name']}: {'; '.join(errors)}")
    return not errors


def timed_loop(instances, order, seconds):
    """Closed loop over the corpus until `seconds` have passed."""
    samples, failures = [], []
    harness.run_report(instances[order[0]]["file"], cap_s=REPORT_CAP_S)  # warm-up
    t_start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t_start < seconds:
        index = order[i % len(order)]
        i += 1
        t0 = time.perf_counter()
        res = harness.run_report(instances[index]["file"], cap_s=REPORT_CAP_S)
        res["wall_s"] = time.perf_counter() - t0
        res["instance"] = index
        res["ok"] = _check(res, instances[index], failures)
        samples.append(res)
    return samples, failures, time.perf_counter() - t_start


def traced_loop(instances, order, seconds, spans_path, plain=True):
    """Per instance: one untraced report (unless not `plain`), then two traced ones.

    The untraced and the first traced report are forked from this process,
    for one pass over the corpus cut short when `seconds` have passed. The
    second traced report of each instance that ran comes from a fresh
    interpreter with another hash seed, so that the count-stability check
    sees any count that hangs on hash order or interpreter state.
    """
    rows, failures = [], []
    worker = start_fresh_worker(spans_path)  # imports kgl while the pass runs
    try:
        t_start = time.perf_counter()
        i = 0
        while i < len(order) and (i == 0 or time.perf_counter() - t_start < seconds):
            inst = instances[order[i]]
            row = {"name": inst["name"], "index": order[i]}
            for key, trace in (("plain", False), ("traced", True))[0 if plain else 1:]:
                res = harness.run_report(inst["file"], trace=trace, spans_path=spans_path,
                                         tag=f"{inst['name']}#{i}:{key}", cap_s=REPORT_CAP_S)
                res["ok"] = _check(res, inst, failures)
                row[key] = res
            rows.append(row)
            i += 1
        jobs = [[instances[r["index"]]["file"], f"{r['name']}#{i}:again"]
                for i, r in enumerate(rows)]
        for row, res in zip(rows, fresh_traced_reports(worker, jobs)):
            res["ok"] = _check(res, instances[row["index"]], failures)
            row["again"] = res
    finally:
        if worker.poll() is None:
            worker.kill()
        worker.wait()
    return rows, failures


def other_hash_seed() -> int:
    """A PYTHONHASHSEED other than this interpreter's."""
    mine = os.environ.get("PYTHONHASHSEED", "")
    # a random seed of this interpreter equals any fixed one with odds 2^-64
    return (int(mine) + 1) % 2**32 if mine.isdigit() else 4242


def start_fresh_worker(spans_path) -> subprocess.Popen:
    """A fresh interpreter that imports kgl under another hash seed, then
    waits for the jobs of `fresh_traced_reports` on its standard input."""
    env = dict(os.environ, PYTHONHASHSEED=str(other_hash_seed()))
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), SRC, spans_path, str(REPORT_CAP_S)]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)


def fresh_traced_reports(worker, jobs) -> list:
    """Traced reports of `jobs` ([file, tag] each), forked from `worker`."""
    try:
        stdout, stderr = worker.communicate(json.dumps(jobs),
                                            timeout=REPORT_CAP_S * len(jobs) + 60)
    except subprocess.TimeoutExpired:
        worker.kill()
        stdout, stderr = worker.communicate()
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = None
    if worker.returncode != 0 or not isinstance(out, list) or len(out) != len(jobs):
        error = f"fresh interpreter failed: {stderr[-500:]}"
        return [{"error": error, "verdict": {"error": error}} for _ in jobs]
    return out


def traced_generation(workload: str, plan: dict) -> dict:
    """Runs in a child: generators self time per accepted draw, with tracing installed."""
    tracer = tracing.Tracer()
    tracer.install()
    out = []
    for spec, slot in zip(corpus.specs(workload), plan["slots"]):
        tracer.reset()
        corpus.generate_doc(spec, slot["inst_seed"])
        out.append(tracer.summary()["self_s"].get("generators", 0.0))
    return {"value": out}


# ------------------------------------------------------------------
# metrics


def balanced_quantile(samples, q: float) -> float:
    """q-quantile of the report times, every instance of the corpus weighted equally.

    The loop stops part way through a pass over the corpus, so some
    instances ran once more than others; weighting each sample by one over
    its instance's sample count keeps the corpus' size mix in every run.
    """
    count = collections.Counter(s["instance"] for s in samples)
    points = sorted((s["report_s"], 1.0 / count[s["instance"]]) for s in samples)
    total = sum(w for _, w in points)
    xs, cs, acc = [], [], 0.0
    for x, w in points:  # each sample sits at the middle of its weight
        xs.append(x)
        cs.append((acc + w / 2) / total)
        acc += w
    if q <= cs[0]:
        return xs[0]
    if q >= cs[-1]:
        return xs[-1]
    k = bisect.bisect_left(cs, q)
    return xs[k - 1] + (xs[k] - xs[k - 1]) * (q - cs[k - 1]) / (cs[k] - cs[k - 1])


def end_to_end(samples, setup_times) -> dict:
    """The end-to-end metrics, each instance of the corpus weighted equally."""
    walls = collections.defaultdict(list)
    for s in samples:
        walls[s["instance"]].append(s["wall_s"])
    mean_wall = statistics.mean(statistics.mean(w) for w in walls.values())
    good = sum(s["ok"] for s in samples) / len(samples)
    timed = [s for s in samples if "report_s" in s]
    return {
        "report_s.p50": balanced_quantile(timed, 0.5) if timed else 0.0,
        "report_s.p90": balanced_quantile(timed, 0.9) if timed else 0.0,
        "reports_per_s": good / mean_wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
    }


def _layer_value(name: str, res: dict):
    """The per-report value of one per-layer metric, or None if not active."""
    tr = res.get("trace")
    if tr is None:
        return None
    if name in ("formats.in_bytes", "reports.out_bytes"):
        return res[name.split(".")[1]]
    if name.startswith("numlin.eigh."):
        eigh = tr["eigh"]
        if not eigh["calls"]:
            return None
        if name.endswith("useful_ratio"):
            return eigh["distinct"] / eigh["calls"]
        return eigh[name.rsplit(".", 1)[1]]
    if name.endswith(".self_s"):
        return tr["self_s"].get(name[:-len(".self_s")])
    if name.endswith(".calls"):
        return tr["calls"].get(name[:-len(".calls")]) or None
    if name.endswith(".s"):
        return tr["incl_s"].get(name[:-len(".s")])
    raise KeyError(name)


def counters(res: dict) -> dict:
    """Every count a traced report should repeat exactly."""
    tr = res["trace"]
    out = {f"{k}.calls": v for k, v in tr["calls"].items()}
    out.update({f"numlin.eigh.{k}": v for k, v in tr["eigh"].items()})
    out["formats.in_bytes"] = res["in_bytes"]
    out["reports.out_bytes"] = res["out_bytes"]
    return out


def per_layer(rows, gen_self) -> tuple:
    """(metrics, problems, instances whose counters repeat) from the traced rows
    and the generators self times of the traced generation."""
    traced = [r[k] for r in rows for k in ("traced", "again") if "trace" in r[k]]
    metrics = {}
    for name, _unit in PER_LAYER:
        if name == "generators.self_s":
            active = [v for v in gen_self if v > 0]
        elif name == "trace.overhead":
            continue
        else:
            active = [v for v in (_layer_value(name, r) for r in traced) if v is not None]
        metrics[name] = statistics.median(active) if active else 0.0
    pairs = [(r["plain"]["report_s"], r["traced"]["report_s"]) for r in rows
             if "report_s" in r.get("plain", {}) and "report_s" in r["traced"]]
    plain = sum(p for p, _ in pairs)
    metrics["trace.overhead"] = sum(t for _, t in pairs) / plain if plain else 0.0

    problems = []
    for res in traced:
        eigh, herm = res["trace"]["eigh"]["calls"], res["trace"]["calls"].get("numlin.herm_eig", 0)
        if eigh != herm:
            problems.append(f"eigh cross-check: {eigh} np.linalg.eigh calls vs {herm} herm_eig")
    stable = 0
    for r in rows:
        if "trace" in r["traced"] and "trace" in r["again"]:
            a, b = counters(r["traced"]), counters(r["again"])
            if a == b:
                stable += 1
            else:
                diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
                problems.append(f"count stability: {r['name']} differs on {diff[:6]}")
    return metrics, problems, stable


# ------------------------------------------------------------------
# modes


def _print_metrics(metrics: dict, units, extra=None) -> None:
    for name, unit in units:
        note = (extra or {}).get(name, "")
        say(f"  {name:<44} {metrics[name]:>14.6g} {unit:<6}{note}")


def measure(args) -> int:
    import kgl.cli  # noqa: F401  (pre-imported once, inherited by every report child)
    env = environment()
    say("env " + json.dumps(env, sort_keys=True))
    if not env["blas_pinned"]:
        say("WARNING: BLAS is not pinned to one thread; timings are not comparable")

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        reps = 1 if args.trace else SETUP_REPS
        # a child, so that nothing the search leaves behind reaches the report children
        plan = harness.run_in_child(corpus.plan_corpus, args.workload, args.seed, cap_s=150.0)
        if "error" in plan:
            raise RuntimeError(f"corpus plan failed: {plan['error']}")
        manifest, setup_times, same = setup(plan, run_dir, reps)
        instances = manifest["instances"]
        order = list(range(len(instances)))
        random.Random(args.seed).shuffle(order)
        say(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
            f"set-up x{reps} {[round(t, 3) for t in setup_times]} s, "
            f"corpus identical across set-ups: {same}")
        problems = [] if same else ["corpus bytes differ between set-ups"]
        if args.trace:
            result = _traced(args, plan, instances, order, run_dir, problems)
        else:
            result = _timed(args, instances, order, setup_times, problems)
        with open(os.path.join(WORK, f"result-{os.path.basename(run_dir)}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"env": env, "args": vars(args), **result}, fh, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in result["problems"]:
        say(f"PROBLEM: {p}")
    say(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


def _timed(args, instances, order, setup_times, problems) -> dict:
    samples, failures, elapsed = timed_loop(instances, order, args.seconds)
    values = end_to_end(samples, setup_times)
    n = sum("report_s" in s for s in samples)
    fail_frac = len(failures) / len(samples)
    say(f"end-to-end ({len(samples)} reports in {elapsed:.2f} s, closed loop, one client):")
    _print_metrics(values, END_TO_END, {"report_s.p50": f"  (n={n})", "report_s.p90": f"  (n={n})"})
    say(f"  {'fail_frac':<44} {fail_frac:>14.6g} {'ratio':<6}  ({len(failures)}/{len(samples)})")
    if n < MIN_SAMPLES:
        say(f"WARNING: only {n} report samples; p90 wants at least {MIN_SAMPLES}")
    for f in failures:
        say(f"WRONG VERDICT: {f}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not failures and not problems,
            "attempted": len(samples), "failed": len(failures), "metrics": metrics,
            "fail_frac": fail_frac, "failures": failures, "problems": problems,
            "samples": [[instances[s["instance"]]["name"], s.get("report_s"), s["wall_s"],
                         s["rss_mb"]] for s in samples]}


def _traced(args, plan, instances, order, run_dir, problems) -> dict:
    gen = harness.run_in_child(traced_generation, args.workload, plan, cap_s=120.0)
    if "error" in gen:
        problems.append(f"traced generation: {gen['error']}")
    spans_path = os.path.join(WORK, f"spans-{os.path.basename(run_dir)}.jsonl")
    rows, failures = traced_loop(instances, order, args.seconds, spans_path)
    metrics, checks, stable = per_layer(rows, gen.get("value", []))
    problems += checks
    say(f"per layer (medians per report over {2 * len(rows)} traced reports of "
        f"{len(rows)} instances; spans in {os.path.relpath(spans_path, ROOT)}):")
    _print_metrics(metrics, PER_LAYER)
    say(f"count stability: {stable}/{len(rows)} instances repeat every counter exactly "
        f"in a fresh interpreter with PYTHONHASHSEED={other_hash_seed()}")
    say("eigh cross-check (np.linalg.eigh calls == numlin.herm_eig calls): "
        + ("ok" if not any(p.startswith("eigh") for p in checks) else "FAILED"))
    for f in failures:
        say(f"WRONG VERDICT: {f}")
    attempted = 3 * len(rows)
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "failures": failures, "problems": problems,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}}


def smoke() -> int:
    """Smallest instance of each workload through the oracle and the tracer."""
    from kgl import formats
    t0 = time.perf_counter()
    run_dir = os.path.join(WORK, f"smoke-{os.getpid()}")
    os.makedirs(run_dir)
    instances = []
    try:
        # the smallest instance of each workload, and of each kind of defect
        tables = corpus.specs("tables")
        defective = [next(i for i, s in enumerate(tables) if s.get("defect") == d)
                     for d in corpus.DEFECTS]
        for workload, picks in (("tables", [0] + defective), ("spectral", [2])):
            specs = corpus.specs(workload)
            for index in picks:
                _, doc, expect = corpus.draw_instance(workload, 1, index, specs[index])
                path = os.path.join(run_dir, f"{workload}-{index}.json")
                formats.save_instance(doc, path)
                instances.append({"name": f"{workload}:{corpus.spec_name(specs[index])}",
                                  "file": path, "expect": expect})
        rows, failures = traced_loop(instances, list(range(len(instances))), float("inf"),
                                     os.path.join(run_dir, "spans.jsonl"), plain=False)
        _, problems, stable = per_layer(rows, [])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ok = not failures and not problems and stable == len(rows)
    say(f"smoke: {len(rows)} instances, counters stable {stable}/{len(rows)}")
    for line in [f"WRONG VERDICT: {f}" for f in failures] + [f"PROBLEM: {p}" for p in problems]:
        say(f"  {line}")
    say(f"smoke {'passed' if ok else 'FAILED'} in {time.perf_counter() - t0:.2f} s")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of `kgl report`.")
    parser.add_argument("--workload", choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="corpus seed (default 1; seed 2 is held out for checking claims)")
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="run the smallest instance of each workload and exit")
    parser.add_argument("--probe", action="store_true",
                        help="time partial_bijections((4,)) layer by layer and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kgl", "__init__.py")):
        return fail(f"no kgl package under {SRC}; run from the root of a kgl checkout")
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.probe:
        import probe
        return probe.main(WORK)
    if args.workload is None:
        return fail("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

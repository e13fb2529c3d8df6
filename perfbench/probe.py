"""Scale probe: partial_bijections((4,)) timed layer by layer.

The instance has 209 elements, 43,681 composable pairs and, with fiber 2,
one part of dimension 418. It is far too slow for the timed workloads, so
each layer runs here in its own forked child with a cap, and the probe
records either the layer's time or "timeout at N s". The end-to-end
`kgl report` row is the one ROADMAP item 3's "< 30 s" gate reads.

    python3 perfbench/run.py --probe
"""

import json
import os
import signal
import time

import harness

FIBER_SIZES = (4,)
FIBER = 2
MODE = "psd_invariant"
CAP_S = 60.0  # twice the "< 30 s" gate, so a time near the gate is still read


def _generate(path: str) -> dict:
    from kgl import formats, generators
    seed = next(s for s in range(1000)
                if int(generators.rng_for(s).integers(1, 4)) == FIBER)
    t0 = time.perf_counter()
    sg, act, bundle, kernel = generators.generate_instance(
        "partial_bijections", seed=seed, mode=MODE, fiber_sizes=FIBER_SIZES)
    elapsed = time.perf_counter() - t0
    formats.save_instance(formats.instance_to_doc(sg, act, bundle, kernel), path)
    return {"s": elapsed, "elements": len(sg.elements), "pairs": len(sg.compose),
            "seed": seed}


def _layers():
    from kgl import hilbert_lin, kernel, krein_lin, sgpd
    return (
        ("sgpd.validate", lambda i: sgpd.validate(i.sg)),
        ("sgpd.validate_action", lambda i: sgpd.validate_action(i.action)),
        ("sgpd.classify", lambda i: sgpd.classify(i.sg)),
        ("kernel.conv_blocks", lambda i: kernel.conv_blocks(i.kernel, i.partition)),
        ("kernel.is_partially_psd", lambda i: kernel.is_partially_psd(i.kernel, i.partition)),
        ("kernel.is_invariant", lambda i: kernel.is_invariant(i.kernel, i.action)),
        ("krein_lin.jordan_split", lambda i: krein_lin.jordan_split(i.kernel, i.partition)),
        ("krein_lin.krein_linearisation",
         lambda i: krein_lin.krein_linearisation(i.kernel, i.partition)),
        ("krein_lin.invariant_krein_representation",
         lambda i: krein_lin.invariant_krein_representation(i.kernel, i.action, i.partition)),
        ("hilbert_lin.minimal_linearisation",
         lambda i: hilbert_lin.minimal_linearisation(i.kernel, i.partition)),
        ("hilbert_lin.invariant_representation",
         lambda i: hilbert_lin.invariant_representation(i.kernel, i.action, i.partition)),
        ("cli.report", None),
    )


class LayerTimeout(BaseException):
    """Raised by the alarm; not an Exception, so no handler in kgl swallows it."""


def _alarm(signum, frame):
    raise LayerTimeout


def _run_layer(path: str, index: int, cap_s: float) -> dict:
    """Runs in the child: load the instance untimed, then time one layer
    until it returns or cap_s pass."""
    import contextlib
    import io

    from kgl import cli, formats
    _, fn = _layers()[index]
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    out = {}
    if fn is not None:
        inst = formats.load(path, strict=False)
        out["load_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        if fn is None:  # end to end, file read included
            with contextlib.redirect_stdout(io.StringIO()):
                out["exit"] = cli.main(["report", path])
        else:
            fn(inst)
    except LayerTimeout:
        return {"error": f"timeout at {cap_s:g} s"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out["s"] = time.perf_counter() - t0
    return out


def main(work: str) -> int:
    import kgl.cli  # noqa: F401  (inherited by every layer child)
    path = os.path.join(work, f"probe-{os.getpid()}.json")
    rows = {}
    try:
        gen = harness.run_in_child(_generate, path, cap_s=CAP_S)
        rows["generators.generate_instance"] = gen
        if "error" not in gen:
            print(f"instance: partial_bijections{FIBER_SIZES}, fiber {FIBER}, {MODE}, "
                  f"{gen['elements']} elements, {gen['pairs']} composable pairs, "
                  f"{os.path.getsize(path)} bytes", flush=True)
            for index, (name, _) in enumerate(_layers()):
                # the parent's own cap is a backstop for a layer stuck in native code
                res = harness.run_in_child(_run_layer, path, index, CAP_S, cap_s=3 * CAP_S)
                rows[name] = res
                shown = res.get("error") or f"{res['s']:.3f} s"
                print(f"  {name:<44} {shown}", flush=True)
    finally:
        if os.path.exists(path):
            os.remove(path)
    if "error" in gen:
        print(f"  generators.generate_instance {gen['error']}", flush=True)
    out = {"cap_s": CAP_S, "layers": {k: v.get("error") or v["s"] for k, v in rows.items()}}
    with open(os.path.join(work, "probe.json"), "w", encoding="utf-8") as fh:
        json.dump({"cap_s": CAP_S, "rows": rows}, fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0

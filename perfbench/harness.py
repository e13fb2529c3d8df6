"""One `kgl report` per forked child, with its verdict and optional trace.

The parent has kgl imported already; each report runs in a fresh child
forked from it, so no state survives from one report to the next. The
child times `cli.main(["report", path])` with the report written to an
in-memory buffer, reduces the report to its verdict, and sends a small
JSON payload back through a pipe. The parent reads the child's peak
resident memory from `wait4`.
"""

import io
import json
import os
import select
import signal
import sys
import time

import tracing

PROFILE_FLAGS = ("is_groupoid", "is_inverse", "partially_psd", "invariant")
REPRESENTATION_TAGS = ("hilbert/representation", "krein/representation")


def verdict_of(exit_code, report_text: str) -> dict:
    """Exit code, failing tags, profile flags and whether a representation was built."""
    verdict = {"exit": exit_code, "failing": [], "profile": None, "represented": False}
    if not report_text:
        return verdict
    records = json.loads(report_text)["records"]
    verdict["failing"] = sorted({r["tag"] for r in records if not r["pass"]})
    verdict["represented"] = any(r["tag"] in REPRESENTATION_TAGS for r in records)
    for r in records:
        if r["tag"] == "axioms/classification" and isinstance(r["witness"], dict):
            verdict["profile"] = {k: r["witness"].get(k) for k in PROFILE_FLAGS}
    return verdict


def verdict_errors(got: dict, expect: dict) -> list:
    """The ways a report's verdict differs from the expected one."""
    if got.get("error"):
        return [f"raised {got['error']}"]
    return [f"{key} {got[key]!r} != expected {expect[key]!r}"
            for key in ("exit", "failing", "profile", "represented") if got[key] != expect[key]]


def _report(path: str, trace: bool, spans_path: str, tag: str) -> dict:
    """Runs in the child: one report, reduced to a payload."""
    from kgl import cli
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(["report", path])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any raise is a wrong verdict, reported by name
        code, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    text = out.getvalue()
    payload = {"report_s": t1 - t0, "out_bytes": len(text.encode()),
               "in_bytes": os.path.getsize(path)}
    try:
        payload["verdict"] = verdict_of(code, text)
    except (ValueError, KeyError, TypeError) as exc:
        payload["verdict"] = {"error": f"unreadable report: {exc}"}
    if error:
        payload["verdict"] = {"error": error}
    if tracer is not None:
        payload["trace"] = tracer.summary()
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"report": tag, "spans": tracer.span_rows(t0)},
                                separators=(",", ":")) + "\n")
    return payload


def run_in_child(fn, *args, cap_s: float = 120.0) -> dict:
    """Run fn(*args) in a forked child; return its JSON payload plus peak RSS.

    A child that outlives cap_s is killed and reported as an error.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(rfd)
        status = 0
        try:
            data = json.dumps(fn(*args)).encode()
        except BaseException as exc:  # the child must always reach _exit
            data = json.dumps({"error": f"{type(exc).__name__}: {exc}"}).encode()
            status = 1
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(wfd, view):]
        finally:
            os._exit(status)
    os.close(wfd)
    chunks, deadline, timed_out = [], time.monotonic() + cap_s, False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    if timed_out:
        payload = {"error": f"timeout at {cap_s:g} s"}
    else:
        try:
            payload = json.loads(b"".join(chunks) or b"{}")
        except ValueError:
            payload = {}
        if not payload:
            payload = {"error": f"child ended with status {status} and no result"}
    payload["rss_mb"] = usage.ru_maxrss / 1024.0
    return payload


def run_report(path: str, trace: bool = False, spans_path: str = None, tag: str = "",
               cap_s: float = 120.0) -> dict:
    payload = run_in_child(_report, path, trace, spans_path, tag, cap_s=cap_s)
    if "error" in payload:
        payload["verdict"] = {"error": payload["error"]}
    return payload


def main(argv) -> int:
    """Fresh-interpreter worker: `harness.py SRC SPANS CAP_S` imports kgl, reads
    [[file, tag], ...] as JSON on stdin, runs a traced report of each in a
    child forked from here, and prints the payloads as one JSON list."""
    src, spans_path, cap_s = argv[1], argv[2], float(argv[3])
    sys.path.insert(0, src)
    import kgl.cli  # noqa: F401  (pre-imported once, inherited by every report child)
    jobs = json.load(sys.stdin)
    out = [run_report(path, trace=True, spans_path=spans_path, tag=tag, cap_s=cap_s)
           for path, tag in jobs]
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

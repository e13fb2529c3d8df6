"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import harness  # noqa: E402


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=cwd, check=False)


def test_smoke_passes_quickly():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    seconds = float(proc.stdout.strip().splitlines()[-1].split(" in ")[1].split()[0])
    assert seconds < 2.0


def test_every_workload_has_a_fixed_shape_list():
    for workload in corpus.WORKLOADS:
        names = [corpus.spec_name(s) for s in corpus.specs(workload)]
        assert names and len(names) == len(set(names))
    kinds = {s["defect"] for s in corpus.specs("tables") if "defect" in s}
    assert kinds == set(corpus.DEFECTS)


def test_timed_set_up_writes_the_checked_draws(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from kgl import formats
    # the last valid slot and the first defective ones, so a defect is injected
    first = next(i for i, s in enumerate(corpus.specs("tables")) if "defect" in s) - 1
    specs = corpus.specs("tables")[first:first + 4]
    slots, checked = [], []
    for index, spec in enumerate(specs, first):
        inst_seed, doc, expect = corpus.draw_instance("tables", 1, index, spec)
        slots.append({"name": corpus.spec_name(spec), "inst_seed": inst_seed, "expect": expect})
        checked.append(tmp_path / f"checked{index}.json")
        formats.save_instance(doc, str(checked[-1]))
    plan = {"workload": "tables", "seed": 1, "slots": slots}
    monkeypatch.setattr(corpus, "specs", lambda workload: specs)
    manifest, spent = corpus.write_corpus(plan, str(tmp_path / "corpus"))
    assert spent > 0 and len(manifest["instances"]) == len(specs)
    for entry, path in zip(manifest["instances"], checked):
        assert open(entry["file"], "rb").read() == path.read_bytes()


def test_verdicts_follow_from_the_construction():
    valid = {"family": "partial_bijections", "mode": "psd_invariant"}
    assert corpus.expected_verdict(valid, psd=True) == {
        "exit": 0, "failing": [], "represented": True,
        "profile": {"is_groupoid": False, "is_inverse": True,
                    "partially_psd": True, "invariant": True}}
    broken = dict(valid, defect="non-invariant")
    assert corpus.expected_verdict(broken, psd=True)["profile"]["invariant"] is False
    assert corpus.expected_verdict(broken, psd=True)["represented"] is False


def test_verdict_errors_name_every_difference():
    expect = {"exit": 1, "failing": ["axioms/action"], "profile": None, "represented": False}
    assert harness.verdict_errors(dict(expect), expect) == []
    got = dict(expect, exit=0, failing=[])
    assert len(harness.verdict_errors(got, expect)) == 2
    assert harness.verdict_errors({"error": "ValueError: x"}, expect) == ["raised ValueError: x"]


def test_verdict_of_reads_the_report():
    report = {"records": [
        {"tag": "axioms/semigroupoid", "pass": True, "witness": None},
        {"tag": "kernel/hermitian", "pass": False, "witness": "s0"},
        {"tag": "axioms/classification", "pass": True,
         "witness": {"is_groupoid": True, "is_inverse": True, "partially_psd": False,
                     "invariant": False}},
    ]}
    v = harness.verdict_of(1, json.dumps(report))
    assert v["failing"] == ["kernel/hermitian"] and v["profile"]["is_groupoid"] is True


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""

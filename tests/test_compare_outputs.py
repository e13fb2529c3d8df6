"""tools/compare_outputs.py names the record tag and field that differ, and
how far apart their numbers are."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_outputs.py")


@pytest.fixture
def tool(monkeypatch):
    # importing the tool pins the BLAS thread variables; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(tolerance):
    records = [{"name": "kernel is Hermitian on the part", "tag": "kernel/hermitian",
                "residual": 0.0, "tolerance": 1e-9, "pass": True, "witness": "s"},
               {"name": "kernel is PSD on the part", "tag": "kernel/psd",
                "residual": 0.0, "tolerance": tolerance, "pass": True, "witness": "s"}]
    return json.dumps({"command": "check psd", "pass": True, "records": records})


def test_diff_names_the_record_field_that_differs(tool, tmp_path, capsys):
    def fingerprint(name, out):
        path = tmp_path / name
        path.write_text(json.dumps({"outputs": {
            "a check psd": {"sha": out, "parts": tool.parts(0, out, ""),
                            "numbers": tool.part_numbers(0, out, "")},
            "generate": {"sha": "g", "parts": tool.parts(0, "{}\n", ""),
                         "numbers": tool.part_numbers(0, "{}\n", "")}}}))
        return str(path)

    old, new = fingerprint("old.json", report(1e-9)), fingerprint("new.json", report(2e-10))
    assert tool.diff(old, old) == 0
    capsys.readouterr()
    assert tool.diff(old, new) == 1
    out = capsys.readouterr().out.splitlines()
    assert "outputs: a check psd: kernel/psd tolerance" in out
    assert "outputs: 1 of 2 differ" in out
    assert "part kernel/psd tolerance: differs in 1 outputs" in out
    assert "part kernel/psd tolerance: largest relative difference 0.8" in out


def test_numbers_of_a_part_are_its_numeric_leaves_in_order(tool):
    out = report(1e-9).replace('"witness": "s"}]', '"witness": {"x": 2, "ok": true, "y": [3.5]}}]')
    numbers = tool.part_numbers(1, out, "")
    assert numbers["exit"] == [1]
    assert numbers["kernel/psd tolerance"] == [1e-9]
    assert numbers["kernel/psd witness"] == [2, 3.5]  # booleans and strings are not numbers
    assert "kernel/psd pass" not in numbers and "tags" not in numbers


def test_relative_difference(tool):
    assert tool.relative_difference([1.0, 0.0, -2.0], [1.0, 0.0, -1.0]) == 0.5
    assert tool.relative_difference([0.0], [1e-300]) == 1.0
    assert tool.relative_difference([1.0], [1.0, 2.0]) is None
    assert tool.relative_difference([], []) == 0.0


def test_diff_without_recorded_numbers_says_so(tool, tmp_path, capsys):
    paths = []
    for name, tolerance in (("old.json", 1e-9), ("new.json", 2e-10)):
        out = report(tolerance)
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"outputs": {
            "a check psd": {"sha": out, "parts": tool.parts(0, out, "")}}}))
    assert tool.diff(*map(str, paths)) == 1
    assert ("part kernel/psd tolerance: largest relative difference not comparable "
            "(numbers differ in count or are not recorded)") in capsys.readouterr().out


def test_diff_gives_the_largest_difference_over_the_comparable_outputs(tool, tmp_path, capsys):
    # in one output the part has a number more on one side: it is counted, not a veto
    doc = json.loads(report(2e-10))
    doc["records"].append(doc["records"][-1])
    longer = json.dumps(doc)
    sides = {"old.json": {"a": report(1e-9), "b": report(1e-9)},
             "new.json": {"a": report(2e-10), "b": longer}}
    for name, outs in sides.items():
        (tmp_path / name).write_text(json.dumps({"outputs": {
            key: {"sha": out, "parts": tool.parts(0, out, ""),
                  "numbers": tool.part_numbers(0, out, "")} for key, out in outs.items()}}))
    assert tool.diff(str(tmp_path / "old.json"), str(tmp_path / "new.json")) == 1
    out = capsys.readouterr().out.splitlines()
    assert "part kernel/psd tolerance: differs in 2 outputs" in out
    assert ("part kernel/psd tolerance: largest relative difference 0.8 over 1 outputs; "
            "1 not comparable (numbers differ in count or are not recorded)") in out


def test_malformed_runs_are_fingerprinted(tool, tmp_path):
    import helpers
    result = {"outputs": {}}
    tool.malformed_outputs(str(tmp_path), result)
    assert len(result["outputs"]) == len(tool.MALFORMED_SEEDS) == 30
    kinds = {key.split()[2] for key in result["outputs"]}
    assert kinds == set(helpers.MUTATIONS)
    exits = [v["numbers"]["exit"] for v in result["outputs"].values()]
    assert [2] in exits


def test_demo_fingerprint_masks_temporary_directories(tool, tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    (checkout / "demos").mkdir()
    script = checkout / "demos" / "01_demo.py"
    script.write_text("import os, tempfile\n"
                      "print('first section')\n"
                      "print()\n"
                      "with tempfile.TemporaryDirectory() as tmp:\n"
                      "    print('file', os.path.join(tmp, 'instance.json'), 'in', os.getcwd())\n")
    runs = []
    for name in ("a", "b"):
        scratch = tmp_path / name
        scratch.mkdir()
        result = {"demos": {}}
        tool.demo_outputs(str(checkout / "src"), str(scratch), result)
        runs.append(result["demos"]["01_demo.py"])
    assert runs[0] == runs[1]
    assert sorted(runs[0]["parts"]) == ["exit", "stderr", "stdout 1", "stdout 2"]
    assert runs[0]["parts"]["stdout 2"] == tool._short(
        "file <tmp>/instance.json in <scratch>/demo-01_demo\n")

    paths = []
    for name, text in (("old.json", "one\n\ntwo\n"), ("new.json", "one\n\nthree\n")):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"demos": {"01_demo.py": {
            "sha": text, "parts": tool.demo_parts(0, text, "")}}}))
    assert tool.diff(*map(str, paths)) == 1
    out = capsys.readouterr().out.splitlines()
    assert "demos: 01_demo.py: stdout 2" in out
    assert "demos: 1 of 1 differ" in out

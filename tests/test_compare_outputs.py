"""tools/compare_outputs.py names the record tag and field that differ."""

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
            "a check psd": {"sha": out, "parts": tool.parts(0, out, "")},
            "generate": {"sha": "g", "parts": tool.parts(0, "{}\n", "")}}}))
        return str(path)

    old, new = fingerprint("old.json", report(1e-9)), fingerprint("new.json", report(2e-10))
    assert tool.diff(old, old) == 0
    capsys.readouterr()
    assert tool.diff(old, new) == 1
    out = capsys.readouterr().out.splitlines()
    assert "outputs: a check psd: kernel/psd tolerance" in out
    assert "outputs: 1 of 2 differ" in out
    assert "part kernel/psd tolerance: differs in 1 outputs" in out

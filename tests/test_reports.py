import json
import os

import numpy as np
import pytest

from kgl import reports
from kgl.reports import Record, Report


def test_record_validates_tag():
    with pytest.raises(ValueError):
        Record("x", "no/such-tag", 0.0, 1.0, True)
    r = Record("x", "kernel/psd", np.float64(0.5), 1.0, True)
    assert isinstance(r.residual, float)


def test_report_ok_and_json_shape():
    recs = [
        Record("first", "kernel/psd", 0.0, 1e-9, True, witness="all"),
        Record("second", "kernel/invariant", 2.0, 1e-9, False,
               witness={"element": "g", "x": "x1", "y": "x2"}),
    ]
    rep = Report("check", "abc123", {"atol": 1e-9, "rank_rel": 1e-10}, recs)
    assert not rep.ok
    doc = json.loads(reports.report_to_json(rep))
    assert doc["command"] == "check"
    assert doc["instance_digest"] == "abc123"
    assert doc["pass"] is False
    assert doc["records"][1]["witness"]["element"] == "g"
    assert doc["records"][0]["tolerance"] == pytest.approx(1e-9)


def test_witnesses_with_tuples_and_numbers_serialize():
    rec = Record("w", "krein/lift", 0.0, 1.0, True,
                 witness=("a", 1, 2.5, None, ("nested", np.float64(3.0))))
    rep = Report("lift", "d", {}, [rec])
    doc = json.loads(reports.report_to_json(rep))
    assert doc["records"][0]["witness"][4][1] == pytest.approx(3.0)


def test_digest_stability():
    assert reports.digest_of("abc") == reports.digest_of("abc")
    assert reports.digest_of("abc") != reports.digest_of("abd")


def test_save_report_roundtrip(tmp_path):
    rep = Report("validate", "xyz", {"atol": 1e-9},
                 [Record("ok", "axioms/semigroupoid", 0.0, 0.5, True)])
    path = tmp_path / "rep.json"
    reports.save_report(rep, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["pass"] is True


def test_tag_vocabulary_is_fixed():
    assert len(reports.TAGS) == 22
    for tag in reports.TAGS:
        group, _, name = tag.partition("/")
        assert group in {"axioms", "kernel", "hilbert", "krein", "io"}
        assert name


def test_every_tag_is_emitted_somewhere():
    src = os.path.dirname(reports.__file__)
    text = "".join(open(os.path.join(src, name), encoding="utf-8").read()
                   for name in sorted(os.listdir(src))
                   if name.endswith(".py") and name != "reports.py")
    assert [tag for tag in reports.TAGS if f'"{tag}"' not in text] == []

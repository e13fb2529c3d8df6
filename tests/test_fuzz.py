"""A seeded fuzz of `kgl report`: single mutations of small generated
instances (tests/helpers.py, malformed_text) end in exit 0, 1 or 2, never in
an uncaught exception."""

import collections
import contextlib
import io

from helpers import MUTATIONS, malformed_text
from kgl import cli

SEEDS = range(300)


def test_report_exits_0_1_or_2_on_single_mutations(tmp_path):
    path = tmp_path / "instance.json"
    exits = collections.Counter()
    for seed in SEEDS:
        path.write_text(malformed_text(seed), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["report", str(path)])
        assert code in (0, 1, 2), (seed, MUTATIONS[seed % len(MUTATIONS)], code)
        exits[MUTATIONS[seed % len(MUTATIONS)], code] += 1
    for kind in MUTATIONS:  # every kind is tried, and each is rejected at least once
        assert exits[kind, 2] > 0, kind

"""Every report, refusal and exit code in tests/golden/report_corpus.json is unchanged.

The corpus runs twice in-process: first from an empty factorization memo,
then with the memo the first pass filled.  A change that moves a report on
purpose regenerates the digests with ``PYTHONPATH=src python
tests/golden/report_corpus.py``, which names each entry that moved.
"""

import importlib.util
import json
from pathlib import Path

from kcalc import arith

SCRIPT = Path(__file__).resolve().parent / "golden" / "report_corpus.py"
_spec = importlib.util.spec_from_file_location("report_corpus", SCRIPT)
report_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_corpus)


def test_reports_match_the_pinned_corpus_cold_and_warm():
    entries = json.loads(report_corpus.CORPUS.read_text(encoding="utf-8"))
    assert len(entries) == 476

    def moved():
        return [
            report_corpus.label(entry)
            for entry in entries
            if report_corpus.pinned(entry) != entry
        ]

    arith._factor_pairs.cache_clear()
    assert moved() == []
    filled = arith._factor_pairs.cache_info()
    assert moved() == []
    after = arith._factor_pairs.cache_info()
    assert filled.misses > 0 and after.misses == filled.misses

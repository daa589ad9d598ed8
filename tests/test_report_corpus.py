"""Every report, refusal and exit code in tests/golden/report_corpus.json is unchanged.

The corpus runs twice in-process: first from an empty factorization memo,
then with the memo the first pass filled.  It runs twice more with one kept
parser per named subcommand, so that parsing is shown to leave a parser as it
found it.  A change that moves a report on purpose regenerates the digests
with ``PYTHONPATH=src python tests/golden/report_corpus.py``, which names each
entry that moved.
"""

import importlib.util
import json
from pathlib import Path

from kcalc import arith, cli

SCRIPT = Path(__file__).resolve().parent / "golden" / "report_corpus.py"
_spec = importlib.util.spec_from_file_location("report_corpus", SCRIPT)
report_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_corpus)

ENTRIES = json.loads(report_corpus.CORPUS.read_text(encoding="utf-8"))


def moved() -> list[str]:
    return [report_corpus.label(entry) for entry in ENTRIES if report_corpus.pinned(entry) != entry]


def test_reports_match_the_pinned_corpus_cold_and_warm():
    assert len(ENTRIES) == 483
    arith._factor_pairs.cache_clear()
    assert moved() == []
    filled = arith._factor_pairs.cache_info()
    assert moved() == []
    after = arith._factor_pairs.cache_info()
    assert filled.misses > 0 and after.misses == filled.misses


def test_reports_match_the_pinned_corpus_with_kept_parsers(monkeypatch):
    build, kept = cli.build_parser, {}

    def kept_parser(argv=()):
        named = next((word for word in argv if word in cli._SUBCOMMANDS), None)
        if named not in kept:
            kept[named] = build(argv)
        return kept[named]

    monkeypatch.setattr(cli, "build_parser", kept_parser)
    assert moved() == []
    assert set(kept) == {None, *cli._SUBCOMMANDS}
    assert moved() == []

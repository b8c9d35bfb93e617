"""Checks on the package's source files themselves."""

import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "raagcheeger").glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=[s.name for s in SOURCES])
def test_every_module_stays_below_the_parser_token_cliff(source):
    # CPython 3.11's parser doubles its token array past 4,096 tokens, which
    # costs every compile of the module, and so every fresh import, about
    # 0.3 MB of peak memory.  Counted as the parser sees them: comments,
    # blank-line NL tokens and the encoding marker are not its tokens
    with source.open("rb") as f:
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        count = sum(1 for token in tokenize.tokenize(f.readline) if token.type not in skipped)
    assert count < 4096, f"{source.name}: {count} parser tokens"

"""README's table of result codes names every code the package raises or the CLI writes."""

import re
from pathlib import Path

from akhabit.errors import AkHabitError

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "akhabit"

#: codes ``cli`` writes itself, not through an exception class or a ``code=`` argument
CLI_CODES = {"lambda:nonpositive", "io:write", "parse:values", "parse:args"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _package_codes() -> set[str]:
    codes = {cls.code for cls in _subclasses(AkHabitError)}
    for path in SRC.glob("*.py"):
        codes.update(re.findall(r'code="([^"]+)"', path.read_text()))
    return codes | CLI_CODES


def _table_codes() -> set[str]:
    text = README.read_text()
    section = text[text.index("### Result codes") : text.index("## Tests and acceptance suite")]
    return set(re.findall(r"`([^`]+)`", section))


def test_cli_codes_are_written_by_cli():
    source = (SRC / "cli.py").read_text()
    assert all(code in source for code in CLI_CODES)


def test_readme_tables_every_result_code():
    codes = _package_codes()
    assert {"parse:scenario", "io:read", "domain:params", "oracle:infeasible"} <= codes
    missing = sorted(codes - _table_codes())
    assert not missing, f"README's result-code table lacks {missing}"

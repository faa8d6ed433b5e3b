"""The package source stays within its line cap (ROADMAP: ``src/`` stays
at or below 3,500 lines by ``wc -l``, which counts newline characters)."""

from pathlib import Path

import rainbow_tournaments

LINE_CAP = 3500


def test_package_source_within_the_line_cap():
    files = sorted(Path(rainbow_tournaments.__file__).parent.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert files
    assert lines <= LINE_CAP, (
        f"src/ has {lines} lines by wc -l; the cap is {LINE_CAP}")

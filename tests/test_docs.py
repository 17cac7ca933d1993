"""The README's statements about the public API match the package."""

import re
from pathlib import Path

import caplab

ROOT = Path(__file__).resolve().parents[1]


def test_readme_counts_the_public_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    counts = re.findall(r"`caplab\.__all__` holds (\d+) names", text)
    assert counts == [str(len(caplab.__all__))]

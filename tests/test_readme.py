"""The ``>>>`` examples in README.md run and print what they show."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(
        "".join(blocks), {}, "README.md", str(README), 0
    )
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0

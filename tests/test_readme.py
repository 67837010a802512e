"""The examples in README.md run and show what the library prints."""

from __future__ import annotations

import doctest
import json
import re
from pathlib import Path

from riordankit import cli, verify

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


def test_readme_verify_example_is_a_real_record():
    section = README.read_text().split("### The verify report", 1)[1]
    shown = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    args = cli.build_parser().parse_args(["verify"])
    real = verify.report_data(verify.run_checks(["all"], args.r_max, args.n_max))
    by_id = {record["id"]: record for record in real["checks"]}
    (record,) = shown["checks"]
    assert record == by_id["ht-central-r1-n1"]
    assert shown["summary"] == real["summary"]

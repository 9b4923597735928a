"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    tour = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(tour, "README.md quick tour", "exec"), namespace)
    assert namespace["boundary"].piece_count == 2 ** 2 - 2 ** namespace["boundary"].m

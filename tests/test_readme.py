"""The README's library quick start runs, and gives the values its comments state."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_quick_start():
    names = {}
    exec(compile(_quick_start(), f"{README}:library-quick-start", "exec"), names)
    m, prof, part = names["m"], names["prof"], names["part"]
    assert (m.conductor, m.dim) == (9, 2)
    assert names["report"].nilpotent_classes == (2, 5, 8)
    assert names["h"] == 1
    assert names["equi"].criterion_holds
    assert (prof.alpha, prof.h) == (Fraction(1, 2), 1)
    assert abs(prof.c - names["cu"].value / 3) < 1e-10
    assert (part.alpha, part.h) == (Fraction(1, 2), 1)
    counts = names["counts"]
    assert len(counts.pi) == len(counts.pi_sf) == 2 and set(counts.per_value) == {1, 2}

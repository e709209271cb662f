"""The package computes in real float64 only: complex quantities travel
packed ``[re | im]`` and every complex product is written out in real
arithmetic.  Complex dtypes stay in the tests, where they serve as oracles."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adamoge"
COMPLEX = re.compile(r"1j|complex64|complex128|np\.conj|\.real\b|\.imag\b")


def test_source_builds_no_complex_arrays():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in files
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if COMPLEX.search(line)
    ]
    assert not hits, "complex arithmetic in src:\n" + "\n".join(hits)

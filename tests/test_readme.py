"""README's Library example runs as printed, and its comments state what it returns."""

from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs_and_its_comments_hold():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    comments = {}
    for line in block.splitlines():
        code, _, note = line.partition("#")
        if note:
            comments[code.strip()] = note.strip()

    def value(code):
        return eval(code, namespace)

    assert namespace["g"].vertex_count == 221
    assert comments["g = build(p)"].startswith("221 vertices,")
    closed = value("tau_closed(p)")
    assert comments["tau_closed(p)"] == repr(closed) == "FactoredCount({2: 28, 45: 39})"
    # the oracle and the block product give the closed form's value
    assert value("tau_oracle(g)") == value("tau_blocks(g)") == value("factored_expand")(closed)
    assert type(value("average_clustering(g).average")) is Fraction
    entropy = value("entropy_limit(p).value")
    assert comments["entropy_limit(p).value"] == repr(entropy) == "5.045890769576678"

"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

import steadydim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    # lines "expression   # expected value[: explanation]"
    results = re.findall(r"^(\w[\w.]*) +# ([^:\n]+)", block, re.M)
    assert len(results) == 2
    for expression, expected in results:
        assert eval(expression, namespace) == eval(expected, vars(steadydim)), expression

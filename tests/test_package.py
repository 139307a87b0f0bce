import re
from pathlib import Path

import quadspec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from quadspec import *", namespace)  # raises AttributeError on a name that does not resolve
    assert set(quadspec.__all__) <= set(namespace)


def test_readme_library_example_runs():
    # the README's documented API must stay runnable
    section = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})

import json
import re
import subprocess
import sys
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


def test_import_loads_no_scipy():
    # the package runs on numpy alone; scipy is a test-only dependency
    source = str(Path(quadspec.__file__).resolve().parents[1])
    code = (f"import json, sys; sys.path.insert(0, {source!r}); import quadspec.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    modules = json.loads(run.stdout)
    assert "quadspec.cli" in modules
    assert [name for name in modules if name == "scipy" or name.startswith("scipy.")] == []

"""pba is dependency-free: importing it loads only the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import pba

# Run in a fresh interpreter: the test session has loaded pytest, sympy and
# hypothesis, and site hooks may load more (certifi, say) before any code
# runs, so only the modules loaded after the snapshot count.
PROBE = """
import pkgutil, sys
before = set(sys.modules)
import pba
for info in pkgutil.iter_modules(pba.__path__, "pba."):
    __import__(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"pba"}))
"""


def test_importing_every_module_loads_only_the_standard_library():
    src = str(Path(pba.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"

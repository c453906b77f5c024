"""Import contract: `import quickfourier` loads only the transform core.

Each check runs in a fresh interpreter, since this process has long
since imported every module.
"""

import os
import subprocess
import sys

import quickfourier

LAZY = ("accuracy", "costmodel", "reference", "tree")
SRC = os.path.dirname(os.path.dirname(quickfourier.__file__))


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_the_core():
    out = run_fresh(
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import quickfourier\n"
        "print(*sorted(set(sys.modules) - before))\n")
    added = set(out.split())
    assert {"quickfourier.classical", "quickfourier.improved"} <= added
    assert not added & {f"quickfourier.{m}" for m in LAZY}
    assert not added & {"csv", "fractions", "decimal", "dataclasses"}


def test_research_modules_load_on_first_access():
    out = run_fresh(
        "import quickfourier\n"
        "assert callable(quickfourier.tree.build_tree)\n"
        "from quickfourier import costmodel\n"
        "assert costmodel is quickfourier.costmodel\n"
        "assert set(quickfourier.__all__) <= set(dir(quickfourier))\n"
        "for name in quickfourier.__all__:\n"
        "    getattr(quickfourier, name)\n"
        "try:\n"
        "    quickfourier.nonexistent\n"
        "except AttributeError:\n"
        "    print('ok')\n")
    assert out.split() == ["ok"]


def test_transform_subcommand_loads_no_research_module():
    # the parser's choices and the transform itself come from the package
    # core, so neither the research modules nor the standard modules only
    # costmodel and accuracy need (csv, fractions, decimal, dataclasses)
    # load beyond what numpy loads itself
    out = run_fresh(
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from quickfourier import cli\n"
        "code = cli.main(['transform', '--transform', 'rdft', '--inline', '[1,2,3,4]'])\n"
        "print(code, *sorted(set(sys.modules) - before))\n")
    code, *loaded = out.splitlines()[-1].split()  # after the spectrum
    assert code == "0"
    assert "quickfourier.cli" in loaded
    assert not set(loaded) & {f"quickfourier.{m}" for m in LAZY}
    assert not set(loaded) & {"csv", "fractions", "decimal", "dataclasses"}

"""What importing mlabeam costs: scipy loads only for the Fresnel integrals.

Importing scipy.special pulls in numpy.f2py, numpy.testing and numpy.ma
(0.23-0.40 s and 20 MB of peak RSS on a 2-core host), and scipy.interpolate
costs about another quarter second. Only the closed-form beamdepth analysis
(fresnel_cs, reached by the depth command) needs scipy, so it is imported
there, on first call.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import mlabeam
from test_samples import readme_samples

PACKAGE = Path(mlabeam.__file__).parent

# imports mlabeam, then runs each command named on the command line on its
# config file; prints the scipy modules loaded after each step
SCRIPT = """
import json, sys
import mlabeam, mlabeam.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = {"import": scipy_modules()}
for command in sys.argv[1:]:
    code = mlabeam.cli.main([command, "--config", command + ".cfg", "--out", command + ".csv"])
    assert code == 0, (command, code)
    seen[command] = scipy_modules()
print(json.dumps(seen))
"""


def _scipy_imports(tree):
    """(enclosing function name, or None at module level, module) for every
    import of scipy in a module's AST."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            found.extend((function, name) for name in names if name.split(".")[0] == "scipy")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return found


def test_scipy_loads_only_for_the_fresnel_integrals(tmp_path):
    """A fresh `import mlabeam, mlabeam.cli` loads no scipy module, nor does
    the README cutline sample; the depth sample loads scipy.special. In the
    source, no module imports scipy at module level, and the one scipy
    import is scipy.special inside fresnel_cs."""
    samples = readme_samples()
    for command in ("cutline", "depth"):
        (tmp_path / f"{command}.cfg").write_text(samples[command])
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT, "cutline", "depth"], cwd=tmp_path,
                         capture_output=True, text=True, check=True, env=env)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["cutline"] == []
    assert "scipy.special" in seen["depth"]

    imports = {(path.name, function, module) for path in sorted(PACKAGE.glob("*.py"))
               for function, module in _scipy_imports(ast.parse(path.read_text()))}
    assert not [i for i in imports if i[1] is None], "scipy imported at module level"
    assert imports == {("numerics.py", "fresnel_cs", "scipy.special")}

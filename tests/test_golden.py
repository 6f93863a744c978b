"""Golden outputs: the sha256 of stdout and the exit code of a fixed list
of CLI invocations and of the demos.

Every output of the package is deterministic, so any change to one of
these digests is a change of output.  When a change is intended, run
``PYTHONPATH=src python tests/test_golden.py`` and paste the printed
table over ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hampack.cli import main

ROOT = Path(__file__).resolve().parent.parent

# name -> construct arguments; each output is saved as <name>.code
FAMILIES = {
    "mds": ["mds", "--n", "4", "--q", "3"],
    "hamming": ["hamming", "--q", "3"],
    "cosets": ["hamming", "--q", "3", "--lambda", "2"],
    "lstar": ["lstar", "--n", "8"],
    "diag": ["diag", "--n", "6"],
    "concat": ["concat", "{diag}", "{lstar}"],
    "p96a": ["p96a"],
    "p96a_c0": ["p96a", "--cell", "c0"],
    "p96b": ["p96b", "--puncture"],
    "p96c": ["p96c"],
    "display96": ["display96", "--puncture"],
}

# (name, argv) after the constructions; "{x}" is the file of family x
RUNS = (
    [(f"verify {f}", ["verify", f"{{{f}}}", "--lambda", "2"]) for f in FAMILIES]
    + [(f"analyze {f}", ["analyze", f"{{{f}}}"]) for f in FAMILIES]
    + [
        ("partition distance", ["partition", "{p96a_c0}"]),
        ("partition split", ["partition", "{p96a_c0}", "--split", "{p96a}", "--json"]),
        ("partition from-unitrade", ["partition", "{p96a}", "--from-unitrade"]),
        ("classify", ["classify", "--n", "6"]),
        ("bound binary", ["bound", "--n", "9", "--lambda", "2"]),
        ("bound even", ["bound", "--n", "10", "--lambda", "2", "--even-weight", "--json"]),
        ("bound mds", ["bound", "--n", "4", "--q", "9", "--lambda", "4"]),
    ]
)

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def cli_outputs(workdir: Path) -> dict[str, tuple[int, str]]:
    """Exit code and stdout digest of every construct and RUNS invocation."""
    files = {name: str(workdir / f"{name}.code") for name in FAMILIES}
    results = {}
    for name, args in FAMILIES.items():
        rc, out = _cli(["construct"] + [a.format(**files) for a in args])
        Path(files[name]).write_text(out)
        results[f"construct {name}"] = (rc, _digest(out))
    for name, argv in RUNS:
        rc, out = _cli([a.format(**files) for a in argv])
        results[name] = (rc, _digest(out))
    return results


def demo_output(demo: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, _digest(proc.stdout)


GOLDEN = {
    'construct mds': (0, '2e0ce90a667e5e0b7d836af364b4ca23cf2c56e3356fe12fd4e2bde9ad01c213'),
    'construct hamming': (0, '2e960f9140128caeb953984b6b02f5d7f457ebfaafcea2d1f9184f168b6b4a91'),
    'construct cosets': (0, '270ad96facb3316c9ffb5dd0a1e95f1a9e0fd44321d13d3de7e899b664a0845a'),
    'construct lstar': (0, 'e7b5914da9b59de6c4c2e5dfdff9ce7ebae2d05cbb9fe50a458afbac0bfa1941'),
    'construct diag': (0, 'b9bcead386ea72a9d7c65f633bbf5528c8301d19dca304382cc2914db7207c89'),
    'construct concat': (0, 'b59a8fcb9000caa62295143faa46bafd284aa189b0bdc19a844fefd395fea813'),
    'construct p96a': (0, '59ba4f06fecd98bc6b628619dd7abb74a3f71a3e79124b2931ed1c9a47930c0c'),
    'construct p96a_c0': (0, '2a04110c3ac27fd50bc5cec4a2dfa96f584c28f909990af7a035c0d2270d727d'),
    'construct p96b': (0, '1e84d82173b9fa618c8614bed6d57e5b88183a62c44b01b865cb3dba53ebab9b'),
    'construct p96c': (0, '306304f47a79cc99ad1e20aa0162ecfc4f1307b41b56911d2fa036866cf2d786'),
    'construct display96': (0, '00dde35b1b91cc99d8f29538264e59e1e226710efe9136874df58cc62307143d'),
    'verify mds': (1, '302e1b0fbf1df3b025d87a020d561c3a606bb1f852aeff4ece5e0110965c5698'),
    'verify hamming': (0, 'a59a2b0e03a84ab11a085b9e5be8e271affbe7cb6bf363ed0e4c9341cb1b6f7a'),
    'verify cosets': (0, '4930ac664a40238eab2529b37da6451b8315b401b6c56ef632e7852de290001a'),
    'verify lstar': (0, '6692a76d338fa80685740242612dc28edd179f139a570faa17e4027d26d095dd'),
    'verify diag': (0, 'b0fc7819d62415ba4413f13cfc3ceea48de90488f17adfae8a4998a60e8c8749'),
    'verify concat': (0, '0650d06c7181cab2840c19d8cbc1b938221df600f6ee30559295e79449101efe'),
    'verify p96a': (0, '537598934a48055b341f0d2904ffa60243bcf787a75450daad311adacb667eb4'),
    'verify p96a_c0': (0, '7402879dfafd3d7f879a86ff85b080df7b9b97be82509bc189f37129ada8ed11'),
    'verify p96b': (0, '5c60e2cafd188bf8311a626206457a77605f9cbc8f4e6c57b110d569fd0cbd82'),
    'verify p96c': (0, '537598934a48055b341f0d2904ffa60243bcf787a75450daad311adacb667eb4'),
    'verify display96': (0, '51e6421cc19c4aafc38f80400b6a9086ae99fbfc733895233671a62ac57f8558'),
    'analyze mds': (0, 'c98c9a8d76e5e88bae2f63cec4fbb5c89a6a454451c33758cc5e0504a06e9ac6'),
    'analyze hamming': (0, '61fa320d0e3734f4c42acc745cc38d00fb5312510f926309a8954ab3ebc913a4'),
    'analyze cosets': (0, '862ac85c30d580e0f64e59819282b4488bb26ff9f7fcbb7007b0b5856452e94b'),
    'analyze lstar': (0, '1379cb3f02a7a9cc3d76f4ab7703c118e320d672e8ac61ac0caae62f25440d4e'),
    'analyze diag': (0, 'aaa6b61cab961e7e6a1ea09deb700d19a541e83262709530b815798ae7b82b86'),
    'analyze concat': (0, '88e0c8cd7ac9b3286b8335a0d77001973dc6b3f6fcc9abe492f2c2ad3de8ff47'),
    'analyze p96a': (0, 'e582c474b87d62ce78c333525ce3cdfc195120afa56df98b1007df51dbeec916'),
    'analyze p96a_c0': (0, '5bc60dea1939d550d3aa5db24a374477da2fd1b07a870605bd0a8ffd76f8861a'),
    'analyze p96b': (0, '4ea8c46e9dbbf73db319cb97116ce51cef48f1ff8a14f2c0b8e50f6408dea87d'),
    'analyze p96c': (0, '7527c2fbacbe9b189740d8ddec049d217d42b1770df5952f2ebfb8a26a595abc'),
    'analyze display96': (0, '42d8d00abbdc2ef20c6870da28a78193f17edfc022eee5e417ab7d71a0cb3143'),
    'partition distance': (0, '3bc0f4475c221ba77087f9b395a9b48c6816efad91b5f92b42179c9c29f294a3'),
    'partition split': (0, '590baac88af3a3c782f9b816fb652defb340708ce0307ad0f2822a91b1995f22'),
    'partition from-unitrade': (0, 'e435f02b6fd8d5bcc2092cb54b12cc72e32717b0023baa9408f75d34e67b0a29'),
    'classify': (0, '751c6a5f8c1a443d53d60f945e59d4874e1f56091e69f1cec78d701aa7610983'),
    'bound binary': (0, '1f4d206521ba24706f35c1ee62cd5ec9780ccb4a682d109712112424a27f6d66'),
    'bound even': (0, '0d8ccd37cbd6df88781d53adce59ad748ff99bf1993207b1d40ce8688fc4e54f'),
    'bound mds': (0, '194b771a0f91d0a8daa35ad26b4d90b0b30a88d910be169dacf80cf6533d6d4c'),
    'demo bounds_table.py': (0, '033254135ea6dd4af821ecf440fbf95daeca995521b018a3d804e5a06d974f59'),
    'demo classify_small.py': (0, 'e25991bff2c47720c0ab1a8d0b1c73a92d7b5f8490e4ccfc0697cf8d42d4b32b'),
    'demo optimal_96.py': (0, '19fe9167da339dc8c243055d0b5327f9cf20df340576307fbf34562297217979'),
    'demo partitions_demo.py': (0, 'f9696d2fed8d83f3c022212930f8b01fdbd0a3c35133c788024875b49921fbdb'),
    'demo unitrade_zoo.py': (0, 'fe1ae3503612162faf2b1172a7c7963af8deae4e527c9804e3e6629e1633cc31'),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return cli_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [f"construct {f}" for f in FAMILIES] + [name for name, _ in RUNS])
def test_cli_output(outputs, name):
    assert outputs[name] == GOLDEN[name]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output(demo):
    assert demo_output(demo) == GOLDEN[f"demo {demo}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = cli_outputs(Path(tmp))
    table.update({f"demo {demo}": demo_output(demo) for demo in DEMOS})
    print("GOLDEN = {")
    for name, value in table.items():
        print(f"    {name!r}: {value!r},")
    print("}")

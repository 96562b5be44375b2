"""The test settings, the package's import footprint and its documented
input schema: a failing property test must report its falsifying example
under the repository's pytest configuration, the CLI loads no module it does
not use, README names every key an input record takes and every public
``Committee`` method, and README's sweep memory bound matches the code."""

import dataclasses
import inspect
import os
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

from posp import econ, protocol, sim

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_failing.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example: test_fails(" in out


def test_cli_import_skips_key_serialization():
    # PublicKey reads a key's raw bytes with public_bytes_raw; going through
    # public_bytes loads the serialization module and about 20 more
    code = ("import sys, posp.cli; "
            "print('cryptography.hazmat.primitives.serialization' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def readme_names() -> set[str]:
    """The words inside README's backtick spans, outside fenced code blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return {word for span in re.findall(r"`([^`]+)`", text)
            for word in re.findall(r"\w+", span)}


def test_readme_names_every_input_key():
    keys = {f.name for record in (sim.ScenarioConfig, protocol.NetworkConfig, sim.ExecStrategy,
                                  econ.EconomicParams)
            for f in dataclasses.fields(record)}
    keys |= set(inspect.signature(econ.EconomicParams.single_validator).parameters)
    assert keys - readme_names() == set()


def test_readme_names_every_committee_method():
    methods = {name for name, member in vars(protocol.Committee).items()
               if not name.startswith("_") and inspect.isfunction(member)}
    assert methods - readme_names() == set()


def test_readme_states_the_sweep_memory_bound():
    # a sweep keeps each trial's u as one "Q" item of a shared map, for at
    # most MAX_SWEEP_TRIALS trials
    text = " ".join(README.read_text().split())
    per_trial = array("Q").itemsize
    mib = per_trial * sim.MAX_SWEEP_TRIALS / (1 << 20)
    assert f"{per_trial} bytes per trial, at most {mib:g} MiB" in text

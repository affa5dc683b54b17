"""Smoke tests: every experiment driver in scripts/ runs to success on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

TINY_ARGS = {
    "approx_quality.py": ["--instances", "2"],
    "hardness_demo.py": ["--k1", "3", "--budget", "5"],
    "run_verification_corpus.py": ["--channels", "3"],
}


def test_every_script_has_tiny_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_main_succeeds(name, capsys):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(TINY_ARGS[name]) == 0
    assert capsys.readouterr().out

"""Smoke tests: every experiment driver in scripts/ runs to success on tiny inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

from bcc import random_channel, save_channel
from bcc.cli import main as bcc_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

TINY_ARGS = {
    "approx_quality.py": ["--instances", "2"],
    "hardness_demo.py": ["--k1", "3", "--budget", "5"],
    "run_verification_corpus.py": ["--channels", "3"],
}


def test_every_script_has_tiny_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_main_succeeds(name, capsys):
    assert load_script(name).main(TINY_ARGS[name]) == 0
    assert capsys.readouterr().out


def test_verification_corpus_prints_every_solve_check(tmp_path, capsys):
    path = tmp_path / "channel.json"
    save_channel(random_channel(3, 3, 3, seed=0), path)
    assert bcc_main(["solve", str(path), "--k1", "2", "--k2", "2", "--which", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in report["checks"]] + ["dqg_equivalence"]
    assert len(names) == 9

    name = "run_verification_corpus.py"
    assert load_script(name).main(TINY_ARGS[name]) == 0
    printed = capsys.readouterr().out.split()
    assert [n for n in names if n not in printed] == []

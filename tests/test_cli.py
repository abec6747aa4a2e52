"""The ``sda`` command line, run as ``python -m sdachain.cli`` in a
subprocess: ``sim run`` on a scenario file, and ``chain verify`` on the
chain it writes and on a copy of that chain cut inside its last record."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

from sdachain.ledger import load_chain
from sdachain.netsim import run_scenario, scenario_to_json, uct_scenario

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def sda(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "sdachain.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.fixture(scope="module")
def uct_run(tmp_path_factory):
    """(scenario file, the CLI's output directory, the completed run)."""
    tmp = tmp_path_factory.mktemp("cli")
    scenario = tmp / "uct.json"
    scenario.write_text(json.dumps(scenario_to_json(uct_scenario(1))))
    out = tmp / "out"
    return scenario, out, sda("sim", "run", "--scenario", str(scenario),
                              "--out", str(out))


def test_sim_run_writes_the_scenarios_chain(uct_run, tmp_path):
    _, out, done = uct_run
    assert done.returncode == 0, done.stderr
    direct = run_scenario(uct_scenario(1), str(tmp_path))
    assert ((out / "chain.log").read_bytes()
            == (tmp_path / "chain.log").read_bytes())
    assert ((out / "report.json").read_bytes()
            == (tmp_path / "report.json").read_bytes())
    assert done.stdout.split() == ["height", str(direct.height),
                                   "state_root", direct.state_root]


def test_chain_verify_accepts_the_chain(uct_run):
    _, out, _ = uct_run
    path = str(out / "chain.log")
    done = sda("chain", "verify", path)
    assert (done.returncode, done.stdout) == (0, f"{path}: ok\n")


def test_chain_verify_reports_a_cut_record(uct_run, tmp_path):
    """The chain cut inside its last record (index 30): the 30 records
    before it verify, so 30 is the first bad height."""
    _, out, _ = uct_run
    assert len(load_chain(str(out / "chain.log"))) == 31
    raw = (out / "chain.log").read_bytes()
    cut = tmp_path / "chain.log"
    cut.write_bytes(raw[:-10])
    done = sda("chain", "verify", str(cut))
    assert (done.returncode, done.stdout) == (
        1, f"{cut}: first bad height 30\n")


def test_unreadable_file_exits_1(tmp_path):
    for args in (("chain", "verify", str(tmp_path / "none.log")),
                 ("sim", "run", "--scenario", str(tmp_path / "none.json"),
                  "--out", str(tmp_path / "out"))):
        done = sda(*args)
        assert done.returncode == 1
        assert done.stderr.startswith("sda: ")


def test_bad_scenario_exits_1(uct_run, tmp_path):
    scenario, _, _ = uct_run
    d = json.loads(scenario.read_text())
    del d["seed"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    done = sda("sim", "run", "--scenario", str(bad), "--out",
               str(tmp_path / "out"))
    assert done.returncode == 1
    assert "seed" in done.stderr


def test_usage_error_exits_2():
    assert sda("chain").returncode == 2
    assert sda("chain", "inspect", "x").returncode == 2

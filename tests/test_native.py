"""The stepping loops' C build: in use wherever a C compiler is found, and
around it, in processes of their own, the Python fallback and the cache.

A host with cc on PATH must run the C loops, so that a broken build
cannot pass this suite in pure Python. A host without one, or whose
library fails the build-time bit check, even by raising, runs the Python
loops and writes the golden uct bytes. An import on a warm cache starts
no process, a damaged cache file is never loaded as it is, a change to
what the bit check compares the library against builds and checks it
again, and a build leaves no library of another key behind. Each
subprocess runs on a copy of src/sdachain in tmp_path, so it starts from
an empty cache.
"""
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from sdachain import astro
from test_golden import GOLDEN, _sha256_file

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdachain"
HAS_CC = shutil.which("cc") is not None
# the file name a copy of the package caches its library under
LIBRARY = os.path.basename(astro._library_path(astro._c_source()))


def copy_package(root: pathlib.Path) -> pathlib.Path:
    """root, holding a copy of the sdachain package with no __pycache__."""
    shutil.copytree(SRC, root / "sdachain",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run(root: pathlib.Path, code: str, *args: str, **env) -> list:
    """The words python -c code args prints, importing root's sdachain."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(root), **env},
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


_IMPORT = "import sdachain.astro as a\nprint(a.NATIVE_LIBRARY)\n"
# _IMPORT, then how many times it called _grid_bits
_COUNT_CHECKS = ("import sys\n"
                 "checks = []\n"
                 "def count(frame, event, arg):\n"
                 "    if event == 'call' and frame.f_code.co_name == "
                 "'_grid_bits':\n"
                 "        checks.append(1)\n"
                 "sys.setprofile(count)\n"
                 + _IMPORT +
                 "sys.setprofile(None)\n"
                 "print(len(checks))\n")
_UCT = (_IMPORT + "import sys\n"
        "from sdachain.netsim import run_scenario, uct_scenario\n"
        "print(run_scenario(uct_scenario(1), sys.argv[1]).state_root)\n")


def assert_python_loops_write_golden(root: pathlib.Path,
                                     out_dir: pathlib.Path, **env) -> None:
    """root's sdachain, imported with env, runs the Python loops, caches
    no library, and writes the golden uct bytes to out_dir."""
    out = run(root, _UCT, str(out_dir), **env)
    assert out[0] == "None"
    assert not list((root / "sdachain" / "__pycache__").glob("_stepping.*"))
    assert (_sha256_file(out_dir / "chain.log"),
            _sha256_file(out_dir / "report.json"),
            out[1]) == GOLDEN["uct"][1:]


@pytest.fixture(scope="module")
def warm(tmp_path_factory) -> pathlib.Path:
    """A package copy whose cache holds the library, where cc is found."""
    root = copy_package(tmp_path_factory.mktemp("warm"))
    run(root, _IMPORT)
    return root


def test_native_loops_in_use_where_cc_is_found():
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: the Python loops run")
    assert astro.NATIVE_LIBRARY is not None
    assert os.path.basename(astro.NATIVE_LIBRARY) == LIBRARY


def test_no_compiler_runs_the_python_loops(tmp_path):
    root = copy_package(tmp_path / "src")
    (tmp_path / "bin").mkdir()      # PATH with no cc on it
    assert_python_loops_write_golden(root, tmp_path / "out",
                                     PATH=str(tmp_path / "bin"))


def test_a_check_that_raises_runs_the_python_loops(tmp_path):
    # a library whose divisor test always jumps raises ZeroDivisionError
    # on the check grid's first step, which fails the check
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: nothing is built")
    root = copy_package(tmp_path / "src")
    source = root / "sdachain" / "astro.py"
    test = "({s[1]} == 0.0) goto divided;"
    assert test in source.read_text()
    source.write_text(source.read_text().replace(test, "(1) goto divided;"))
    assert_python_loops_write_golden(root, tmp_path / "out")


def test_a_build_removes_the_libraries_of_other_sources(tmp_path):
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: nothing is built")
    cache = copy_package(tmp_path) / "sdachain" / "__pycache__"
    cache.mkdir()
    (cache / f"_stepping.{'0' * 64}.so").write_bytes(b"an earlier library")
    assert run(tmp_path, _IMPORT) == [str(cache / LIBRARY)]
    assert [p.name for p in cache.glob("_stepping.*")] == [LIBRARY]


def test_warm_cache_import_starts_no_process(warm):
    code = ("import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('a warm-cache import started a process')\n"
            "subprocess.Popen = refuse\n" + _IMPORT)
    library = warm / "sdachain" / "__pycache__" / LIBRARY
    assert run(warm, code) == [str(library) if HAS_CC else "None"]


@pytest.mark.parametrize("old,new", [
    ("5.45, 5.45), 5e-5)", "5.45, 5.45), 4e-5)"),
    ("_CHECK_CHUNKS = (1, 9, 40, 400, 3000)",
     "_CHECK_CHUNKS = (1, 9, 40, 400, 2999)"),
    ('"    sqrt, exp = math.sqrt, math.exp",',
     '"    exp, sqrt = math.exp, math.sqrt",')],
    ids=["check-grid", "check-chunks", "python-source"])
def test_a_changed_check_builds_and_checks_again(warm, tmp_path, old, new):
    # a check grid, a chunk length or the Python loops' source changed
    # with the C source unchanged: the library cached under the old check
    # must not load; the import builds, checks and caches a new one, and
    # removes the old
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: nothing is built")
    root = tmp_path / "changed"
    shutil.copytree(warm, root)
    source = root / "sdachain" / "astro.py"
    text = source.read_text()
    assert text.count(old) >= 1
    source.write_text(text.replace(old, new))
    out = run(root, _COUNT_CHECKS)
    cache = root / "sdachain" / "__pycache__"
    assert out[0] != str(cache / LIBRARY)
    assert out[1] == "2"       # _grid_bits of the C loops and of the Python
    assert [p.name for p in cache.glob("_stepping.*")] == [
        pathlib.Path(out[0]).name]
    # and the next import loads it with no check
    assert run(root, _COUNT_CHECKS) == [out[0], "0"]


def test_damaged_cache_file_is_never_loaded_as_it_is(warm, tmp_path):
    # the built library with its SHA-256 trailer overwritten would load and
    # run; garbage would not load at all. Either way the import must
    # rebuild (here, where cc is found) or fall back, and never crash
    root = tmp_path / "damaged"
    shutil.copytree(warm, root)
    library = root / "sdachain" / "__pycache__" / LIBRARY
    if HAS_CC:
        damaged = library.read_bytes()[:-32] + bytes(32)
    else:
        library.parent.mkdir(exist_ok=True)
        damaged = b"not a library" * 100
    library.write_bytes(damaged)
    out = run(root, _IMPORT)
    if HAS_CC:
        assert out == [str(library)]
        assert library.read_bytes() != damaged
    else:
        assert out == ["None"]

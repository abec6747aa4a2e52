"""The C build of the kernels: in use wherever a C compiler is found, and
around it, in processes of their own, the Python fallback and the cache.

A host with cc on PATH must run the C kernels, so that a broken build
cannot pass this suite in pure Python. A host without one, or whose
library fails the build-time bit check, even by raising, by one
re-associated product in the C fit kernel, by a C screen that steps
backward times forward or by C loops that stop one iteration short, runs
the Python rendering and writes the golden uct bytes. An import on a
warm cache starts no process, renders no source and compiles no Python
rendering, a damaged cache file is never loaded as it is, a change to
what the bit check compares the library against, or to the check's own
code, builds and checks it again, and a build leaves no library of
another key behind. Each subprocess runs on a copy of src/sdachain in
tmp_path, so it starts from an empty cache; the warm-cache tests share
one such build. In process, the C fit kernels make the Python
rendering's bytes, or raise its exceptions, on random fits, the C screen
makes its decisions on random passes, and the wrappers both renderings
share refuse buffers that are not array('d').
"""
import math
import os
import pathlib
import shutil
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from sdachain import astro, iod
from sdachain.astro import Epoch, GroundSite
from test_golden import GOLDEN, _sha256_file

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdachain"
HAS_CC = shutil.which("cc") is not None
# the file name a copy of the package caches its library under
LIBRARY = os.path.basename(astro._library_path())


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


def count_calls(*names: str) -> str:
    """_IMPORT, then how many calls it made of functions so named."""
    return ("import sys\n"
            "calls = []\n"
            "def count(frame, event, arg):\n"
            f"    if event == 'call' and frame.f_code.co_name in {names!r}:\n"
            "        calls.append(1)\n"
            "sys.setprofile(count)\n"
            + _IMPORT +
            "sys.setprofile(None)\n"
            "print(len(calls))\n")


_COUNT_CHECKS = count_calls("_grid_bits")
# the renderers, and the exec of the Python rendering
_COUNT_RENDERS = count_calls("_python", "_c", "_python_kernels")
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
def cold_build(tmp_path_factory) -> tuple:
    """A package copy whose cache held only a library of another key, and
    what its first import printed: the library in use and the renders it
    made. The warm-cache tests share the library that import built."""
    root = copy_package(tmp_path_factory.mktemp("warm"))
    cache = root / "sdachain" / "__pycache__"
    cache.mkdir()
    (cache / f"_stepping.{'0' * 64}.so").write_bytes(b"an earlier library")
    return root, run(root, _COUNT_RENDERS)


@pytest.fixture(scope="module")
def warm(cold_build) -> pathlib.Path:
    """A package copy whose cache holds the library, where cc is found."""
    return cold_build[0]


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


def test_a_reassociated_c_fit_kernel_runs_the_python_loops(tmp_path):
    # one product of the reduced model's rotation, re-associated in the C
    # rendering only, must fail the build-time check
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: nothing is built")
    root = copy_package(tmp_path / "src")
    source = root / "sdachain" / "astro.py"
    text = source.read_text()
    render, product = 'lines.append(pad + s + ";")', "sO * so * ci"
    assert text.count(render) == 1 and product in text
    source.write_text(text.replace(render, (
        f'lines.append(pad + s.replace("{product}", "sO * (so * ci)")'
        ' + ";")')))
    assert_python_loops_write_golden(root, tmp_path / "out")


def test_a_c_screen_stepping_backward_forward_runs_the_python_loops(tmp_path):
    # the screen predicting a backward time's state with the forward
    # remainder step, in the C rendering only, must fail the build-time
    # check
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: nothing is built")
    root = copy_package(tmp_path / "src")
    source = root / "sdachain" / "astro.py"
    text = source.read_text()
    render, statement = 'lines.append(pad + s + ";")', '"h = -rem"'
    assert text.count(render) == 1 and text.count(statement) == 1
    source.write_text(text.replace(render, (
        'lines.append(pad + s.replace("h = -rem", "h = rem") + ";")')))
    assert_python_loops_write_golden(root, tmp_path / "out")


def test_a_c_loop_one_iteration_short_runs_the_python_loops(tmp_path):
    # every counted loop of the C rendering, and only of the C, stopping
    # one iteration early must fail the build-time check
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: nothing is built")
    root = copy_package(tmp_path / "src")
    source = root / "sdachain" / "astro.py"
    text = source.read_text()
    bound = "{name} < {stop}; "
    assert text.count(bound) == 1
    source.write_text(text.replace(bound, "{name} < ({stop}) - ({step}); "))
    assert run(root, _COUNT_CHECKS) == ["None", "2"]
    assert_python_loops_write_golden(root, tmp_path / "out")


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


def test_a_build_removes_the_libraries_of_other_sources(cold_build):
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: nothing is built")
    root, out = cold_build
    cache = root / "sdachain" / "__pycache__"
    assert out[0] == str(cache / LIBRARY)
    assert [p.name for p in cache.glob("_stepping.*")] == [LIBRARY]


def test_warm_cache_import_starts_no_process(warm):
    code = ("import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('a warm-cache import started a process')\n"
            "subprocess.Popen = refuse\n" + _IMPORT)
    library = warm / "sdachain" / "__pycache__" / LIBRARY
    assert run(warm, code) == [str(library) if HAS_CC else "None"]


def test_warm_cache_import_renders_and_compiles_no_kernel(cold_build):
    # a cold import renders both languages and compiles the Python to
    # check the C against; a cache hit does neither
    if not HAS_CC:
        pytest.skip("no C compiler on PATH: the Python rendering runs")
    root, cold = cold_build
    assert int(cold[1]) > 0
    library = root / "sdachain" / "__pycache__" / LIBRARY
    assert run(root, _COUNT_RENDERS) == [str(library), "0"]


@pytest.mark.parametrize("old,new", [
    ("5.45, 5.45), 5e-5)", "5.45, 5.45), 4e-5)"),
    ("_CHECK_CHUNKS = (1, 9, 40, 400, 3000)",
     "_CHECK_CHUNKS = (1, 9, 40, 400, 2999)"),
    ('f"{pad}for _ in range({s[2]}):",',
     'f"{pad}for _unused in range({s[2]}):",'),
    ("0.4 * h", "0.5 * h")],
    ids=["check-grid", "check-chunks", "python-source", "check-code"])
def test_a_changed_check_builds_and_checks_again(warm, tmp_path, old, new):
    # a check grid, a chunk length, the Python loops' source or the
    # remainder step _grid_bits takes changed with the C source unchanged:
    # the library cached under the old check must not load; the import
    # builds, checks and caches a new one, and removes the old
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


def fit_case(draw) -> tuple:
    """Random reduced-model fit inputs: elements (some outside the
    KeplerianElements domain, some on its e and i bounds, some whose
    Kepler solve does not converge), an epoch, and records packed as
    iod._fit_records packs them, AZEL and RADEC, with a range and
    without."""
    def near(*values):
        return st.sampled_from(values) | st.floats(min(values), max(values))
    x = [draw(near(0.5, 1.0, 6500.0, 4e4)),
         draw(near(-1e-6, 0.0, 1e-6, 0.99, 1.0 - 1e-10)),
         draw(near(0.0, 1e-6, math.pi - 1e-6, math.pi, 3.2)),
         draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)),
         draw(near(-10.0, 0.0, 1e-12, 1e-5 + 1e-12, 10.0))]
    t0 = draw(st.floats(-1e5, 1e5))
    times, fields = array("d"), array("d")
    for _ in range(draw(st.integers(1, 6))):
        t = draw(st.floats(-1e5, 1e5))
        site = GroundSite("S", draw(st.floats(-1.5, 1.5)),
                          draw(st.floats(-math.pi, math.pi)),
                          draw(st.floats(0.0, 3.0)))
        rs, basis = astro.site_frame(site, Epoch(t))
        times.append(t)
        fields.extend(astro._fit_record(
            draw(st.floats(0.0, 2.0 * math.pi)),
            draw(st.floats(-math.pi / 2, math.pi / 2)),
            draw(st.none() | st.floats(0.0, 5e4)),
            (rs, basis, draw(st.booleans()))))
    return x, t0, times, fields


def outcome(kernel, *args) -> tuple:
    """What a fit kernel makes of args: its bytes, the column it cannot
    give, or its exception's type and text."""
    try:
        got = kernel(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, tuple):
        return ("column", got[1]) if got[0] is None else got[0].tobytes()
    return array("d", got).tobytes()


@pytest.mark.skipif(astro.NATIVE_LIBRARY is None,
                    reason="no checked C library: only the Python runs")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.composite(fit_case)(), st.floats(-1e4, 1e4) | st.just(0.0))
def test_c_fit_kernels_match_the_python_renderings(case, offset):
    x, t0, times, fields = case
    args = (x, iod._MODEL_STEPS, t0, astro.J2_EARTH, times, fields)
    _, _, positions, residuals, jacobian, _ = astro._python_kernels()
    assert (outcome(astro._fit_jacobian, *args)
            == outcome(jacobian, *args))
    # positions from the model where it gives them, else at the sites,
    # off by offset km (at the sites a zero offset is a zero divisor)
    try:
        p = positions(x, t0, astro.J2_EARTH, times)
    except (ValueError, astro.KeplerConvergenceError):
        stride, site = len(astro._FIT_FIELDS), astro._FIT_FIELDS.index("sx")
        p = [fields[stride * r + site + c]
             for r in range(len(times)) for c in range(3)]
    p = array("d", (v + offset for v in p))
    assert (outcome(astro._fit_residuals, fields, p)
            == outcome(residuals, fields, p))


def test_fit_kernels_refuse_malformed_buffers():
    # both renderings' fit kernels take array('d') buffers, checked by the
    # wrappers they share: a list or an array of floats is refused
    times, fields = astro._check_records()
    x = astro._CHECK_FITS[0][0]
    kernel_sets = {"python": astro._python_kernels()[2:5]}
    if astro.NATIVE_LIBRARY is not None:
        kernel_sets["native"] = (astro._fit_positions, astro._fit_residuals,
                                 astro._fit_jacobian)
    for name, (positions, residuals, jacobian) in kernel_sets.items():
        p = positions(x, 0.0, astro.J2_EARTH, times)
        for bad in (list, lambda buf: array("f", buf)):
            with pytest.raises(ValueError):
                positions(x, 0.0, astro.J2_EARTH, bad(times))
            with pytest.raises(ValueError):
                residuals(bad(fields), p)
            with pytest.raises(ValueError):
                residuals(fields, bad(p))
            with pytest.raises(ValueError):
                jacobian(x, iod._MODEL_STEPS, 0.0, astro.J2_EARTH, bad(times),
                         fields)


def screen_case(draw) -> tuple:
    """Random mask_screen inputs: forward and backward grids of up to 12
    points, in any direction at radii from 6 300 to 9 000 km and speeds
    to 8 km/s, with a slot not finite now and then; times up to 20
    minutes either side of the anchor epoch, some on grid points; a site
    anywhere or under the first forward point at the anchor; bstar; and
    the sine of a mask."""
    def direction():
        lat = draw(st.floats(-1.5, 1.5))
        lon = draw(st.floats(-math.pi, math.pi))
        return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
                math.sin(lat))
    t0 = draw(st.floats(-1e6, 1e6))
    grids = []
    for _ in range(2):
        grid = array("d")
        for _ in range(draw(st.integers(0, 12))):
            r, v = draw(st.floats(6300.0, 9000.0)), draw(st.floats(0.0, 8.0))
            grid.extend([r * c for c in direction()]
                        + [v * c for c in direction()])
        if grid and draw(st.booleans()):
            grid[draw(st.integers(0, len(grid) - 1))] = draw(
                st.sampled_from((math.nan, math.inf, -math.inf)))
        grids.append(grid)
    site = GroundSite("S", draw(st.floats(-1.5, 1.5)),
                      draw(st.floats(-math.pi, math.pi)),
                      draw(st.floats(0.0, 3.0)))
    forward = grids[0]
    if (len(forward) and all(map(math.isfinite, forward[:3]))
            and draw(st.booleans())):
        x, y, z = forward[:3]
        site = GroundSite("S", math.atan2(z, math.hypot(x, y)),
                          math.atan2(y, x) - astro.GMST_J2000
                          - astro.EARTH_ROT * t0)
    times = array("d", (t0 + draw(st.floats(-1200.0, 1200.0)
                                  | st.integers(-13, 13).map(
                                      lambda k: k * astro.STEP_S))
                        for _ in range(draw(st.integers(1, 30)))))
    return (forward, grids[1], times, t0,
            draw(st.just(0.0) | st.floats(0.0, 1e-2)), site,
            draw(st.floats(0.0, 0.99)))


@pytest.mark.skipif(astro.NATIVE_LIBRARY is None,
                    reason="no checked C library: only the Python runs")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.composite(screen_case)())
def test_c_screen_matches_the_python_rendering(case):
    (m, kept), (want_m, want) = (astro._mask_screen(*case),
                                 astro._python_kernels()[5](*case))
    assert (m, kept.tobytes()) == (want_m, want.tobytes())

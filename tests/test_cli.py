import ast
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import supnorm
from supnorm import counting
from supnorm.arithmetic import SquarefreeModulus
from supnorm.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_kloosterman_json(runner):
    res = runner.invoke(main, ["kloosterman", "--m", "1", "--n", "1", "--c", "3"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["re"] == pytest.approx(-1.0)
    assert rep["weil_ratio"] <= 1.0


def test_kloosterman_rejects_incompatible_character(runner):
    res = runner.invoke(main, ["kloosterman", "--m", "1", "--n", "1", "--c", "7",
                               "--char", "quadratic:5"])
    assert res.exit_code == 2


def test_bessel_eval(runner):
    res = runner.invoke(main, ["bessel", "--fn", "J", "--order", "2", "--y", "3.0"])
    assert res.exit_code == 0
    from scipy import special
    assert json.loads(res.output)["value"] == pytest.approx(float(special.jv(2, 3.0)))


def test_bessel_requires_args(runner):
    assert runner.invoke(main, ["bessel", "--fn", "J"]).exit_code == 2
    assert runner.invoke(main, ["bessel", "--fn", "Kimag", "--y", "1"]).exit_code == 2


def test_bessel_verify_csv(runner):
    res = runner.invoke(main, ["bessel", "verify"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "property,constant,limit,passed"
    assert len(lines) == 7


def test_transform_both_methods(runner):
    res = runner.invoke(main, ["transform", "--a", "10", "--b", "2", "--t", "1"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["rel_error"] < 1e-6
    assert rep["closed"] == pytest.approx(rep["quadrature"], rel=1e-6)


def test_transform_requires_exactly_one_spectral_flag(runner):
    assert runner.invoke(main, ["transform", "--a", "10", "--b", "2"]).exit_code == 2
    assert runner.invoke(
        main, ["transform", "--a", "10", "--b", "2", "--k", "4", "--t", "1"]).exit_code == 2


def test_approx(runner):
    res = runner.invoke(main, ["approx", "--x", "3/7", "--h", "10"])
    rep = json.loads(res.output)
    assert (rep["a"], rep["q"]) == (3, 7)


def test_decay(runner):
    res = runner.invoke(main, ["decay", "--z", "256", "--t", "32", "--alpha", "0.3"])
    assert res.exit_code == 0
    assert json.loads(res.output)["ratio"] < 1.0


def test_count_a_with_elements(runner):
    res = runner.invoke(main, ["count", "A", "--c-scale", "1", "--s", "0", "--r", "0",
                               "--r-tilde", "0", "--u", "5", "--n-level", "5",
                               "--emit-elements"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["count"] == 1
    assert rep["elements"] == [[1, 0, 0, 0]]


def test_count_asq_is_the_square_subset(runner):
    args = ["--C", "4", "--S", "3", "--R", "3", "--r-tilde", "3", "--u", "2", "--N", "7",
            "--emit-elements"]
    inst = counting.CountingInstance(C=4, S=3, R=3, R_tilde=3, d1=1, d2=1, u=2,
                                     N=SquarefreeModulus.from_int(7))
    columns = counting.enumerate_A_columns(inst)
    plain = counting.rows(columns)
    square = counting.rows(counting.enumerate_A_square(inst, columns))
    assert 0 < len(square) < len(plain)
    for name, expected in (("A", plain), ("Asq", square)):
        res = runner.invoke(main, ["count", name, *args])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["count"] == len(expected)
        assert rep["elements"] == [list(q) for q in expected]


def test_count_a_and_asq_take_the_same_options(runner):
    def options(name):
        res = runner.invoke(main, ["count", name, "--help"])
        assert res.exit_code == 0 and f"count {name} [OPTIONS]" in res.output
        return [line.split()[0] for line in res.output.splitlines()
                if line.startswith("  --")]
    assert options("A") == options("Asq")
    assert "--emit-elements" in options("A")


def test_count_matrices_resource_cap(runner):
    res = runner.invoke(main, ["count", "matrices", "--x", "0", "--y", "0.001",
                               "--n", "20", "--n-level", "1", "--delta", "1e9"])
    assert res.exit_code == 3


@pytest.mark.parametrize("args", [
    ["count", "A", "--c-scale", "10000", "--s", "1000", "--r", "1000", "--r-tilde", "1000",
     "--u", "3", "--n-level", "7"],
    ["count", "reduce", "--l1", "2", "--l2", "3", "--c", "1000000000", "--u", "1",
     "--n-level", "5", "--r1", "50", "--r2", "50"],
    # the c > 0 box is over the cap before n, past the exact primality range, is factored
    ["count", "matrices", "--x", "0", "--y", "1", "--n", "1000000000004010000000001147",
     "--n-level", "1", "--delta", "0"],
])
def test_count_resource_cap(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert "exceeds cap" in res.output


@pytest.mark.parametrize("args", [
    ["decay", "--z", "1e12", "--t", "8", "--alpha", "0.3"],
    ["decay", "--z", "1e308", "--t", "8", "--alpha", "0.3"],
    ["vintegral", "--kind", "maass", "--t", "2", "--z", "1e20", "--t-scale", "8",
     "--alpha", "1"],
    ["vintegral", "--kind", "maass", "--t", "2", "--z", "1e308", "--t-scale", "8",
     "--alpha", "1"],
    ["vintegral", "--kind", "maass", "--t", "2", "--z", "32", "--t-scale", "8",
     "--alpha", "1e300"],
])
def test_analytic_resource_cap_comes_before_any_allocation(runner, args):
    import supnorm.oscillatory  # noqa: F401  (its imports are not the command's work)
    tracemalloc.start()
    try:
        res = runner.invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 3
    assert "exceeds cap" in res.output or "exceed cap" in res.output
    assert peak < 2 ** 20


def test_count_reduce(runner):
    res = runner.invoke(main, ["count", "reduce", "--l1", "2", "--l2", "3", "--c", "6",
                               "--u", "1", "--n-level", "5", "--r1", "50", "--r2", "50"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["congruence_violations"] == []
    assert rep["max_multiplicity"] <= rep["multiplicity_bound"]


def test_amplifier_diagonal(runner):
    res = runner.invoke(main, ["amplifier", "--l", "10", "--n-level", "5", "--seed", "1"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["support_primes"] == [11, 13, 17, 19]
    assert rep["diagonal_exact"] == 4
    assert rep["diagonal"][0] == pytest.approx(4.0)


def test_optimize_exponents(runner):
    res = runner.invoke(main, ["optimize"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["exponent_N"] == "-25/914"
    assert rep["exponent_t_star"] == "9979/1828"
    assert rep["balanced_term_dominates"] is True


def test_optimize_hybrid(runner):
    res = runner.invoke(main, ["optimize", "hybrid"])
    rep = json.loads(res.output)
    assert rep["final_exponent"] == "-1/2269"
    assert rep["weights"] == ["37/2269", "2232/2269"]


def test_verify_unmatched_selector_is_usage_error(runner):
    res = runner.invoke(main, ["verify", "--selector", "kloostermann/*"])
    assert res.exit_code == 2
    assert "selector 'kloostermann/*' matches no property" in res.output
    assert "kloosterman/weil-reference" in res.output


def test_verify_deterministic_and_atomic(runner, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        res = runner.invoke(main, ["verify", "--selector", "exponents/*",
                                   "--seed", "5", "--output", str(p)])
        assert res.exit_code == 0
    assert p1.read_bytes() == p2.read_bytes()
    rep = json.loads(p1.read_text())
    assert rep["seed"] == 5 and rep["version"] == 1
    assert not list(tmp_path.glob(".tmp-*"))


def test_verify_csv_format(runner):
    res = runner.invoke(main, ["verify", "--selector", "transforms/positivity",
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "id,fitted_constant,limit,passed"
    assert len(lines) == 2


def test_verify_has_no_config_option(runner):
    res = runner.invoke(main, ["verify", "--config", "x"])
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_output_into_missing_directory_is_usage_error(runner, tmp_path):
    path = tmp_path / "nodir" / "x.json"
    res = runner.invoke(main, ["verify", "--selector", "exponents/*", "--output", str(path)])
    assert res.exit_code == 2
    assert f"cannot write {path}" in res.output
    assert not path.parent.exists()


def test_output_file_takes_the_umask_mode(runner, tmp_path):
    path = tmp_path / "x.json"
    old = os.umask(0o022)
    try:
        res = runner.invoke(main, ["approx", "--x", "3/7", "--h", "10", "--output", str(path)])
    finally:
        os.umask(old)
    assert res.exit_code == 0
    assert path.stat().st_mode & 0o777 == 0o644


def _readme_cli_examples() -> list[str]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("supnorm ")]


def test_readme_cli_examples_run(runner):
    examples = _readme_cli_examples()
    assert examples
    for line in examples:
        res = runner.invoke(main, shlex.split(line)[1:])
        assert res.exit_code == 0, (line, res.output)
        try:
            json.loads(res.output)
        except json.JSONDecodeError:
            rows = list(csv.reader(io.StringIO(res.output)))
            assert len(rows) >= 2 and {len(row) for row in rows} == {len(rows[0])}, line


@pytest.mark.parametrize("args, message", [
    (["bessel", "--fn", "J", "--order", "2", "--y", "-3"], "argument must be positive, got -3.0"),
    (["bessel", "--fn", "Kimag", "--t", "1", "--y", "0"], "argument must be positive, got 0.0"),
    (["bessel", "--fn", "W", "--k", "3", "--y", "1"],
     "holomorphic weight must be an even integer >= 2, got 3"),
    (["transform", "--a", "10", "--b", "2", "--k", "3"], "k must be an even integer >= 2, got 3"),
    (["vintegral", "--kind", "holomorphic", "--k", "3", "--z", "32", "--t-scale", "8",
      "--alpha", "1.0"], "holomorphic weight must be an even integer >= 2, got 3"),
    (["kloosterman", "--m", "1", "--n", "1", "--c", "8", "--char", "quadratic:4"],
     "quadratic character requires an odd prime modulus"),
    (["kloosterman", "--m", "1", "--n", "1", "--c", "8", "--char", "trivial:4"],
     "4 is not square-free"),
    (["approx", "--x", "abc", "--h", "10"], "could not convert string to float: 'abc'"),
    (["decay", "--z", "256", "--t", "32", "--alpha", "abc"],
     "could not convert string to float: 'abc'"),
    (["amplifier", "--l", "10", "--n-level", "4"], "4 is not square-free"),
    (["count", "matrices", "--x", "0", "--y", "1", "--n", "1", "--n-level", "1",
      "--delta", "inf"], "x, y and delta must be finite"),
    (["bessel", "--fn", "Kimag", "--t", "inf", "--y", "1"], "t must be finite, got inf"),
    (["bessel", "--fn", "Kimag", "--t", "1e200", "--y", "1"],
     "frequency 1e+200 needs more than 131072 panels"),
    (["bessel", "--fn", "Ypair", "--t", "1e9", "--y", "1"],
     "frequency 2e+09 needs more than 131072 panels"),
    (["transform", "--a", "10", "--b", "2", "--t", "inf"], "t must be finite, got inf"),
    (["approx", "--x", "inf", "--h", "10"], "x must be finite, got inf"),
    (["amplifier", "--l", "inf", "--n-level", "5"], "need 2 <= lo <= hi < inf, got [2, inf]"),
    (["decay", "--z", "inf", "--t", "2", "--alpha", "0.3"], "need finite Z >= 1, got inf"),
    (["bessel", "--fn", "J", "--order", "2", "--y", "inf"],
     "order and argument must be finite, got 2.0, inf"),
    (["bessel", "--fn", "J", "--order", "nan", "--y", "1"],
     "order and argument must be finite, got nan, 1.0"),
    (["optimize", "--theta", "5"], "theta must lie in [0, 1/2], got 5"),
    (["optimize", "--theta", "-1"], "theta must lie in [0, 1/2], got -1"),
    (["bessel", "--fn", "Ypair", "--t", "300", "--y", "1"],
     "the Y pair overflows float64 at t = 300.0"),
    (["decay", "--z", "256", "--t", "2", "--alpha", "inf"], "alpha must be finite, got inf"),
    (["decay", "--z", "256", "--t", "2", "--alpha", "nan"], "alpha must be finite, got nan"),
    # (10^13 + 37)(10^14 + 31): its cofactor is past the exact primality range
    (["count", "matrices", "--x", "0", "--y", "1", "--n", "1", "--n-level",
      "1000000000004010000000001147", "--delta", "0.5"],
     "1000000000004010000000001147 is past the exact primality range"),
    # past |t| ~ 452 cosh(pi t/2) overflows as well as cosh(pi t)
    (["bessel", "--fn", "Ypair", "--t", "460", "--y", "1"],
     "the Y pair overflows float64 at t = 460.0"),
    (["count", "A", "--C", "1", "--S", "1", "--R", "1", "--r-tilde", "1", "--u", "3",
      "--N", "7", "--H", "0.5"], "need finite H >= 1, got 0.5"),
    (["count", "A", "--C", "1", "--S", "1", "--R", "1", "--r-tilde", "1", "--u", "3",
      "--N", "7", "--H", "inf"], "need finite H >= 1, got inf"),
    # H is checked when the instance is built, before the box volume cap (exit 3)
    (["count", "A", "--C", "10000", "--S", "1000", "--R", "1000", "--r-tilde", "1000",
      "--u", "3", "--N", "7", "--H", "0.5"], "need finite H >= 1, got 0.5"),
    (["vintegral", "--kind", "maass", "--t", "2", "--z", "32", "--t-scale", "8",
      "--alpha", "inf"], "alpha must be positive and finite, got inf"),
    (["vintegral", "--kind", "maass", "--t", "2", "--z", "32", "--t-scale", "8",
      "--alpha", "nan"], "alpha must be positive and finite, got nan"),
    (["bessel", "--fn", "W", "--t", "1", "--y", "inf"],
     "argument must be finite, got inf"),
    (["bessel", "--fn", "W", "--k", "2", "--y", "inf"],
     "argument must be finite, got inf"),
    (["bessel", "--fn", "kernel", "--t", "1", "--y", "inf"],
     "argument must be finite, got inf"),
    (["bessel", "--fn", "kernel", "--k", "2", "--y", "inf"],
     "argument must be finite, got inf"),
    (["bessel", "--fn", "Ypair", "--t", "1", "--y", "inf"],
     "argument must be finite, got inf"),
    # the envelope Z (T ||alpha||)^-j overflows at T ||alpha|| < 1, underflows past it
    (["decay", "--z", "256", "--t", "2", "--alpha", "0.3", "--j", "2000"],
     "envelope Z (T ||alpha||)^-j = e^1027 leaves the float range"),
    (["decay", "--z", "256", "--t", "32", "--alpha", "0.3", "--j", "2000"],
     "envelope Z (T ||alpha||)^-j = e^-4518 leaves the float range"),
    # a finite y whose 4 pi y (2 pi y for the Maass W) overflows
    (["bessel", "--fn", "kernel", "--t", "3", "--y", "1e308"],
     "argument must be below 1.43e+307, got 1e+308"),
    (["bessel", "--fn", "W", "--t", "3", "--y", "1e308"],
     "argument must be below 2.86e+307, got 1e+308"),
    (["bessel", "--fn", "W", "--k", "2", "--y", "1e308"],
     "argument must be below 1.43e+307, got 1e+308"),
])
def test_library_value_errors_are_usage_errors(runner, args, message):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "Error:" in res.output and message in res.output


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate, sympy and mpmath serve only as test oracles; a cold process
    # must not pay for them
    env = {**os.environ, "PYTHONPATH": str(Path(supnorm.__file__).parents[1])}
    code = ("import sys, supnorm.cli; "
            "print(*(m in sys.modules for m in ('scipy.integrate', 'sympy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False", "False"]


@pytest.mark.parametrize("code", [
    "import supnorm.arithmetic, supnorm.counting, supnorm.kloosterman, supnorm.amplifier, "
    "supnorm.exponents",
    "from supnorm.cli import main\n"
    "try: main(['count', 'matrices', '--help'])\n"
    "except SystemExit: pass",
], ids=["exact-core", "count-matrices-help"])
def test_exact_core_and_count_commands_load_no_scipy(code):
    # scipy is for the analytic modules (specfun, transforms, oscillatory) only
    env = {**os.environ, "PYTHONPATH": str(Path(supnorm.__file__).parents[1])}
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_runtime_dependencies_are_the_third_party_imports_of_src():
    # every import under src/, function bodies included, against [project].dependencies
    tomllib = pytest.importorskip("tomllib")
    src = Path(supnorm.__file__).parent
    pyproject = src.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml beside the sources")
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"__future__", "supnorm"}
    assert declared == imported == {"numpy", "scipy", "click"}


def test_every_module_level_import_of_src_is_used():
    # a name that a top-level import binds and no code reads is a leftover
    unused = []
    for path in sorted(Path(supnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(bound - read)]
    assert unused == []


def test_version_from_a_source_checkout(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert res.output == "supnorm, version 0.1.0\n"


def test_count_matrices_at_a_large_semiprime_level(runner):
    # 998244353 * 1000000007: trial division to its square root would take ~10^9 steps
    start = time.perf_counter()
    res = runner.invoke(main, ["count", "matrices", "--x", "0", "--y", "1", "--n", "1",
                               "--n-level", str(998244353 * 1000000007), "--delta", "0.5"])
    assert res.exit_code == 0
    assert time.perf_counter() - start < 5
    assert json.loads(res.output)["M0"] == 3


def test_count_matrices_with_many_divisor_candidates(runner):
    # 4 * 10^8 passes the box cap at c = 0; scanning every a <= n for divisors
    # took ~25 s.  6 * 10^8 has 360 signed divisors, but charged as 2n of them
    # it was over the cap (exit 3)
    for n in ("400000000", "600000000"):
        start = time.perf_counter()
        res = runner.invoke(main, ["count", "matrices", "--x", "0", "--y", "1000", "--n", n,
                                   "--n-level", "1", "--delta", "0"])
        assert res.exit_code == 0, n
        assert time.perf_counter() - start < 5
        assert json.loads(res.output)["M"] == 0


def test_amplifier_over_the_sieve_cap_exits_3_at_once(runner):
    start = time.perf_counter()
    res = runner.invoke(main, ["amplifier", "--l", "1e12", "--n-level", "1"])
    assert res.exit_code == 3
    assert time.perf_counter() - start < 0.5
    assert "exceed the sieve cap" in res.output

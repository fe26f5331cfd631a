"""Single-binary command line front end.

One subcommand per module surface plus `verify`, which drives the full
property suite.  All output is machine-readable (JSON by default, CSV where a
flat table is more natural) and written atomically when a path is given.

Exit codes: 0 success, 1 property/check failure, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction

import click

from . import __version__
from . import amplifier as amp_mod
from . import counting, exponents, kloosterman
from .arithmetic import (THETA, DirichletCharacter, ResourceLimitError, SquarefreeModulus,
                         dirichlet_approximate, primes_in_interval)

EXIT_FAILURE = 1
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, exponents.Monomial):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def _atomic_write(text: str, path: str) -> None:
    """Write through a temporary file in the target directory, then rename.
    The file gets the mode a plain `open` would give under the umask, and a
    path that cannot be written is a usage error (exit 2) naming it."""
    umask = os.umask(0)  # reading the umask means setting it; restore at once
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise click.BadParameter(f"cannot write {path}: {exc.strerror or exc}",
                                     param_hint="'--output'") from None
        raise


def _write(text: str, output: str | None) -> None:
    if output:
        _atomic_write(text, output)
    else:
        click.echo(text, nl=False)


def _emit(payload, output: str | None) -> None:
    _write(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n", output)


def _emit_csv(header: list[str], rows, output: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write(buf.getvalue(), output)


@contextlib.contextmanager
def _bad_input():
    """The CLI's bad-input boundary: a library `ValueError` is a usage error
    (exit 2, raised inside the callback so click prints the subcommand's usage
    line), and a `ResourceLimitError`, such as `counting.BoxLimitError` or the
    prime sieve's cap, is a resource cap (exit 3)."""
    try:
        yield
    except ResourceLimitError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_RESOURCE)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _parse_char(spec: str | None) -> DirichletCharacter:
    """Character spec: 'trivial:N' or 'quadratic:p' (default trivial mod 1)."""
    if not spec:
        return DirichletCharacter.trivial(1)
    kind, _, arg = spec.partition(":")
    try:
        n = int(arg)
    except ValueError:
        raise click.UsageError(f"bad character spec {spec!r}")
    if kind == "trivial":
        return DirichletCharacter.trivial(n)
    if kind == "quadratic":
        return DirichletCharacter.quadratic(n)
    raise click.UsageError(f"unknown character kind {kind!r}")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad rational {text!r}")


output_option = click.option("--output", type=click.Path(dir_okay=False),
                             default=None, help="Write JSON here (atomic) instead of stdout.")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(version=__version__, prog_name="supnorm")
def main():
    """Kernels, exponential sums, counting lemmas, and the exponent optimizer."""


@main.command("kloosterman")
@click.option("--m", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--c", type=int, required=True)
@click.option("--char", "char_spec", default=None,
              help="Twisting character, 'trivial:N' or 'quadratic:p'.")
@output_option
@_bad_input()
def kloosterman_cmd(m, n, c, char_spec, output):
    """Twisted Kloosterman sum with the reference square-root bound ratio."""
    q = kloosterman.KloostermanQuery(m, n, c, _parse_char(char_spec))
    rep = kloosterman.kloosterman_weil_check(q)
    val = rep["value"]
    _emit({"re": val.real, "im": val.imag, "abs": abs(val),
           "weil_ratio": rep["ratio"], "bound": rep["bound"]}, output)


@main.group("bessel", invoke_without_command=True)
@click.option("--fn", type=click.Choice(["J", "Kimag", "Ypair", "W", "kernel"]))
@click.option("--order", type=float, default=None, help="Real order for J.")
@click.option("--t", type=float, default=None, help="Spectral parameter.")
@click.option("--k", type=int, default=None, help="Holomorphic weight for W/kernel.")
@click.option("--sign", type=click.Choice(["+", "-"]), default="+",
              help="Kernel sign (kernel only).")
@click.option("--y", type=float, default=None)
@output_option
@click.pass_context
@_bad_input()
def bessel_cmd(ctx, fn, order, t, k, sign, y, output):
    """Evaluate one special function, or `bessel verify` for the full grid."""
    if ctx.invoked_subcommand is not None:
        return
    from . import specfun
    if fn is None or y is None:
        raise click.UsageError("--fn and --y are required")
    if fn == "J":
        if order is None:
            raise click.UsageError("--order required for J")
        value = specfun.bessel_j(order, y)
    elif fn == "Kimag":
        if t is None:
            raise click.UsageError("--t required for Kimag")
        value = specfun.bessel_k_imag(t, y)
    elif fn == "Ypair":
        if t is None:
            raise click.UsageError("--t required for Ypair")
        value = specfun.bessel_y_imag_pair(t, y)
    else:
        if k is not None:
            param = specfun.ArchimedeanParameter.holomorphic(k)
        elif t is not None:
            param = specfun.ArchimedeanParameter.maass(t)
        else:
            raise click.UsageError("--k or --t required for W/kernel")
        if fn == "W":
            value = specfun.whittaker_weight(param, y)
        else:
            value = specfun.voronoi_kernel(param, sign, y)
    _emit({"fn": fn, "y": y, "value": value}, output)


@bessel_cmd.command("verify")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="CSV path (atomic); stdout otherwise.")
def bessel_verify_cmd(output):
    """Run the special-function property grid; CSV of (property, constant, limit)."""
    from . import verify
    rows = verify.specfun_rows(verify.sweep_specfun())
    _emit_csv(["property", "constant", "limit", "passed"],
              [[name, repr(float(const)), repr(limit), passed]
               for name, const, limit, passed in rows], output)
    if not all(passed for *_, passed in rows):
        sys.exit(EXIT_FAILURE)


@main.command("transform")
@click.option("--a", "--A", "a_deg", type=int, required=True)
@click.option("--b", "--B", "b_deg", type=int, required=True)
@click.option("--k", type=int, default=None, help="Holomorphic weight (even).")
@click.option("--t", type=float, default=None, help="Spectral parameter.")
@click.option("--method", type=click.Choice(["closed", "quad", "both"]), default="both")
@output_option
@_bad_input()
def transform_cmd(a_deg, b_deg, k, t, method, output):
    """Spectral transform of the test function, closed form and/or quadrature."""
    from . import transforms
    if (k is None) == (t is None):
        raise click.UsageError("exactly one of --k / --t is required")
    tf = transforms.TestFunction(a_deg, b_deg)
    rep: dict = {"A": a_deg, "B": b_deg}
    closed = quad = None
    if k is not None:
        rep["k"] = k
        if method in ("closed", "both"):
            closed = transforms.dot_transform_closed_value(tf, k)
            rep["closed_exact_over_pi"] = transforms.dot_transform_closed(tf, k)
        if method in ("quad", "both"):
            quad = transforms.dot_transform_quadrature(tf, k)
    else:
        rep["t"] = t
        if method in ("closed", "both"):
            closed = transforms.tilde_transform_closed(tf, t)
        if method in ("quad", "both"):
            quad = transforms.tilde_transform_quadrature(tf, t)
    if closed is not None:
        rep["closed"] = closed
    if quad is not None:
        rep["quadrature"] = quad
    if closed is not None and quad is not None:
        rep["rel_error"] = abs(closed - quad) / abs(closed)
    _emit(rep, output)


@main.command("approx")
@click.option("--x", required=True, help="Real number or fraction p/q.")
@click.option("--h", "--H", "h_cap", type=float, required=True)
@output_option
@_bad_input()
def approx_cmd(x, h_cap, output):
    """Continued-fraction rational approximation with denominator cap H."""
    value = _parse_rational(x) if "/" in x else float(x)
    r = dirichlet_approximate(value, h_cap)
    _emit({"x": float(value), "a": r.a, "q": r.q, "H": r.H, "beta": r.beta}, output)


@main.command("decay")
@click.option("--z", "--Z", "z_scale", type=float, required=True)
@click.option("--t", "--T", "t_scale", type=float, required=True)
@click.option("--alpha", required=True)
@click.option("--j", type=int, default=2)
@output_option
@_bad_input()
def decay_cmd(z_scale, t_scale, alpha, j, output):
    """Windowed exponential sum against the Z (T ||alpha||)^-j envelope."""
    from . import oscillatory
    aval = _parse_rational(alpha) if "/" in alpha else float(alpha)
    w = oscillatory.SmoothWindow(z_scale, t_scale)
    _emit(oscillatory.lemma4_decay_check(w, aval, j), output)


@main.command("vintegral")
@click.option("--kind", type=click.Choice(["holomorphic", "maass"]), required=True)
@click.option("--k", type=int, default=None)
@click.option("--t", type=float, default=None)
@click.option("--sign", type=click.Choice(["+", "-"]), default="+")
@click.option("--z", "--Z", "z_scale", type=float, required=True)
@click.option("--t-scale", "--T", type=float, required=True)
@click.option("--alpha", type=float, required=True)
@output_option
@_bad_input()
def vintegral_cmd(kind, k, t, sign, z_scale, t_scale, alpha, output):
    """Window-against-kernel integral with both envelope ratios."""
    from . import oscillatory, specfun
    if kind == "holomorphic":
        if k is None:
            raise click.UsageError("--k required for holomorphic")
        param = specfun.ArchimedeanParameter.holomorphic(k)
    else:
        if t is None:
            raise click.UsageError("--t required for maass")
        param = specfun.ArchimedeanParameter.maass(t)
    w = oscillatory.SmoothWindow(z_scale, t_scale)
    val = oscillatory.voronoi_integral(w, param, sign, alpha)
    rep = {"value": val, "bound1": oscillatory.lemma6_bound1(z_scale, param.t_star, alpha)}
    if alpha * math.sqrt(z_scale / 2) >= 2 * param.t_star:
        rep["bound2_j1"] = oscillatory.lemma6_bound2(z_scale, t_scale, param.t_star, alpha, 1)
    _emit(rep, output)


@main.group("count")
def count_cmd():
    """Lattice-point and matrix counts with their envelope ratios."""


@click.command()
@click.option("--c-scale", "--C", "c_scale", type=int, required=True)
@click.option("--s", "--S", "s", type=int, required=True)
@click.option("--r", "--R", "r", type=int, required=True)
@click.option("--r-tilde", type=int, required=True)
@click.option("--d1", type=int, default=1)
@click.option("--d2", type=int, default=1)
@click.option("--u", type=int, required=True)
@click.option("--n-level", "--N", "n_level", type=int, required=True)
@click.option("--h-cap", "--H", "h_cap", type=float, default=None,
              help="Denominator cap for the rational approximation (default N).")
@click.option("--emit-elements", is_flag=True)
@output_option
@click.pass_context
@_bad_input()
def count_a_cmd(ctx, c_scale, s, r, r_tilde, d1, d2, u, n_level, h_cap, emit_elements, output):
    """Congruence box quadruples; `count Asq` keeps those with s c - r1 r2 a square."""
    which = "square" if ctx.info_name == "Asq" else "plain"
    inst = counting.CountingInstance(C=c_scale, S=s, R=r, R_tilde=r_tilde, d1=d1, d2=d2,
                                     u=u, N=SquarefreeModulus.from_int(n_level), H=h_cap)
    plain = counting.enumerate_A_columns(inst)
    rep = counting.lemma10_bound_check(inst, which, plain)
    out = {"count": rep["count"], "bound": rep["bound"], "ratio": rep["ratio"]}
    if emit_elements:
        out["elements"] = counting.rows(plain if which == "plain"
                                        else counting.enumerate_A_square(inst, plain))
    _emit(out, output)


count_cmd.add_command(count_a_cmd, "A")
count_cmd.add_command(count_a_cmd, "Asq")


@count_cmd.command("matrices")
@click.option("--x", type=float, required=True)
@click.option("--y", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--n-level", "--N", "n_level", type=int, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--emit-elements", is_flag=True)
@output_option
@_bad_input()
def count_matrices_cmd(x, y, n, n_level, delta, emit_elements, output):
    """Determinant-n integer matrices with lower-left entry divisible by N."""
    inst = counting.MatrixCountInstance(x=x, y=y, n=n,
                                        N=SquarefreeModulus.from_int(n_level), delta=delta)
    mats = counting.enumerate_R_N_matrices(inst)
    split = counting.matrix_count_split(mats)
    out = {"M0": split["M0"], "Mstar": split["Mstar"], "M": split["M"],
           "excluded_negative": split["excluded_negative"],
           "ubound": counting.ubound_value(inst)}
    if emit_elements:
        out["elements"] = mats
    _emit(out, output)


@count_cmd.command("reduce")
@click.option("--l1", type=int, required=True)
@click.option("--l2", type=int, required=True)
@click.option("--d1", type=int, default=1)
@click.option("--d2", type=int, default=1)
@click.option("--c", type=int, required=True)
@click.option("--u", type=int, required=True)
@click.option("--n-level", "--N", "n_level", type=int, required=True)
@click.option("--r1", "--R1", "r1_box", type=int, required=True)
@click.option("--r2", "--R2", "r2_box", type=int, required=True)
@output_option
@_bad_input()
def count_reduce_cmd(l1, l2, d1, d2, c, u, n_level, r1_box, r2_box, output):
    """Admissible residues for the congruence reduction, with multiplicities."""
    inst = counting.CongruenceReductionInstance(
        l1=l1, l2=l2, d1=d1, d2=d2, c=c, u=u,
        N=SquarefreeModulus.from_int(n_level), R1=r1_box, R2=r2_box)
    _emit(counting.count_admissible_a(inst), output)


@main.command("amplifier")
@click.option("--l", "--L", "l_len", type=float, required=True)
@click.option("--n-level", "--N", "n_level", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--is-variant", is_flag=True, help="Primes up to sqrt(L) instead of [L, 2L].")
@output_option
@_bad_input()
def amplifier_cmd(l_len, n_level, seed, is_variant, output):
    """Build an amplifier for a seeded random eigenvalue system; report its diagonal."""
    rng = random.Random(seed)
    mod = SquarefreeModulus.from_int(n_level)
    chi = DirichletCharacter.trivial(n_level)
    primes = primes_in_interval(2, 4 * l_len + 1)
    sys_ = amp_mod.HeckeSystem(chi, {p: rng.uniform(-2, 2) for p in primes})
    build = amp_mod.build_is_amplifier if is_variant else amp_mod.build_amplifier
    amp = build(sys_, l_len, mod)
    diag = amp_mod.amplifier_diagonal_value(sys_, amp)
    _emit({
        "L": amp.L,
        "support_primes": list(amp.lambda1),
        "support_squares": list(amp.lambda2),
        "coefficients": {str(l): v for l, v in sorted(amp.coefficients.items())},
        "diagonal": diag,
        "diagonal_exact": amp_mod.amplifier_diagonal_symbolic(sys_, amp),
    }, output)


@main.group("optimize", invoke_without_command=True)
@click.option("--theta", default=str(THETA), help="Progress-toward-Ramanujan exponent.")
@click.option("--emit-trace", is_flag=True, help="Include every term and constraint at the optimum.")
@output_option
@click.pass_context
@_bad_input()
def optimize_cmd(ctx, theta, emit_trace, output):
    """Exact-rational exponent balance; `optimize hybrid` for the combined form."""
    if ctx.invoked_subcommand is not None:
        return
    rep = exponents.theorem1_final(theta=_parse_rational(theta))
    out = {
        "H": str(rep["H"]), "L": str(rep["L"]), "q0": str(rep["q0"]),
        "exponent_N": rep["exponent_N"], "exponent_t_star": rep["exponent_t_star"],
        "second_form_N_exponent": rep["second_form_N_exponent"],
        "balanced_term_dominates": rep["balanced_term_dominates"],
        "constraints_satisfied": rep["constraints"]["satisfied"],
    }
    if emit_trace:
        out["trace"] = rep
    _emit(out, output)


@optimize_cmd.command("hybrid")
@output_option
def optimize_hybrid_cmd(output):
    """Weighted geometric-mean combination of the two final bounds."""
    _emit(exponents.theorem2_combination(), output)


@main.command("verify")
@click.option("--selector", default="*", help="fnmatch pattern over property ids.")
@click.option("--seed", type=int, default=0)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@output_option
@_bad_input()
def verify_cmd(selector, seed, fmt, output):
    """Run the deterministic property suite; exit 1 if any property fails."""
    from . import verify
    report = verify.run_verify(verify.RunConfig(seed=seed), selector)
    if fmt == "csv":
        _emit_csv(["id", "fitted_constant", "limit", "passed"],
                  [[rec["id"], repr(float(rec["fitted_constant"])),
                    repr(float(rec["limit"])), rec["passed"]]
                   for rec in report["properties"]], output)
    else:
        _emit(report, output)
    if not report["all_passed"]:
        sys.exit(EXIT_FAILURE)


if __name__ == "__main__":
    main()

"""Command-line front end.

Problem files are JSON documents::

    {"schema": 1, "nvars": 3,
     "matrix": [["z1 - z3", "z2"], ["0", "1"]],
     "polys": ["z1", "z3"]}            # used by the groebner command

Each command prints a JSON certificate document on stdout and a short
summary on stderr.  Exit codes: 0 for a decisive outcome, 2 when the answer
is inconclusive (unable to judge, no completion found), 1 for input
errors (a malformed problem file or command line, a negative budget, a
non-integer budget variable), 3 for internal faults (a result that failed
its exact check).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .completion import DEFAULT_MAX_DEGREE, DEFAULT_MAX_OPS
from .factorize import (EQUIVALENT, FACTORED, NO_FACTORIZATION,
                        NOT_EQUIVALENT, PivotError, decide_equivalence,
                        factorize_general_variable, split_pivot,
                        verify_equivalence, verify_factorization)
from .groebner import buchberger
from .matrix import PolyMatrix, gcd_chain
from .parsing import MAX_NVARS, ParseError, parse_polynomial
from .poly import InternalError, MonomialOrder, Polynomial

SCHEMA = 1

DECISIVE = (FACTORED, NO_FACTORIZATION, EQUIVALENT, NOT_EQUIVALENT)


class InputError(ValueError):
    """Malformed problem file or inconsistent options."""


def _load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("problem file must be a JSON object")
    nvars = data.get("nvars")
    # bool is a subclass of int, and true would pass as 1
    if type(nvars) is not int or nvars < 1:
        raise InputError("problem file needs a positive integer 'nvars'")
    if nvars > MAX_NVARS:
        raise InputError(f"'nvars' must be at most {MAX_NVARS}, got {nvars}")
    return data


def _parse(text: str, nvars: int, where: str) -> Polynomial:
    try:
        return parse_polynomial(text, nvars)
    except ParseError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _parse_matrix(data: dict) -> PolyMatrix:
    grid = data.get("matrix")
    if (not isinstance(grid, list) or not grid
            or not all(isinstance(row, list) and row for row in grid)):
        raise InputError("'matrix' must be a non-empty array of arrays")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise InputError("'matrix' must be rectangular")
    nvars = data["nvars"]
    rows = []
    for i, row in enumerate(grid):
        out = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise InputError(f"matrix[{i}][{j}] must be a string")
            out.append(_parse(cell, nvars, f"matrix[{i}][{j}]"))
        rows.append(out)
    return PolyMatrix(rows)


def _parse_poly_list(data: dict) -> list[Polynomial]:
    nvars = data["nvars"]
    if "polys" in data:
        items = data["polys"]
        if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
            raise InputError("'polys' must be an array of strings")
        return [_parse(s, nvars, f"polys[{k}]") for k, s in enumerate(items)]
    if "matrix" in data:
        matrix = _parse_matrix(data)
        return [p for row in matrix.entries for p in row]
    raise InputError("groebner needs 'polys' or 'matrix' in the problem file")


def _matrix_strings(matrix: PolyMatrix | None):
    if matrix is None:
        return None
    return [[str(p) for p in row] for row in matrix.entries]


def _budget(value: int | None, flag: str, env: str, default: int) -> int:
    """The flag's value, else the environment's, else the default."""
    source = flag
    if value is None:
        source, text = env, os.environ.get(env, str(default))
        try:
            value = int(text)
        except ValueError:
            raise InputError(
                f"{env} must be an integer, got {text!r}") from None
    if value < 0:
        raise InputError(f"{source} must not be negative, got {value}")
    return value


def _budgets(args) -> tuple[int, int]:
    return (_budget(args.max_ops, "--max-ops", "POLYMAT_MAX_OPS",
                    DEFAULT_MAX_OPS),
            _budget(args.max_deg, "--max-deg", "POLYMAT_MAX_DEG",
                    DEFAULT_MAX_DEGREE))


def _pivot_from_args(h: Polynomial, var: int | None) -> int:
    """Zero-based index of the variable playing the distinguished role."""
    if var is not None:
        index = var - 1
        if not 0 <= index < h.nvars:
            raise InputError(f"--var {var} out of range")
        split_pivot(h, index)  # validates shape
        return index
    for index in range(h.nvars):
        try:
            split_pivot(h, index)
            return index
        except PivotError:
            continue
    raise InputError("h must be of the form z_i - f with f free of z_i; "
                     "use --var to pick the variable")


def _matrix_and_h(args) -> tuple[dict, PolyMatrix, Polynomial]:
    """The problem file, its matrix, and ``h`` from --h or the file."""
    data = _load_problem(args.file)
    matrix = _parse_matrix(data)
    h_text, where = (args.h, "--h") if args.h else (data.get("h"), "h")
    if not h_text:
        raise InputError(f"{args.cmd} needs --h or an 'h' field in the file")
    if not isinstance(h_text, str):
        raise InputError("'h' must be a string")
    return data, matrix, _parse(h_text, matrix.nvars, where)


def _cmd_analyze(args) -> tuple[dict, int, str]:
    data = _load_problem(args.file)
    matrix = _parse_matrix(data)
    chain = gcd_chain(matrix)
    doc = {
        "argv": ["analyze", args.file],
        "nvars": matrix.nvars,
        "shape": [matrix.rows, matrix.cols],
        # d_i != 0 exactly when i <= rank
        "rank": sum(not d.is_zero for d in chain[1:]),
        "d_chain": [str(d) for d in chain[1:]],
    }
    summary = (f"{matrix.rows}x{matrix.cols} matrix, rank {doc['rank']}; "
               + ", ".join(f"d{i + 1} = {s}"
                           for i, s in enumerate(doc["d_chain"])))
    return doc, 0, summary


def _cmd_groebner(args) -> tuple[dict, int, str]:
    data = _load_problem(args.file)
    polys = _parse_poly_list(data)
    basis = buchberger(polys)
    doc = {
        "argv": ["groebner", args.file],
        "nvars": data["nvars"],
        "basis": [str(g) for g in basis.generators],
        "unit_ideal": basis.is_unit,
    }
    return doc, 0, "reduced basis: {" + ", ".join(doc["basis"]) + "}"


def _factor_step_doc(out) -> dict:
    return {
        "outcome": out.variant,
        "r": out.r,
        "h": str(out.h),
        "g1": _matrix_strings(out.g1),
        "f1": _matrix_strings(out.f1),
        "certificate": [str(p) for p in out.certificate],
        "cofactors": None if out.cofactors is None
        else [str(p) for p in out.cofactors],
    }


def _full_row_rank(matrix: PolyMatrix, zeroed: int | None = None) -> bool:
    """rank == rows, for the matrix or, given ``zeroed``, for its image
    under z_{zeroed+1} -> 0.  Full rank at the seeded point, a maximal
    minor nonzero modulo a prime and so nonzero, proves it; only a drop
    there reaches the exact elimination."""
    return any(len(pivots) == matrix.rows
               for pivots in matrix._pivot_tries(zeroed=zeroed))


def _iterate_chain(matrix, first, budgets):
    """After a success, keep extracting coordinate-variable factors z_i
    from the remaining right factor: z_i divides its maximal-minor gcd d_l
    iff substituting z_i -> 0 drops its rank below l."""
    steps = [first]
    current = first.f1
    total_g = first.g1
    zero = Polynomial.zero(current.nvars)
    # Every right factor has the rank of the first, as each step's left
    # factor is nonsingular.  Below full row rank d_l = 0, every z_i
    # divides it, and the extraction would never stop.
    progress = _full_row_rank(current)
    while progress:
        progress = False
        for index in range(current.nvars):
            if _full_row_rank(current, index):
                continue
            step = factorize_general_variable(
                current, index, zero,
                max_ops=budgets[0], max_degree=budgets[1])
            if step.variant != FACTORED:
                continue
            steps.append(step)
            total_g = total_g * step.g1
            current = step.f1
            progress = True
            break
    return steps, total_g, current


def _cmd_factorize(args) -> tuple[dict, int, str]:
    data, matrix, h = _matrix_and_h(args)
    index = _pivot_from_args(h, args.var)
    budgets = _budgets(args)
    order_name = args.order or data.get("order", "degrevlex")
    try:
        order = MonomialOrder(order_name)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    f_part = Polynomial.variable(matrix.nvars, index) - h
    out = factorize_general_variable(matrix, index, f_part, order=order,
                                     max_ops=budgets[0],
                                     max_degree=budgets[1])
    doc = {
        "argv": ["factorize", args.file, "--h", str(h)],
        "nvars": matrix.nvars,
        "h": str(h),
        "order": order_name,
        "budgets": {"max_ops": budgets[0], "max_degree": budgets[1]},
    }
    doc.update(_factor_step_doc(out))
    verified = None
    if out.variant == FACTORED and args.iterate:
        steps, total_g, residue = _iterate_chain(matrix, out, budgets)
        doc["chain"] = [_factor_step_doc(s) for s in steps]
        doc["g_total"] = _matrix_strings(total_g)
        doc["f_final"] = _matrix_strings(residue)
        if args.verify:
            verified = total_g * residue == matrix
    elif out.variant == FACTORED and args.verify:
        verified = verify_factorization(matrix, out.g1, out.f1, h, out.r)
    doc["verified"] = verified
    code = 0 if out.variant in DECISIVE else 2
    summary = f"factorize: {out.variant} (r = {out.r})"
    if verified is not None:
        summary += f", witnesses verified: {verified}"
    return doc, code, summary


def _cmd_equivalence(args) -> tuple[dict, int, str]:
    _, matrix, h = _matrix_and_h(args)
    try:
        split_pivot(h)
    except PivotError as exc:
        raise InputError(str(exc)) from exc
    budgets = _budgets(args)
    try:
        out = decide_equivalence(matrix, h, args.r,
                                 max_ops=budgets[0], max_degree=budgets[1])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    doc = {
        "argv": ["equivalence", args.file, "--h", str(h), "--r", str(args.r)],
        "nvars": matrix.nvars,
        "h": str(h),
        "r": args.r,
        "outcome": out.variant,
        "u": _matrix_strings(out.u),
        "d": _matrix_strings(out.d),
        "v": _matrix_strings(out.v),
        "certificate": [str(p) for p in out.certificate],
        "budgets": {"max_ops": budgets[0], "max_degree": budgets[1]},
    }
    verified = None
    if out.variant == EQUIVALENT and args.verify:
        verified = verify_equivalence(matrix, out.u, out.d, out.v)
    doc["verified"] = verified
    code = 0 if out.variant in DECISIVE else 2
    summary = f"equivalence: {out.variant}"
    if verified is not None:
        summary += f", witnesses verified: {verified}"
    return doc, code, summary


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error, not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polymat",
        description="Exact factorization and diagonal equivalence for "
                    "multivariate polynomial matrices.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress the stderr summary")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="rank and minor gcd chain")
    p.add_argument("file")

    p = sub.add_parser("groebner", parents=[common],
                       help="reduced basis of listed polynomials")
    p.add_argument("file")

    p = sub.add_parser("factorize", parents=[common],
                       help="extract h^r from the matrix")
    p.add_argument("file")
    p.add_argument("--h", help="linear polynomial z_i - f")
    p.add_argument("--var", type=int,
                   help="1-based index of the distinguished variable")
    p.add_argument("--order", choices=["degrevlex", "lex", "deglex"],
                   default=None,
                   help="term order (default: file's 'order' or degrevlex)")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--iterate", action="store_true",
                   help="keep extracting coordinate-variable factors from "
                        "the right factor")
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--max-deg", type=int, default=None)

    p = sub.add_parser("equivalence", parents=[common],
                       help="decide equivalence with diag(h,..,h,1,..,1)")
    p.add_argument("file")
    p.add_argument("--h", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--max-deg", type=int, default=None)

    return parser


# Each returns its document's body, its exit code and its stderr summary.
_COMMANDS = {
    "analyze": _cmd_analyze,
    "groebner": _cmd_groebner,
    "factorize": _cmd_factorize,
    "equivalence": _cmd_equivalence,
}


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    # argparse names the command in ``args`` before it parses the command's
    # own arguments, so a usage error still reports the command it found
    args = argparse.Namespace(cmd=None, quiet=False)
    try:
        _parser().parse_args(argv, args)
        started = time.monotonic()
        body, code, summary = _COMMANDS[args.cmd](args)
        doc = {"schema": SCHEMA, "command": args.cmd, **body,
               "elapsed_seconds": round(time.monotonic() - started, 6)}
    except (ValueError, InternalError) as exc:
        doc = {"schema": SCHEMA, "command": args.cmd,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 1 if isinstance(exc, ValueError) else 3
        summary = f"error: {exc}"
    print(json.dumps(doc, indent=2))
    if not args.quiet:
        print(summary, file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

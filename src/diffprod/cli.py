"""Command-line front end: weights, table, decompose, symmetric, verify.

All rational output is exact; JSON mode encodes every rational as a string
"p" or "p/q", never as floating point.  Exit codes: 0 success, 1 a
verification failed, 2 usage or parse errors, or an input past one of the
limits below.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import mul
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .exactpoly import _over_lcm
from .nodes import (
    DuplicateNode,
    EmptyNodeSet,
    NegativeExponent,
    NodeSet,
    _closed_forms,
    _euler_sums,
    _slopes,
    nodeset_new,
)
from .partfrac import _reconstructs, _route_products, _scaled_decompositions
from .symmetric import (_elementary, _equal, _h_brute_force, _h_elementary, _head, _matches,
                        _p_newton, _power_routes)

if TYPE_CHECKING:
    import argparse

# Input limits, so that no input runs unbounded: the largest --n, --nmax or
# --kmax, the most nodes in a set, and the largest @file in bytes.
MAX_EXPONENT = 1000
MAX_NODES = 1000
MAX_FILE_BYTES = 1 << 20

# A denominator must be nonzero, so "1/0" is a bad token like any other.
_TOKEN = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?\Z")


class ParseError(ValueError):
    def __init__(self, position: int, token: str):
        super().__init__(f"bad token {token!r} at position {position}")
        self.position = position
        self.token = token


class LimitExceeded(ValueError):
    """Raised when an input is past one of the module's input limits."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} exceeds limit {limit}")
        self.what = what
        self.limit = limit


def parse_nodes(text: str) -> NodeSet:
    """Parse comma/whitespace separated integers and fractions "p/q".

    A leading "@" makes the rest a file name holding the same grammar, in
    UTF-8 with or without a byte-order mark.  At most MAX_FILE_BYTES + 1
    bytes are read, so a larger (or endless) file is refused unread.
    """
    if text.startswith("@"):
        try:  # a FIFO with no writer reads as empty; a pipe with one, to its end
            with open(text[1:], "rb",
                      opener=lambda path, flags: os.open(path, flags | os.O_NONBLOCK)) as fh:
                os.set_blocking(fh.fileno(), True)
                data = fh.read(MAX_FILE_BYTES + 1)
        except ValueError:  # a NUL byte in the file name
            raise ParseError(0, text) from None
        if len(data) > MAX_FILE_BYTES:
            raise LimitExceeded("@file size in bytes", MAX_FILE_BYTES)
        text = data.decode("utf-8-sig")
    tokens = [t for t in re.split(r"[\s,]+", text) if t]
    if len(tokens) > MAX_NODES:
        raise LimitExceeded(f"node count {len(tokens)}", MAX_NODES)
    values = []
    for pos, tok in enumerate(tokens):
        match = _TOKEN.match(tok)
        if not match:
            raise ParseError(pos, tok)
        p, q = match.groups()
        try:
            values.append(Fraction(int(p), int(q or 1)))
        except ValueError:  # more digits than int() converts
            raise ParseError(pos, tok) from None
    return nodeset_new(values)


def fmt(q) -> str:
    """Render a rational (a Fraction or an int) as "p" or "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _fmt_ratio(p, q: int) -> str:
    """fmt(p / q) for an integer q != 0 of either sign: by one gcd when p
    is an integer, with no Fraction; a Fraction p is divided as it is."""
    if not isinstance(p, int):
        return fmt(p / q)
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def _fmt_scaled(L: int, X, first: int) -> list[str]:
    """[fmt(X[k] / (first * L^k))] for a scaled list (L, X, first)."""
    return list(map(_fmt_ratio, X, accumulate(repeat(L, len(X)), mul, initial=first)))


def fmt_poly(coeffs) -> str:
    """Descending-power rendering of ascending `fmt` strings, e.g.
    ["2", "-3", "1"] -> "x^2 - 3*x + 2"."""
    if not coeffs:
        return "0"
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == "0":
            continue
        sign, mag = ("-", c[1:]) if c.startswith("-") else ("+", c)
        if d == 0:
            body = mag
        else:
            head = "" if mag == "1" else mag + "*"
            body = f"{head}x" if d == 1 else f"{head}x^{d}"
        parts.append((sign, body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _nodes_header(ns: NodeSet) -> dict:
    return {"nodes": [fmt(v) for v in ns.values], "m": ns.m}


def _run_weights(ns: NodeSet, n: int) -> dict:
    # Term i is the display sign (+, -, +, ... from the smallest node) times
    # a_i^n / |A_i|: with a_i = p_i/q_i and A_i = U_i/V_i, that is
    # p_i^n V_i / (q_i^n |U_i|), reduced by one gcd.  The line puts the terms
    # over the lcm of their denominators.  For even m the signs are the true
    # ones negated, so the line sums to -S_n.
    products = [fmt(A) for A in ns.products]
    rows, terms = [], []
    for i, (a, A, signed) in enumerate(zip(ns.values, ns.products, products)):
        sign = -1 if i % 2 else 1
        top, bottom = a.numerator**n, a.denominator**n
        num, den = sign * top * A.denominator, bottom * abs(A.numerator)
        g = gcd(num, den)
        terms.append((num // g, den // g))
        rows.append({
            "node": fmt(a),
            "signed_denominator": signed,
            "magnitude": signed.lstrip("-"),
            "sign": sign,
            "numerator": str(top) if bottom == 1 else f"{top}/{bottom}",
        })
    den, nums = _over_lcm(terms)
    # For n = 0 on integer magnitudes the line is reduced by g, the gcd of the
    # magnitudes: lcm(|A_i|/g) = lcm(|A_i|)/g, and the numerators lcm/|A_i| are
    # the same either way.  This gives the paper's 3150 line for the 6-node set
    # instead of 113400.
    scale = 1
    if n == 0 and all(A.denominator == 1 for A in ns.products):
        scale = gcd(*(A.numerator for A in ns.products))
    return {
        "verb": "weights",
        **_nodes_header(ns),
        "n": n,
        "products": products,
        "rows": rows,
        "scale": str(scale),
        "common_numerators": [str(v) for v in nums],
        "common_denominator": str(den // scale),
        "sum": _fmt_ratio(sum(nums), den),
    }


def _print_weights(res: dict) -> None:
    print(f"nodes (m={res['m']}): {' '.join(res['nodes'])}")
    print("node  signed A  display term")
    # each display term is its common numerator over the unreduced denominator
    den = int(res["common_denominator"]) * int(res["scale"])
    for row, num in zip(res["rows"], res["common_numerators"]):
        term = _fmt_ratio(int(num), den)
        sign = "" if term.startswith("-") else "+"
        print(f"{row['node']:>6}  {row['signed_denominator']:>10}  {sign}{term}")
    terms = " ".join(
        f"- {v[1:]}" if v.startswith("-") else f"+ {v}" for v in res["common_numerators"]
    )
    print(f"({terms.removeprefix('+ ')})/{res['common_denominator']} = {res['sum']}")


def _run_table(ns: NodeSet, nmax: int) -> dict:
    # The sums S[n] / (D L^n) are compared with their closed forms on the
    # integers: 0 up to n = m-2, then h_0, h_1, ... from the sums' entry
    # m-1 on.  A sum that matches prints its closed form's string, since
    # equal rationals have one lowest-terms form.
    L, S, D = _euler_sums(ns, nmax)
    h = _closed_forms(ns, nmax)
    zeros = min(nmax + 1, ns.m - 1)
    expected = ["0"] * zeros + _fmt_scaled(*h)
    match = [not s for s in S[:zeros]] + list(_matches((L, S[zeros:], D * L**zeros), h))
    rows = [
        {"n": n, "sum": e if ok else _fmt_ratio(s, D * L**n), "expected": e, "match": ok}
        for n, (s, e, ok) in enumerate(zip(S, expected, match))
    ]
    return {"verb": "table", **_nodes_header(ns), "nmax": nmax, "rows": rows}


def _print_table(res: dict) -> None:
    print(f"nodes (m={res['m']}): {' '.join(res['nodes'])}")
    width = max(len(r["sum"]) for r in res["rows"])
    print(f"{'n':>3}  {'sum':>{width}}  {'expected':>{width}}  match")
    for r in res["rows"]:
        flag = "yes" if r["match"] else "NO"
        print(f"{r['n']:>3}  {r['sum']:>{width}}  {r['expected']:>{width}}  {flag}")


def _run_decompose(ns: NodeSet, n: int) -> dict:
    # h is the part leading coefficient first, h_0..h_(n-m), and empty for
    # n < m; the residues are unreduced integer pairs.
    depth = max(n - ns.m, 0)
    h, residues = _scaled_decompositions(ns, [n], _h_brute_force(ns, depth))
    residues = list(residues)
    _, nums, dens = residues[0]
    return {
        "verb": "decompose",
        **_nodes_header(ns),
        "n": n,
        "decomposition": {
            "polynomial_part": _fmt_scaled(*h)[::-1],
            "residues": list(map(_fmt_ratio, nums, dens)),
            "reconstructed": _reconstructs(ns, h, residues, _slopes(ns),
                                           _h_elementary(ns, depth)),
        },
    }


def _print_decompose(res: dict) -> None:
    dec = res["decomposition"]
    print(f"x^{res['n']} / prod(x - a_i), nodes: {' '.join(res['nodes'])}")
    print(f"polynomial part: {fmt_poly(dec['polynomial_part'])}")
    for node, r in zip(res["nodes"], dec["residues"]):
        print(f"residue at {node}: {r}")
    print(f"reconstruction check: {'ok' if dec['reconstructed'] else 'FAILED'}")


def _homogeneous_checks(ns: NodeSet, kmax: int, h_e: tuple, h_bf: tuple):
    """The independent routes to h_0..h_kmax and Newton's round trip.

    h_e and h_bf are the scaled lists of the e-recurrence and of the
    brute-force oracle to at least kmax.  Returns the scaled lists
    (L, X, first) of p_1..p_max(kmax,1), of h by the e-recurrence, by the
    power-sum recurrence and by brute force, and whether Newton's
    identities give back the direct power sums.
    """
    # Each route picks its own scale: the e-route and Newton read
    # E_1..E_min(kmax, m) off ns.polynomial, while the power sums, the
    # power-sum route and the brute-force oracle read only the node values.
    # So a wrong ns.polynomial shows up as a disagreement.  The power sums
    # and the power-sum route share one power ladder.  The closed forms and
    # the decompositions' parts take h from the oracle's kernel, so the
    # e-recurrence checks that kernel, here and in `_reconstructs`.
    p, h_p = _power_routes(ns, kmax)
    newton = _p_newton(ns, max(kmax, 1))
    return p, _head(h_e, kmax + 1), h_p, _head(h_bf, kmax + 1), _equal(newton, p)


def _run_symmetric(ns: NodeSet, kmax: int) -> dict:
    p, h_e, h_p, h_bf, newton_ok = _homogeneous_checks(
        ns, kmax, _h_elementary(ns, kmax), _h_brute_force(ns, kmax))
    # The brute-force h is formatted once; a recurrence that equals it
    # prints the same strings, one that does not prints its own.
    e_ok, p_ok = _equal(h_e, h_bf), _equal(h_p, h_bf)
    h = _fmt_scaled(*h_bf)
    return {
        "verb": "symmetric",
        **_nodes_header(ns),
        "kmax": kmax,
        "tables": {
            "e": _fmt_scaled(*_elementary(ns, kmax)),
            "p": _fmt_scaled(*p),
            "h_via_elementary": h if e_ok else _fmt_scaled(*h_e),
            "h_via_power_sums": h if p_ok else _fmt_scaled(*h_p),
            "h_brute_force": h,
        },
        "agreement": {
            # equal values are an equivalence, so this is all three agreeing
            "h_triple": e_ok and p_ok,
            "newton_round_trip": newton_ok,
        },
    }


def _print_symmetric(res: dict) -> None:
    print(f"nodes (m={res['m']}): {' '.join(res['nodes'])}")
    t = res["tables"]
    print(f"e: {' '.join(t['e'])}")
    print(f"p: {' '.join(t['p'])}")
    print(f"h (elementary recurrence): {' '.join(t['h_via_elementary'])}")
    print(f"h (power-sum recurrence):  {' '.join(t['h_via_power_sums'])}")
    print(f"h (brute force):           {' '.join(t['h_brute_force'])}")
    agree = res["agreement"]
    print(f"h paths agree: {'yes' if agree['h_triple'] else 'NO'}")
    print(f"newton round trip: {'yes' if agree['newton_round_trip'] else 'NO'}")


def _run_verify(ns: NodeSet, nmax: int) -> dict:
    checks = []

    def check(name: str, ok: bool) -> None:
        checks.append({"name": name, "ok": bool(ok)})

    m, products = ns.m, ns.products

    def reproduces_products(pairs) -> bool:
        # U_i / V_i = A_i for every i, on the integer pairs of a route
        return len(pairs) == m and all(
            V and A.numerator * V == U * A.denominator for A, (U, V) in zip(products, pairs))

    # W'(b_i) = L^(m-1) A_i, computed once: the w' route compares it with
    # the products, and check (i) of `_reconstructs` reads it.
    slopes = _slopes(ns)
    scale = ns.polynomial[0] ** (m - 1)
    check("difference products match derivative route",
          reproduces_products([(slope, scale) for slope in slopes]))
    check("sign parity (-1)^(m-1-i)",
          all((-1) ** (m - 1 - i) * A.numerator > 0 for i, A in enumerate(products)))
    # The sums and h routes below give scaled lists (L, X, first), compared
    # by `_equal` without building a Fraction.  One ladder of each h route
    # serves every check: the oracle's, a maker, gives the closed
    # forms (to k = nmax-m+1), the parts (to nmax-m) and the h checks (to
    # min(nmax, 8)); the e-recurrence's, a check, gives the quotient of
    # check (ii) (to nmax-m) and the h checks.
    k = min(nmax, 8)
    h_bf = _h_brute_force(ns, max(nmax - m + 1, k))
    h_e = _h_elementary(ns, max(nmax - m, k))
    L, S, D = _euler_sums(ns, max(nmax, m - 2))
    check("sum is 0 for n <= m-2", not any(S[: m - 1]))
    # from n = m-1 on the closed forms are h_0, h_1, ...: the sums' entry
    # m-1 is the first of a list over D L^(m-1)
    check("sum matches closed form for n <= nmax",
          not any(S[: min(nmax + 1, m - 1)])
          and _equal((L, S[m - 1 : nmax + 1], D * L ** (m - 1)), _head(h_bf, nmax - m + 2)))
    # The decomposition route's weights are the reciprocals of its products,
    # so it is compared at those: equal products give equal sums at every n.
    if m >= 2:
        check("decomposition route reproduces the sum", reproduces_products(_route_products(ns)))
    check("decompositions reconstruct exactly",
          _reconstructs(ns, *_scaled_decompositions(ns, range(nmax + 1), h_bf), slopes, h_e))

    _, h_e, h_p, h_bf, newton_ok = _homogeneous_checks(ns, k, h_e, h_bf)
    check("homogeneous recurrences agree", _equal(h_e, h_p))
    check("homogeneous recurrences match brute force", _equal(h_bf, h_e))
    check("newton round trip", newton_ok)

    return {
        "verb": "verify",
        **_nodes_header(ns),
        "nmax": nmax,
        "checks": checks,
        "all_identities_hold": all(c["ok"] for c in checks),
    }


def _print_verify(res: dict) -> None:
    print(f"nodes (m={res['m']}): {' '.join(res['nodes'])}, nmax={res['nmax']}")
    for c in res["checks"]:
        print(f"{'ok  ' if c['ok'] else 'FAIL'}  {c['name']}")
    print("all identities hold" if res["all_identities_hold"]
          else "verification FAILED")


class _Verb(NamedTuple):
    """One verb: the runner that computes its result, the printer that
    writes that result as text, `holds` (False exits 1: a check the verb
    reports failed), and its exponent option, with that option's default
    or `required`.  `help` and `option_help` are its help texts."""

    help: str
    runner: Callable
    printer: Callable
    holds: Callable
    option: str
    option_help: str
    default: int | None = None  # None: m + 4, see _exponent
    required: bool = False


_VERBS = {
    "weights": _Verb("difference products and the alternating-sign display",
                     _run_weights, _print_weights, lambda res: True,
                     "--n", "power in the numerators", default=0),
    "table": _Verb("tabulate the sums against their closed forms",
                   _run_table, _print_table, lambda res: all(r["match"] for r in res["rows"]),
                   "--nmax", "largest power (default m+4)"),
    "decompose": _Verb("partial fraction decomposition of x^n over the nodes",
                       _run_decompose, _print_decompose,
                       lambda res: res["decomposition"]["reconstructed"],
                       "--n", "numerator power", required=True),
    "symmetric": _Verb("elementary, power-sum, and homogeneous tables",
                       _run_symmetric, _print_symmetric,
                       lambda res: all(res["agreement"].values()),
                       "--kmax", "table depth (default m+4)"),
    "verify": _Verb("run every identity check; exit 0 iff all hold",
                    _run_verify, _print_verify, lambda res: res["all_identities_hold"],
                    "--nmax", "largest power (default m+4)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built from `_VERBS` on the first call that
    needs it and shared by every later one; a plain argv needs none (see
    `_read_plain`).  Callers must not mutate it.  Help width is read when
    help is printed, not here.  It reads every argv that `_read_plain`
    refuses, into the fields `verb`, `nodes`, `format` and `exponent`."""
    import argparse  # here, so that a launch with a plain argv never imports it

    parser = argparse.ArgumentParser(
        prog="diffprod",
        description="Exact difference-product sums, their closed forms, "
                    "and partial fraction decompositions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        sp = sub.add_parser(name, help=verb.help)
        sp.add_argument("nodes", help="node list, e.g. \"3 8 12 15 17 18\" or @file")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument(verb.option, type=int, dest="exponent", metavar=verb.option[2:].upper(),
                        help=verb.option_help, default=verb.default, required=verb.required)
    return parser


def _exponent(value: int | None, ns: NodeSet) -> int:
    """An exponent option's value, m + 4 when it is omitted; never negative
    and never past MAX_EXPONENT."""
    n = ns.m + 4 if value is None else value
    if n < 0:
        raise NegativeExponent(n)
    if n > MAX_EXPONENT:
        raise LimitExceeded(f"exponent {n}", MAX_EXPONENT)
    return n


def render_json(result: dict) -> str:
    """json.dumps(result, indent=2), byte for byte, for the str, bool, int,
    list and dict values a verb returns; TypeError on any other value.
    Joined from strings here, since `indent` sends json.dumps to its
    pure-Python encoder."""
    # here, so that a launch with text output never imports json
    from json.encoder import encode_basestring_ascii as quote

    def encode(value, newline: str) -> str:
        """`value` as JSON whose nested lines start with `newline` + 2 spaces."""
        if isinstance(value, str):
            return quote(value)
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, list):
            if not value:
                return "[]"
            inner = newline + "  "
            return f"[{inner}{(',' + inner).join([encode(v, inner) for v in value])}{newline}]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = newline + "  "
            items = [f"{quote(k)}: {encode(v, inner)}" for k, v in value.items()]
            return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return encode(result, "\n")


def _read_plain(argv) -> SimpleNamespace | None:
    """The namespace `build_parser()` gives for a plain argv, read straight
    off `_VERBS`; None for any other argv.  A plain argv is
    VERB [nodes] [--format text|json] [OPTION ASCII-DIGITS], in any order
    and each at most once, with a node list that argparse reads as a
    positional too: one that does not start with "-", or "-<digit>..."
    with a space in it."""
    verb = _VERBS.get(argv[0]) if argv else None
    if verb is None:
        return None
    nodes = fmt = exponent = None
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--format" and fmt is None:
            fmt = next(rest, "")
            if fmt not in ("text", "json"):
                return None
        elif arg == verb.option and exponent is None:
            value = next(rest, "")
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                exponent = int(value)
            except ValueError:  # more digits than int() converts
                return None
        elif nodes is None and (arg[:1] != "-" or (" " in arg and "0" <= arg[1:2] <= "9")):
            nodes = arg
        else:
            return None
    if nodes is None or (exponent is None and verb.required):
        return None
    return SimpleNamespace(verb=argv[0], nodes=nodes, format=fmt or "text",
                           exponent=verb.default if exponent is None else exponent)


# CPython limits int <-> str conversion to 4300 digits.  `run` lifts the
# limit, so that exact output of any size can be written, and restores it
# on the way out, since it is also called in-process.  Interpreters
# without the limit get a pair that does nothing.
_get_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_str_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def run(argv) -> int:
    """Run one CLI command in-process and return its exit code.  A plain
    argv is read by `_read_plain`; every other one by `build_parser()`, so
    that help, usage and error texts are argparse's own."""
    args = _read_plain(argv) or build_parser().parse_args(argv)
    verb = _VERBS[args.verb]
    try:
        ns = parse_nodes(args.nodes)
        exponent = _exponent(args.exponent, ns)
    except (ParseError, LimitExceeded, DuplicateNode, EmptyNodeSet,
            NegativeExponent, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    old_limit = _get_str_digits()
    _set_str_digits(0)
    try:
        result = verb.runner(ns, exponent)
        code = 0 if verb.holds(result) else 1
        try:
            if args.format == "json":
                print(render_json(result))
            else:
                verb.printer(result)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early.  Point stdout at devnull so
            # the flush at interpreter exit does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    finally:
        _set_str_digits(old_limit)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

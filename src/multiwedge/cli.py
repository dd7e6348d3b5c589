"""Command-line interface: every operation on JSON inputs.

Output is canonical JSON (sorted keys) or a plain table. Exit codes:
0 for success (empty/infeasible results are successes), 1 for domain
errors (reported as a machine-readable {"error": ...} object), 2 for
malformed input or usage problems (diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import MultiWedgeError
from .linalg import QMatrix, QVector, _json_size
from .multiorder import (
    TranslatedWedge,
    is_proper,
    minf,
    msup,
    multi_bounded_above,
    multilattice_search,
)
from .operators import (
    RDPInstance,
    fs_decompose,
    functional_msup,
    op_minf,
    op_msup,
    rdp_check,
    rdp_search,
    rk_value,
)
from .scenarios import SCENARIOS, run_scenario
from .wedges import Wedge, dual_wedge, intersect, is_cone, is_generating, lineality, wedge_sum


class InputError(Exception):
    """Malformed input file or schema violation."""


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _wedge(data) -> Wedge:
    try:
        return Wedge.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad wedge object: {exc}") from exc


def _array(data, field: str) -> list:
    """``data[field]``, which must be an array in a JSON object."""
    if not isinstance(data, dict) or not isinstance(data.get(field), list):
        raise InputError(f"expected an object with a '{field}' array")
    return data[field]


def _wedge_list(entries) -> list[Wedge]:
    """One Wedge per distinct JSON object, so a repeated entry is converted once."""
    built: dict[str, Wedge] = {}
    out = []
    for data in entries:
        key = json.dumps(data, sort_keys=True)
        if key not in built:
            built[key] = _wedge(data)
        out.append(built[key])
    return out


def _wedges(data) -> list[Wedge]:
    return _wedge_list(_array(data, "wedges"))


def _family(data) -> list[TranslatedWedge]:
    if not isinstance(data, dict) or "family" not in data:
        raise InputError("expected an object with a 'family' array")
    try:
        entries = data["family"]
        wedges = _wedge_list([p["wedge"] for p in entries])
        return [TranslatedWedge(QVector.from_json(p["apex"]), w) for p, w in zip(entries, wedges)]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad family entry: {exc}") from exc


def _vector(data) -> QVector:
    try:
        return QVector.from_json(data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad vector: {exc}") from exc


def _operator(data) -> QMatrix:
    try:
        return QMatrix.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad operator object: {exc}") from exc


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "table":
        for line in _table_lines(payload, ""):
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True))


def _table_lines(value, prefix: str) -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = _table_lines(value[key], f"{prefix}{key}.")
            if len(sub) == 1 and ": " in sub[0] and not sub[0].startswith(f"{prefix}{key}."):
                lines.append(f"{prefix}{key}: {sub[0].split(': ', 1)[1]}")
            else:
                lines.extend(sub)
    elif isinstance(value, list) and all(not isinstance(e, (dict, list)) for e in value):
        lines.append(f"{prefix[:-1]}: [{', '.join(str(e) for e in value)}]")
    elif isinstance(value, list):
        for i, e in enumerate(value):
            lines.extend(_table_lines(e, f"{prefix}{i}."))
        if not value:
            lines.append(f"{prefix[:-1]}: []")
    else:
        lines.append(f"{prefix[:-1]}: {value}")
    return lines


def _msup_payload(res) -> dict:
    if res is None:
        return {"result": "empty"}
    out = res.to_json()
    out["result"] = "set"
    out["proper"] = is_proper(res)
    return out


def _cmd_wedge(args) -> dict:
    data = _load(args.file)
    if args.wedge_op in ("sum", "intersect"):
        ws = _wedges(data)
        w = wedge_sum(ws) if args.wedge_op == "sum" else intersect(ws)
        return w.to_json(canonical=True)
    w = _wedge(data)
    if args.wedge_op == "dual":
        return dual_wedge(w).to_json(canonical=True)
    if args.wedge_op == "lineality":
        return {"lineality": [v.to_json() for v in lineality(w)]}
    if args.wedge_op == "is-cone":
        return {"is_cone": is_cone(w)}
    # argparse's choices leave "is-generating".
    return {"is_generating": is_generating(w)}


def _cmd_msup(args) -> dict:
    family = _family(_load(args.file))
    return _msup_payload(msup(family))


def _cmd_minf(args) -> dict:
    family = _family(_load(args.file))
    return _msup_payload(minf(family))


def _cmd_bounded(args) -> dict:
    family = _family(_load(args.file))
    witness = multi_bounded_above(family)
    if witness is None:
        return {"bounded": False}
    return {"bounded": True, "witness": witness.to_json()}


def _cmd_lattice_search(args) -> dict:
    wedges = _wedges(_load(args.file))
    cx = multilattice_search(wedges, args.k, seed=args.seed, budget=args.budget)
    if cx is None:
        return {"found": False, "apexes": []}
    out = cx.to_json()
    out["found"] = True
    return out


def _cmd_rdp(args) -> dict:
    data = _load(args.file)
    if args.rdp_op == "check":
        try:
            inst = RDPInstance(
                tuple(_wedges(data)),
                tuple(QVector.from_json(x) for x in data["xs"]),
                tuple(QVector.from_json(y) for y in data["ys"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad decomposition instance: {exc}") from exc
        z = rdp_check(inst)
        if z is None:
            return {"result": "infeasible"}
        return {
            "result": "decomposition",
            "z": [[v.to_json() for v in row] for row in z],
        }
    if args.rdp_op == "search":
        wedges = _wedges(data)
        found = rdp_search(wedges, args.m, args.n, seed=args.seed, budget=args.budget)
        if found is None:
            return {"found": False}
        return {"found": True, "instance": found.to_json()}
    # argparse's choices leave "decompose-fs".
    try:
        s_size = _json_size(data["s_size"], "s_size")
        js = [_json_size(j, "index") for j in data["indices"]]
        xs = [_vector(x) for x in data["xs"]]
        ys = [_vector(y) for y in data["ys"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad coordinate-wedge instance: {exc}") from exc
    z = fs_decompose(s_size, js, xs, ys)
    return {
        "result": "decomposition",
        "z": [[v.to_json() for v in row] for row in z],
    }


def _rk_inputs(data) -> tuple[list[QMatrix], list[Wedge], Wedge]:
    ops = [_operator(t) for t in _array(data, "operators")]
    wedges = _wedges(data)
    if "codomain_wedge" not in data:
        raise InputError("missing field 'codomain_wedge' in operator input")
    return ops, wedges, _wedge(data["codomain_wedge"])


def _cmd_rk(args) -> dict:
    data = _load(args.file)
    if args.rk_op == "value":
        ops, wedges, v_wedge = _rk_inputs(data)
        if "x" not in data:
            raise InputError("missing evaluation point 'x'")
        res = rk_value(ops, wedges, v_wedge, _vector(data["x"]))
        return _msup_payload(res)
    if args.rk_op == "functional-msup":
        phis = [_vector(p) for p in _array(data, "functionals")]
        res = functional_msup(phis, _wedges(data))
    else:
        ops, wedges, v_wedge = _rk_inputs(data)
        fn = op_msup if args.rk_op == "op-msup" else op_minf
        res = fn(ops, wedges, v_wedge)
    out = res.to_json()
    out["proper"] = res.is_proper
    return out


def _cmd_examples(args) -> dict:
    if args.examples_op == "list":
        return {"scenarios": sorted(SCENARIOS)}
    if args.name not in SCENARIOS:
        raise InputError(
            f"unknown scenario {args.name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return run_scenario(args.name, seed=args.seed, budget=args.budget)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mw` argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mw",
        description="Exact polyhedral wedge-order computations on JSON inputs.",
    )

    def add_common(p, needs_file=True):
        if needs_file:
            p.add_argument("-f", "--file", required=True, help="JSON input file")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
        p.add_argument("--budget", type=int, default=1000, help="trial budget for searches")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wedge", help="wedge algebra operations")
    p.add_argument(
        "wedge_op",
        choices=("dual", "sum", "intersect", "lineality", "is-cone", "is-generating"),
    )
    add_common(p)
    p.set_defaults(handler=_cmd_wedge)

    p = sub.add_parser("msup", help="multi-suprema of a translated-wedge family")
    add_common(p)
    p.set_defaults(handler=_cmd_msup)

    p = sub.add_parser("minf", help="multi-infima of a translated-wedge family")
    add_common(p)
    p.set_defaults(handler=_cmd_minf)

    p = sub.add_parser("bounded", help="multi-upper-bound existence and witness")
    add_common(p)
    p.set_defaults(handler=_cmd_bounded)

    p = sub.add_parser("lattice-search", help="randomized multi-lattice refutation")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="family arity")
    p.set_defaults(handler=_cmd_lattice_search)

    p = sub.add_parser("rdp", help="Riesz decomposition property operations")
    p.add_argument("rdp_op", choices=("check", "search", "decompose-fs"))
    add_common(p)
    p.add_argument("--m", type=int, default=2, help="number of x vectors (search)")
    p.add_argument("--n", type=int, default=2, help="number of wedges (search)")
    p.set_defaults(handler=_cmd_rdp)

    p = sub.add_parser("rk", help="operator and functional multi-suprema")
    p.add_argument("rk_op", choices=("value", "op-msup", "functional-msup", "op-minf"))
    add_common(p)
    p.set_defaults(handler=_cmd_rk)

    p = sub.add_parser("examples", help="built-in scenarios")
    exsub = p.add_subparsers(dest="examples_op", required=True)
    pl = exsub.add_parser("list")
    add_common(pl, needs_file=False)
    pl.set_defaults(handler=_cmd_examples)
    pr = exsub.add_parser("run")
    pr.add_argument("name")
    add_common(pr, needs_file=False)
    pr.set_defaults(handler=_cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MultiWedgeError as exc:
        _emit({"error": exc.code, "message": str(exc)}, args.format)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())

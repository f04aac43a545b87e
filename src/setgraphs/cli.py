"""Command-line surface.

Usage:
    setgraph build N --format {dot,json,csv} [--out PATH]
    setgraph invariants N [--table {degrees,tightness}] [--threads K] [--out PATH]
    setgraph sequence {vertices,edges,holes,degree_min,degree_max,mela} --max-n K
    setgraph verify [--claims all|C8,C11] [--max-n N] [--format {json,md}]
                    [--out PATH] [--threads K]
    setgraph mela [--max-index K] [--format {json,md}] [--out PATH]

A JSON config file (--config) may preset max_n, threads, format, out, and cap
overrides; explicit flags win. max_n, max_index and threads must be plain
integers. threads (and --threads) is accepted and ignored by every command:
each one runs on a single thread. Exit codes: 0 success, 2 usage error,
3 resource-guard refusal, 1 other execution errors. Refuted claims are
findings, not errors: verify still exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from . import holes, invariants, parameters, verify
from .mela import check_closure, check_divisibility, mela as mela_sequence
from .config import CANONICAL_ORDER_TAG, DEFAULT_CAPS, CapExceeded, Caps, check_int
from .core import (
    _meeting_runs,
    canonical_masks,
    check_ground_size,
    label_of_mask,
    subset_str,
    vertex_count,
)

SEQUENCE_METRICS = ("vertices", "edges", "holes", "degree_min", "degree_max", "mela")
THREADS_HELP = "accepted and ignored; every command runs on one thread"


def _node_id(n: int, m: int) -> str:
    s, i = label_of_mask(n, m)
    return f"v_{s}_{i}"


def _write_edges(fh: TextIO, n: int, names: list[str], edge: str, between: str = "") -> None:
    """Write every edge (u, v), u < v ascending, as edge.format(u=names[u], v=names[v]).

    Consecutive edges are separated by `between`. One chunk is written per
    u: the names of the masks meeting u above it, sliced from `names` by the
    runs of `_meeting_runs` and joined, so no per-edge formatting happens.
    """
    head, tail = edge.split("{v}")
    lead = ""
    for u in range(1, 1 << n):
        vs = []
        for lo, hi in _meeting_runs(n, u):
            vs += names[lo:hi]
        if vs:
            h = head.format(u=names[u])
            fh.write(lead + h + (tail + between + h).join(vs) + tail)
            lead = between


def render_dot(n: int, fh: TextIO, *, caps: Caps = DEFAULT_CAPS) -> None:
    """Write G(n) to fh as a graphviz DOT graph: labelled vertices, then edges."""
    check_ground_size(n, caps.materialize_max_n)
    ids = [""] + [_node_id(n, m) for m in range(1, 1 << n)]  # indexed by mask
    fh.write(f"graph setgraph_{n} {{\n")
    fh.write("".join(f'  {ids[m]} [label="{subset_str(m)}"];\n' for m in canonical_masks(n)))
    _write_edges(fh, n, ids, "  {u} -- {v};\n")
    fh.write("}\n")


def render_csv(n: int, fh: TextIO, *, caps: Caps = DEFAULT_CAPS) -> None:
    """Write the edges of G(n) to fh as 'u,v' mask rows, u < v, sorted."""
    check_ground_size(n, caps.materialize_max_n)
    _write_edges(fh, n, [str(m) for m in range(1 << n)], "{u},{v}\n")


def render_graph_json(n: int, fh: TextIO, *, caps: Caps = DEFAULT_CAPS) -> None:
    """Write G(n) to fh as the json.dumps(doc, indent=2) text of its vertices and edges."""
    check_ground_size(n, caps.materialize_max_n)
    vertices = ",\n".join(
        f'    {{\n      "label": "{_node_id(n, m)}",\n      "mask": {m}\n    }}'
        for m in canonical_masks(n)
    )
    fh.write(f'{{\n  "n": {n},\n  "vertices": [\n{vertices}\n  ],\n  "edges": ')
    if n == 1:
        fh.write("[]")  # the only vertex has no edge
    else:
        fh.write("[\n")
        names = [str(m) for m in range(1 << n)]
        _write_edges(fh, n, names, "    [\n      {u},\n      {v}\n    ]", ",\n")
        fh.write("\n  ]")
    fh.write("\n}\n")


def _witness(masks) -> dict:
    masks = list(masks)
    return {"masks": masks, "subsets": [subset_str(m) for m in masks]}


def invariant_report(n: int, *, caps: Caps = DEFAULT_CAPS) -> dict:
    """All invariants of G(n) in one JSON-ready record.

    The triangle fields come from one `holes.hole_report`, which builds no
    graph: triangles_exact from its per-size incidence route (h_exact),
    triangles_corrected from the corrected recursion (h_corrected) and
    apex_primitive_degree from |E| minus the apex degree. Fields above a
    cap are None, with the reason recorded under "reasons".
    """
    reasons: dict[str, str] = {}
    report: dict = {
        "n": n,
        "canonical_order": CANONICAL_ORDER_TAG,
        "vertex_count": vertex_count(n, caps=caps),
        "edge_count": invariants.edge_count_closed(n, caps=caps),
    }
    lo, hi = invariants.degree_extremes(n, caps=caps)
    report["degree_min"] = lo
    report["degree_max"] = hi
    report["degree_by_cardinality"] = [
        invariants.degree_closed(n, k) for k in range(1, n + 1)
    ]
    triangles = holes.hole_report(n, caps=caps)
    report["triangles_exact"] = triangles.h_exact
    report["triangles_corrected"] = triangles.h_corrected
    report["apex_primitive_degree"] = triangles.apex_primitive_degree
    if triangles.h_exact is None:
        exact_max_n = min(caps.triangle_exact_max_n, caps.materialize_max_n)
        reasons["triangles_exact"] = f"exact count capped at n <= {exact_max_n}"
    if triangles.h_corrected is None:
        reasons["triangles_corrected"] = (
            f"corrected recursion capped at n <= {caps.corrected_max_n}"
        )
    report["clique_number"] = parameters.clique_number(n, caps=caps)
    report["chromatic_number"] = parameters.chromatic_number(n, caps=caps)
    alpha, alpha_witness = parameters.independence_number(n, caps=caps)
    report["independence_number"] = alpha
    report["independence_witness"] = _witness(alpha_witness)
    gamma, gamma_witness = parameters.domination(n, caps=caps)
    report["domination_number"] = gamma
    report["domination_witness"] = _witness(gamma_witness)
    if n >= 2:
        b, edge = parameters.bondage_number(n, caps=caps)
        report["bondage_number"] = b
        report["bondage_witness_edge"] = _witness(edge)
    else:
        report["bondage_number"] = None
        reasons["bondage_number"] = "a single vertex has no edge to remove"
    report["mcpherson_number"] = parameters.mcpherson_number(n, caps=caps)
    report["tightness_checksum"] = invariants.tightness_checksum(n, caps=caps)
    report["reasons"] = reasons
    return report


def render_value_table(n: int, *, caps: Caps = DEFAULT_CAPS) -> str:
    """Per-vertex CSV rows 'label,mask,value' in canonical order.

    The table behind both `--table degrees` and `--table tightness`: the two
    coincide vertex by vertex (a subset meets exactly as many other subsets
    as its vertex has neighbors), so both come from the same closed form.
    """
    if n > caps.materialize_max_n:
        raise CapExceeded(
            f"per-vertex table capped at n <= {caps.materialize_max_n}, got {n}"
        )
    check_ground_size(n, caps.count_max_n)
    lines = []
    for m in canonical_masks(n):
        value = invariants.degree_closed(n, m.bit_count())
        lines.append(f"{_node_id(n, m)},{m},{value}\n")
    return "".join(lines)


def sequence_rows(metric: str, max_n: int, *, caps: Caps = DEFAULT_CAPS) -> list[tuple[int, int]]:
    """(n, value) rows for one metric, n = 1..max_n."""
    if metric not in SEQUENCE_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    check_int("max_n", max_n)
    holes_cap = min(caps.corrected_max_n, caps.count_max_n)
    cap = holes_cap if metric == "holes" else caps.count_max_n
    if max_n > cap:
        raise CapExceeded(f"sequence '{metric}' capped at max_n <= {cap}, got {max_n}")
    rows = []
    for n in range(1, max_n + 1):
        if metric == "vertices":
            value = vertex_count(n, caps=caps)
        elif metric == "edges":
            value = invariants.edge_count_closed(n, caps=caps)
        elif metric == "holes":
            value = holes.triangle_count_corrected(n, caps=caps)
        elif metric == "degree_min":
            value = invariants.degree_extremes(n, caps=caps)[0]
        elif metric == "degree_max":
            value = invariants.degree_extremes(n, caps=caps)[1]
        else:  # mela
            value = mela_sequence(n, caps=caps)[-1]
        rows.append((n, value))
    return rows


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """stdout for None or '-', else the file at out, opened for writing."""
    if out is None or out == "-":
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _caps_from_config(config: dict) -> Caps:
    overrides = config.get("caps", {})
    if not isinstance(overrides, dict):
        raise ValueError("config key 'caps' must be an object")
    return DEFAULT_CAPS.with_overrides(**overrides)


def _setting(args, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _int_setting(args, config: dict, key: str, default: int, minimum: int = 0) -> int:
    """An integer setting; a bool, float or string in the config is a usage error."""
    return check_int(key, _setting(args, config, key, default), minimum)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setgraph",
        description="Exact invariants and claim verification for subset intersection graphs.",
    )
    parser.add_argument("--config", help="JSON config file; flags win over its keys")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="export the graph for one ground-set size")
    p_build.add_argument("n", type=int)
    p_build.add_argument("--format", choices=["dot", "json", "csv"], default=None)
    p_build.add_argument("--out")

    p_inv = sub.add_parser("invariants", help="all invariants of G(n) as JSON")
    p_inv.add_argument("n", type=int)
    p_inv.add_argument("--table", choices=["degrees", "tightness"],
                       help="emit per-vertex 'label,mask,value' CSV rows instead")
    p_inv.add_argument("--threads", type=int, help=THREADS_HELP)
    p_inv.add_argument("--out")

    p_seq = sub.add_parser("sequence", help="one row per n: 'n,value'")
    p_seq.add_argument("metric", choices=list(SEQUENCE_METRICS))
    p_seq.add_argument("--max-n", dest="max_n", type=int)
    p_seq.add_argument("--out")

    p_verify = sub.add_parser("verify", help="adjudicate registered claims")
    p_verify.add_argument("--claims", default=None, help="'all' or comma-separated ids")
    p_verify.add_argument("--max-n", dest="max_n", type=int)
    p_verify.add_argument("--format", choices=["json", "md"], default=None)
    p_verify.add_argument("--out")
    p_verify.add_argument("--threads", type=int, help=THREADS_HELP)

    p_mela = sub.add_parser("mela", help="closure and divisibility checks for Mela numbers")
    p_mela.add_argument("--max-index", dest="max_index", type=int)
    p_mela.add_argument("--format", choices=["json", "md"], default=None)
    p_mela.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        caps = _caps_from_config(config)
        out = _setting(args, config, "out", None)
        if out is not None and not isinstance(out, str):
            raise ValueError(f"out must be a path string, got {out!r}")
        if args.command == "build":
            fmt = _setting(args, config, "format", "dot")
            exporters = {"dot": render_dot, "csv": render_csv, "json": render_graph_json}
            if not isinstance(fmt, str) or fmt not in exporters:
                raise ValueError(f"unknown build format {fmt!r}")
            # refuse before --out is opened, so a refused build leaves no file
            check_ground_size(args.n, caps.materialize_max_n)
            with _output(out) as fh:
                exporters[fmt](args.n, fh, caps=caps)
        elif args.command == "invariants":
            _int_setting(args, config, "threads", 1, minimum=1)  # validated, then ignored
            if args.table:
                _emit(render_value_table(args.n, caps=caps), out)
            else:
                report = invariant_report(args.n, caps=caps)
                _emit(json.dumps(report, indent=2) + "\n", out)
        elif args.command == "sequence":
            max_n = _int_setting(args, config, "max_n", 10)
            rows = sequence_rows(args.metric, max_n, caps=caps)
            _emit("".join(f"{n},{value}\n" for n, value in rows), out)
        elif args.command == "verify":
            selection = _setting(args, config, "claims", "all")
            max_n = _int_setting(args, config, "max_n", 9)
            _int_setting(args, config, "threads", 1, minimum=1)  # validated, then ignored
            fmt = _setting(args, config, "format", "json")
            verify.check_report_format(fmt)
            verdicts = verify.run_claims(selection, max_n, caps=caps)
            _emit(verify.render_report(verdicts, fmt, max_n=max_n, caps=caps), out)
        elif args.command == "mela":
            max_index = _int_setting(args, config, "max_index", 20)
            fmt = _setting(args, config, "format", "json")
            verify.check_report_format(fmt)
            verdicts = [
                check_closure(max_index, caps=caps),
                check_divisibility(max_index, max_index, caps=caps),
            ]
            _emit(verify.render_report(verdicts, fmt, max_n=max_index, caps=caps), out)
    except CapExceeded as exc:
        print(f"setgraph: resource guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"setgraph: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"setgraph: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Usage:
    setgraph build N --format {dot,json,csv} [--out PATH]
    setgraph invariants N [--table {degrees,tightness}] [--threads K] [--out PATH]
    setgraph sequence {vertices,edges,holes,degree_min,degree_max,mela} --max-n K
    setgraph verify [--claims all|C8,C11] [--max-n N] [--format {json,md}]
                    [--out PATH] [--threads K]
    setgraph mela [--max-index K] [--format {json,md}] [--out PATH]

A JSON config file (--config), read as UTF-8 with or without a byte order
mark, may preset max_n, threads, format, out, and cap overrides; explicit
flags win. max_n, max_index and threads must be plain integers. threads
(and --threads) is accepted and ignored by every command: each one runs on
a single thread. Exit codes: 0 success, 2 usage error, 3 resource-guard
refusal, 4 two routes to one value disagree (a fault in the program), 1
other execution errors. Refuted claims are findings, not errors: verify
still exits 0.

Every command writes bytes, in blocks of 256 KiB (a shorter report in one
block of its own size), to stdout or --out; line ends are \n on every
platform. A write that fails (a closed pipe, say) exits 1 with one line.
The exporters write one chunk per vertex and rely on the stream they are
given to buffer it. A stdout without a file descriptor (an io.StringIO,
say) receives the output as text when the command ends, and nothing if it
fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from typing import BinaryIO, Iterator

from . import holes, invariants, parameters, verify
from .mela import check_closure, check_divisibility, mela as mela_sequence
from .config import (
    CANONICAL_ORDER_TAG,
    DEFAULT_CAPS,
    CapExceeded,
    Caps,
    RouteMismatch,
    check_int,
)
from .core import (
    _meeting_slices,
    canonical_masks,
    check_ground_size,
    label_of_mask,
    subset_str,
    vertex_count,
)

THREADS_HELP = "accepted and ignored; every command runs on one thread"


def _node_id(n: int, m: int) -> str:
    s, i = label_of_mask(n, m)
    return f"v_{s}_{i}"


def _write_edges(fh: BinaryIO, n: int, names: list[str], edge: str, between: str = "") -> None:
    """Write every edge (u, v), u < v ascending, as edge.format(u=names[u], v=names[v]).

    Consecutive edges are separated by `between`. One chunk is written per
    u: the names of the masks meeting u above it, which `_meeting_slices`
    cuts from `names` with each mask as its own position, joined and
    encoded once, so no per-edge formatting happens. It serves DOT and
    JSON; CSV has its own writer, `render_csv`, whose short lines make the
    list entry and join per edge here the larger part of the cost.
    """
    head, tail = edge.split("{v}")
    positions = list(range(len(names) + 1))
    lead = ""
    for u in range(1, 1 << n):
        vs = []
        for part in _meeting_slices(n, u, names, positions):
            vs += part
        if vs:
            h = head.format(u=names[u])
            fh.write((lead + h + (tail + between + h).join(vs) + tail).encode())
            lead = between


def render_dot(n: int, fh: BinaryIO, *, caps: Caps = DEFAULT_CAPS) -> None:
    """Write G(n) to the byte stream fh as a graphviz DOT graph: labelled vertices, then edges."""
    check_ground_size(n, caps.materialize_max_n)
    ids = [""] + [_node_id(n, m) for m in range(1, 1 << n)]  # indexed by mask
    fh.write(b"graph setgraph_%d {\n" % n)
    vertices = "".join(f'  {ids[m]} [label="{subset_str(m)}"];\n' for m in canonical_masks(n))
    fh.write(vertices.encode())
    _write_edges(fh, n, ids, "  {u} -- {v};\n")
    fh.write(b"}\n")


def _decades(top: int) -> Iterator[tuple[int, int]]:
    """(first, count) of each run of v in [0, top) whose numbers have one digit count."""
    first, end = 0, 10
    while first < top:
        yield first, min(end, top) - first
        first, end = end, end * 10


def render_csv(n: int, fh: BinaryIO, *, caps: Caps = DEFAULT_CAPS) -> None:
    """Write the edges of G(n) to the byte stream fh as 'u,v' mask rows, u < v, sorted.

    The lines of u are slices of one text holding u's line 'u,v\\n' for
    every v in mask order: `_meeting_slices` cuts them from a memoryview of
    the text at the lines' byte offsets and one join copies them, so there
    is no Python object per edge. The text is rebuilt whenever the width of
    u grows. Between rebuilds only the digit columns of u that changed are
    rewritten, and only on the lines above u, the only ones read from then
    on: in each decade of v every line has one length, so a column is one
    strided slice assignment per decade. One chunk is written per u.
    """
    check_ground_size(n, caps.materialize_max_n)
    top = 1 << n
    tails = [b",%d\n" % v for v in range(top)]
    before = [0, *accumulate(map(len, tails))]  # the length of the tails before v's
    width = 0
    for u in range(1, top):
        digits = b"%d" % u
        if len(digits) != width:
            width = len(digits)
            text = bytearray(digits + digits.join(tails))
            view = memoryview(text)
            starts = [v * width + length for v, length in enumerate(before)]
            # (first, end, line length, digit -> its column fill) per decade of v
            decades = [
                (first, first + count, width + len(tails[first]),
                 {d: bytes([d]) * count for d in b"0123456789"})
                for first, count in _decades(top)
            ]
        else:
            for column in range(width):
                d = digits[column]
                if d != previous[column]:
                    for first, end, step, fills in decades:
                        lo = max(first, u + 1)
                        # skipping the empty case also keeps the view legal:
                        # a strided assignment of no bytes is a resize
                        if lo < end:
                            text[starts[lo] + column:starts[end]:step] = fills[d][lo - first:]
        previous = digits
        fh.write(b"".join(_meeting_slices(n, u, view, starts)))


def render_graph_json(n: int, fh: BinaryIO, *, caps: Caps = DEFAULT_CAPS) -> None:
    """Write G(n) to the byte stream fh as the json.dumps(doc, indent=2) text of G(n)."""
    check_ground_size(n, caps.materialize_max_n)
    vertices = ",\n".join(
        f'    {{\n      "label": "{_node_id(n, m)}",\n      "mask": {m}\n    }}'
        for m in canonical_masks(n)
    )
    fh.write(f'{{\n  "n": {n},\n  "vertices": [\n{vertices}\n  ],\n  "edges": '.encode())
    if n == 1:
        fh.write(b"[]")  # the only vertex has no edge
    else:
        fh.write(b"[\n")
        names = [str(m) for m in range(1 << n)]
        _write_edges(fh, n, names, "    [\n      {u},\n      {v}\n    ]", ",\n")
        fh.write(b"\n  ]")
    fh.write(b"\n}\n")


# the most bytes `build` may write; it admits every format at n <= 14
BUILD_MAX_BYTES = 1 << 33


def build_size_bound(n: int, fmt: str, *, caps: Caps = DEFAULT_CAPS) -> int:
    """An upper bound on the bytes of `build n --format fmt`, from closed forms alone.

    Each kind of line is counted |E| or |V| times at its widest: a mask is at
    most as wide as the largest, 2^n - 1, a label v_s_i at most as wide as
    v_n_(2^n - 1) (i <= C(n, s) <= 2^n - 1) and a subset at most as wide as
    the whole ground set.
    """
    edges = invariants.edge_count_closed(n, caps=caps)
    vertices = vertex_count(n, caps=caps)  # 2^n - 1, also the largest mask
    mask = str(vertices)
    label = f"v_{n}_{mask}"
    if fmt == "csv":
        return edges * len(f"{mask},{mask}\n")
    if fmt == "dot":
        return (len(f"graph setgraph_{n} {{\n}}\n")
                + vertices * len(f'  {label} [label="{subset_str(vertices)}"];\n')
                + edges * len(f"  {label} -- {label};\n"))
    if fmt == "json":
        vertex = f'    {{\n      "label": "{label}",\n      "mask": {mask}\n    }},\n'
        return (len(f'{{\n  "n": {n},\n  "vertices": [\n\n  ],\n  "edges": [\n\n  ]\n}}\n')
                + vertices * len(vertex)
                + edges * len(f"    [\n      {mask},\n      {mask}\n    ],\n"))
    raise ValueError(f"unknown build format {fmt!r}")


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
        reasons["triangles_exact"] = f"exact count capped at n <= {holes._exact_max_n(caps)}"
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
    check_ground_size(n, caps.count_max_n)
    if n > caps.materialize_max_n:
        raise CapExceeded(
            f"per-vertex table capped at n <= {caps.materialize_max_n}, got {n}"
        )
    lines = []
    for m in canonical_masks(n):
        value = invariants.degree_closed(n, m.bit_count())
        lines.append(f"{_node_id(n, m)},{m},{value}\n")
    return "".join(lines)


# the value of each `sequence` metric at n; each entry looks its function up
# when called, so a rebound module attribute reaches it
SEQUENCES = {
    "vertices": lambda n, caps: vertex_count(n, caps=caps),
    "edges": lambda n, caps: invariants.edge_count_closed(n, caps=caps),
    "holes": lambda n, caps: holes.triangle_count_corrected(n, caps=caps),
    "degree_min": lambda n, caps: invariants.degree_extremes(n, caps=caps)[0],
    "degree_max": lambda n, caps: invariants.degree_extremes(n, caps=caps)[1],
    "mela": lambda n, caps: mela_sequence(n, caps=caps)[-1],
}


def sequence_rows(metric: str, max_n: int, *, caps: Caps = DEFAULT_CAPS) -> list[tuple[int, int]]:
    """(n, value) rows for one metric, n = 1..max_n."""
    if metric not in SEQUENCES:
        raise ValueError(f"unknown metric {metric!r}")
    check_int("max_n", max_n)
    holes_cap = min(caps.corrected_max_n, caps.count_max_n)
    cap = holes_cap if metric == "holes" else caps.count_max_n
    if max_n > cap:
        raise CapExceeded(f"sequence '{metric}' capped at max_n <= {cap}, got {max_n}")
    return [(n, SEQUENCES[metric](n, caps)) for n in range(1, max_n + 1)]


# the bytes every command gathers into one write; 1 MiB blocks were no faster
# for CSV and took more memory
_WRITE_BLOCK = 1 << 18


@contextmanager
def _output(out: str | None, block: int = _WRITE_BLOCK) -> Iterator[BinaryIO]:
    """A byte stream onto the file at out, or onto stdout for None or '-'.

    It writes in blocks of up to `block` bytes, each whole or raising, so a
    closed or full pipe fails inside the block, with or without `python -u`.
    Stdout is flushed first, so text written earlier comes first.

    A stdout with no descriptor is text held in memory (an io.StringIO, or
    pytest's capture): the bytes are gathered in one io.BytesIO and written
    to it as text when the block ends. Two trade-offs hold for such a stdout
    alone, which holds the whole text anyway: a command that fails midway
    leaves it nothing, not part of its output, and the output is held twice
    in memory until it is written.
    """
    if out is None or out == "-":
        sys.stdout.flush()
        try:
            out = os.dup(sys.stdout.fileno())
        except (AttributeError, io.UnsupportedOperation):
            fh = io.BytesIO()
            yield fh
            sys.stdout.write(fh.getvalue().decode())
            sys.stdout.flush()
            return
    with open(out, "wb", buffering=block) as fh:
        yield fh


def _emit(text: str, out: str | None) -> None:
    """Write a whole report through a buffer no larger than the report;
    buffering=1 would ask a binary file for line buffering, so it is 2 at
    least."""
    data = text.encode()
    with _output(out, max(2, min(len(data), _WRITE_BLOCK))) as fh:
        fh.write(data)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
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
    p_seq.add_argument("metric", choices=list(SEQUENCES))
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
            bound = build_size_bound(args.n, fmt, caps=caps)
            if bound > BUILD_MAX_BYTES:
                raise CapExceeded(
                    f"build {args.n} --format {fmt} may write up to {bound} bytes, "
                    f"over the limit of {BUILD_MAX_BYTES}"
                )
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
                check_divisibility(max_index, caps=caps),
            ]
            _emit(verify.render_report(verdicts, fmt, max_n=max_index, caps=caps), out)
    except CapExceeded as exc:
        print(f"setgraph: resource guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"setgraph: {exc}", file=sys.stderr)
        return 2
    except RouteMismatch as exc:
        print(f"setgraph: routes disagree: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"setgraph: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The command-line surface: exports, reports, sequences, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

from setgraphs import (
    DEFAULT_CAPS,
    SKIPPED,
    adjacent,
    edge_count_closed,
    holes,
    materialize,
    run_claims,
    tightness,
    triangle_count_exact,
)
from setgraphs import cli, verify
from setgraphs.cli import (
    invariant_report,
    main,
    render_value_table,
    sequence_rows,
)
from setgraphs.core import _meeting_slices


def run_cli(*argv):
    return main(list(argv))


def test_build_csv_n2(tmp_path):
    out = tmp_path / "g2.csv"
    assert run_cli("build", "2", "--format", "csv", "--out", str(out)) == 0
    assert out.read_text() == "1,3\n2,3\n"


def test_build_dot_n3(tmp_path):
    out = tmp_path / "g3.dot"
    assert run_cli("build", "3", "--format", "dot", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("graph setgraph_3 {")
    assert text.count("[label=") == 7
    assert text.count(" -- ") == 15
    assert 'v_1_1 [label="{a1}"]' in text
    assert 'v_3_1 [label="{a1,a2,a3}"]' in text


def test_build_json_roundtrip(tmp_path):
    for n in (1, 2, 3, 4, 5):
        out = tmp_path / f"g{n}.json"
        assert run_cli("build", str(n), "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == n
        assert len(doc["vertices"]) == 2**n - 1
        edges = {tuple(e) for e in doc["edges"]}
        assert len(edges) == edge_count_closed(n)
        # re-derive adjacency and compare with the materialized rows
        g = materialize(n)
        masks = g.masks
        for u in range(g.num_vertices):
            for v in range(u + 1, g.num_vertices):
                pair = tuple(sorted((masks[u], masks[v])))
                assert (pair in edges) == adjacent(masks[u], masks[v])


def test_build_json_n1(tmp_path):
    out = tmp_path / "g1.json"
    assert run_cli("build", "1", "--format", "json", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["vertices"] == [{"label": "v_1_1", "mask": 1}]
    assert doc["edges"] == []


def test_csv_edge_count_matches_closed_form(tmp_path):
    for n in (4, 6, 8, 10):
        out = tmp_path / f"g{n}.csv"
        assert run_cli("build", str(n), "--format", "csv", "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == edge_count_closed(n)
        assert rows == sorted(rows, key=lambda r: tuple(map(int, r.split(","))))


def _meeting_run_lists(n: int) -> list[list[range]]:
    # with the masks as their own positions, the slices are the runs of v
    top = 1 << n
    return [_meeting_slices(n, u, range(top), range(top + 1)) for u in range(1, top)]


def test_edge_stream_count_matches_closed_form_to_12():
    # the runs the exporters slice their names from hold every edge once
    for n in (11, 12):
        total = sum(len(run) for runs in _meeting_run_lists(n) for run in runs)
        assert total == edge_count_closed(n)


def test_meeting_slices_are_the_masks_above_u_that_meet_it():
    for n in range(1, 9):
        top = 1 << n
        names = [f"m{v}" for v in range(top)]
        for u in range(1, top):
            runs = _meeting_slices(n, u, range(top), range(top + 1))
            assert all(runs), (n, u)  # no empty slice
            assert [v for run in runs for v in run] == [v for v in range(u + 1, top) if u & v]
            # the same runs cut from any sequence at any positions
            assert _meeting_slices(n, u, names, range(top + 1)) == [names[r.start:r.stop]
                                                                   for r in runs]
        # the full set meets everything but has nothing above it; a u with
        # the top element meets every mask above it, in one run
        assert _meeting_slices(n, top - 1, range(top), range(top + 1)) == []
        for u in range(top >> 1, top - 1):
            assert _meeting_slices(n, u, range(top), range(top + 1)) == [range(u + 1, top)]


# sha256 of `build N --format F` on stdout, taken from the exporters that
# built each document as one string; the streamed exporters must match.
BUILD_DIGESTS = {
    ("csv", 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("csv", 2): "7a0c55aafd4467d081e4d707caa73abcc681ef0d6a9f56152aa3c5582b2fdccb",
    ("csv", 3): "695930d4dc08fe1154fe27733ec444b5a4f9f1d8791a772978cc3ae3a3ea23e2",
    ("csv", 4): "bcfd1385c1c3001723fb2161873dacc83d1d177a7e7d81566423a89f9f555400",
    ("csv", 5): "00d238325346b5b5e1487a3a9d4165bac11e5e1eb13d0c117014eaf1ead683f2",
    ("csv", 6): "46972f62f80bd92be05cf2003561f63696854c5cdb0e64d59f6482a9d21a416e",
    ("csv", 7): "acfe036e047f01620eab112d1254ef3508bc3bfda1d8361d8018e1a0e80a8eb8",
    ("csv", 8): "5dff82b06f5acd5c14c0a4cac27dae91da2ad7031c1d24e0d71b032436cf1dce",
    ("csv", 9): "29e1770dfcf29e5fade0e742cbd46357f4e32ffccf78df0da448b96c5b87df4b",
    # n = 10 and 11 cross the widths of u at 10, 100 and 1000
    ("csv", 10): "b3a8392a52dbd9d40b8247897c91eede028dd6f7cf41a212fe1251f7c089a112",
    ("csv", 11): "af2063ae4298410428aeebe2926af6341e9f363b30c215041ece515df109bbc2",
    # the digest perfbench/run.py pins for its export_n12_csv workload
    ("csv", 12): "1262e2cf06b355ec719d73ba6ffbcd222aed4cbeb68113b4ac4dc092040c58ff",
    ("dot", 1): "77c59f6a15c94b397ab606b23d85694baa0e363016276e073a20428f6f4a269c",
    ("dot", 2): "f252f562ae14a497431d69968eabdf5da8338bbcece36f1ac4ef788daad03664",
    ("dot", 3): "a8d96d4bef0112d5578ebe61bd3b5381fd3077457f7d34d726c79ffb8912561c",
    ("dot", 4): "25023ca0184a03496ee66882a51da7c2ee43557c2dadae9626dbe62c6a50bdd2",
    ("dot", 5): "2ebaf798d28e86e445511152e343ce11a078ccda47160b5bf890bc50f97be3e2",
    ("dot", 6): "952b8e40151e8e79a8c7768bebd98c8c7024db4a9b62caaf0b093dc3a1ac3f31",
    ("dot", 7): "17ad84106d4affa47b2907b355b33415692cba2432041ae00164bc68eb0eab04",
    ("dot", 8): "db7415c9bf12a027a137da3b19bd7ee77f3c4de046eeca21b09d3f366330df7f",
    ("dot", 9): "2ba90eac852b253621d75dde540d609e70147b2ab8c4cf0f8658d8b2df184f65",
    ("json", 1): "0ddceecd80b5659ac2044d11eea56656df6593347d380127cb28e75d2ab035b6",
    ("json", 2): "9b140c51e3c58d1abb6c0aec992f7eb5cdddba6d2a23102c74e24999848c836d",
    ("json", 3): "356137cbdfd8a2b48f897adffd3323fbab84cff3d1b273bd319b2e7105cf6b26",
    ("json", 4): "26bc870ed0f458248624828286b88f213883f962928c6927bbe07caddf55051f",
    ("json", 5): "296778d9e2b6312543bb677e43a91f7914f5dd44b3377b6a143d264ccd3bc6b9",
    ("json", 6): "73ee06cc9c3d7831a5a54de686ae376848fd4441a652300f64cc85c55f39aece",
    ("json", 7): "a004ed5aa45e0c5a50aa292ce6d05d42f1d133a5bb77f4ae6fdaec449c244d15",
    ("json", 8): "292c7fff6ee0f3b348e1c4d151fea64728391d7c19767c3170e9ad787d3d0718",
    ("json", 9): "d288750d54f3c188f0e8c2fda501a10f8c992701da6d6ef1cce53ecfde32df9f",
}


@pytest.mark.parametrize("fmt, n", list(BUILD_DIGESTS))
def test_build_output_is_pinned(fmt, n, capsys):
    assert run_cli("build", str(n), "--format", fmt) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_DIGESTS[fmt, n]


TEXT_STDOUT_COMMANDS = {
    "csv": ("build", "7", "--format", "csv"),
    "dot": ("build", "7", "--format", "dot"),
    "json": ("build", "7", "--format", "json"),
    "invariants": ("invariants", "3"),
    "sequence": ("sequence", "edges", "--max-n", "5"),
    "verify": ("verify", "--max-n", "6"),
    "mela": ("mela",),
    # a text stream encoding UTF-16 over a byte buffer: bytes written beneath
    # its text layer would decode as other characters
    "csv_utf16": ("build", "7", "--format", "csv"),
}


@pytest.mark.parametrize("command", list(TEXT_STDOUT_COMMANDS))
def test_build_to_a_text_stdout_without_a_byte_buffer(command, tmp_path):
    # a stdout with no descriptor (io.StringIO has no .buffer either) gets
    # every command's output as text, the same text it writes to --out
    argv = TEXT_STDOUT_COMMANDS[command]
    if command.endswith("_utf16"):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-16", newline="")
    else:
        stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli(*argv) == 0
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    stdout.seek(0)
    assert stdout.read().encode() == out.read_bytes()
    if argv[0] == "build":
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_DIGESTS[argv[3], 7]


def test_a_build_that_fails_midway_leaves_a_text_stdout_empty(monkeypatch):
    # a stdout with no descriptor gets the output when the command ends, so
    # a failure after four vertices' lines leaves it nothing
    slices = cli._meeting_slices

    def failing_slices(n, u, *args):
        if u == 5:
            raise OSError("no space left on device")
        return slices(n, u, *args)

    monkeypatch.setattr(cli, "_meeting_slices", failing_slices)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert run_cli("build", "4", "--format", "csv") == 1
    assert stdout.getvalue() == ""
    assert stderr.getvalue() == "setgraph: no space left on device\n"


def test_csv_writer_matches_the_shared_edge_writer():
    # render_csv cuts its lines from a digit-patched text; _write_edges, which
    # DOT and JSON use, formats the names it cuts and is the reference. Both
    # cut with _meeting_slices, so the walk itself is held by
    # test_meeting_slices_are_the_masks_above_u_that_meet_it, and the text
    # by BUILD_DIGESTS too. n = 10 and 11 cross the widths of u at 10, 100
    # and 1000, where render_csv rebuilds its text, and every carry in
    # between, where it rewrites more than u's last digit column
    for n in range(1, 12):
        fast, reference = io.BytesIO(), io.BytesIO()
        cli.render_csv(n, fast)
        cli._write_edges(reference, n, [str(m) for m in range(1 << n)], "{u},{v}\n")
        assert fast.getvalue() == reference.getvalue()


class _RecordingRaw(io.RawIOBase):
    """A raw byte stream that keeps the size of each write and the sha256 of all."""

    def __init__(self):
        self.sizes = []
        self.hash = hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.sizes.append(len(data))
        self.hash.update(data)
        return len(data)


def test_csv_is_written_in_blocks(tmp_path, monkeypatch):
    # render_csv writes one chunk per vertex; the stream _output opens
    # gathers them, so the raw writes are blocks of about _WRITE_BLOCK bytes
    n = 11
    raw, opened = _RecordingRaw(), []

    def recording_open(file, mode, buffering):
        opened.append((file, mode, buffering))
        return io.BufferedWriter(raw, buffering)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = str(tmp_path / "g.csv")
    assert run_cli("build", str(n), "--format", "csv", "--out", out) == 0
    assert opened == [(out, "wb", cli._WRITE_BLOCK)]
    assert raw.hash.hexdigest() == BUILD_DIGESTS["csv", n]
    lines = [sum(map(len, runs)) for runs in _meeting_run_lists(n)]  # per vertex
    largest_chunk = max(lines) * len(b"2047,2047\n")
    assert len(raw.sizes) < len(lines) // 16
    assert min(raw.sizes[:-1]) >= cli._WRITE_BLOCK - largest_chunk
    assert max(raw.sizes) <= cli._WRITE_BLOCK


def test_a_report_is_written_through_a_buffer_of_its_own_size(tmp_path, monkeypatch):
    # a report of a few KB gets a buffer of its size, not a whole
    # _WRITE_BLOCK; the text lands in one raw write all the same
    raw, opened = _RecordingRaw(), []

    def recording_open(file, mode, buffering):
        opened.append((file, mode, buffering))
        return io.BufferedWriter(raw, buffering)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = str(tmp_path / "inv.json")
    assert run_cli("invariants", "5", "--out", out) == 0
    assert opened == [(out, "wb", raw.sizes[0])]
    assert raw.sizes[0] < cli._WRITE_BLOCK and len(raw.sizes) == 1


class _Sha256Sink:
    """A binary stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, data):
        self.hash.update(data)
        return len(data)


def test_build_13_csv_is_pinned():
    # 319 MB, hashed as it streams so that no file is written
    sink = _Sha256Sink()
    cli.render_csv(13, sink)
    assert sink.hash.hexdigest() == (
        "37556e7dc667621c44259f439908a96d98c443b433b085f0eb52bcf6928a117b"
    )


def test_build_size_bound_covers_every_output():
    for n in range(1, 10):
        for fmt, render in (("csv", cli.render_csv), ("dot", cli.render_dot),
                            ("json", cli.render_graph_json)):
            fh = io.BytesIO()
            render(n, fh)
            assert cli.build_size_bound(n, fmt) >= len(fh.getvalue()), (fmt, n)
    # perfbench pins 76,980,011 bytes for build 12 --format csv
    assert cli.build_size_bound(12, "csv") >= 76_980_011
    # every format is admitted at n <= 14, the default materialize cap
    for fmt in ("csv", "dot", "json"):
        assert cli.build_size_bound(14, fmt) <= cli.BUILD_MAX_BYTES
    with pytest.raises(ValueError, match="unknown build format"):
        cli.build_size_bound(3, "xml")


@pytest.mark.parametrize("n, fmt", [(16, "csv"), (15, "json")])
def test_build_over_the_size_limit_exits_3_and_leaves_no_file(
    n, fmt, tmp_path, capsys, monkeypatch
):
    # should the bound not refuse, the exporter fails at once instead of
    # writing gigabytes
    def exporter_reached(*args, **kwargs):
        raise AssertionError("the exporter ran")

    for name in ("render_csv", "render_dot", "render_graph_json"):
        monkeypatch.setattr(cli, name, exporter_reached)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {"materialize_max_n": n}}))
    out = tmp_path / "g.out"
    assert run_cli("--config", str(config), "build", str(n), "--format", fmt,
                   "--out", str(out)) == 3
    assert not out.exists()
    bound = cli.build_size_bound(n, fmt, caps=DEFAULT_CAPS.with_overrides(materialize_max_n=n))
    assert capsys.readouterr() == ("", (
        f"setgraph: resource guard: build {n} --format {fmt} may write up to {bound} "
        f"bytes, over the limit of {cli.BUILD_MAX_BYTES}\n"
    ))


def test_closed_pipe_exits_1_with_one_line(child_env):
    # the reader stops after the first line of a 77 MB export: the write to
    # the closed pipe fails inside main, which names it on one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "setgraphs", "build", "12", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
    )
    assert proc.stdout.readline() == b"1,3\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b"setgraph: [Errno 32] Broken pipe\n"


STDOUT_FAILURE_COMMANDS = {
    "invariants": ("invariants", "14", "--table", "degrees"),  # 325,242 bytes
    "build": ("build", "9", "--format", "csv"),  # 921,764 bytes
}


def test_stdout_failures_exit_1_with_one_line(child_env):
    # every write to stdout lands whole or fails, with or without
    # PYTHONUNBUFFERED: an unbuffered stdout's raw write may take only part
    # of what it is given, and a buffered one fails again at exit with a
    # traceback and exit 120 unless the failure is met inside main
    children = {}
    for unbuffered in (True, False):
        env = {k: v for k, v in child_env.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for kind in ("closed", "full"):
            for command, argv in STDOUT_FAILURE_COMMANDS.items():
                r, w = os.pipe()
                if kind == "full":  # full, and a write to it does not block
                    os.set_blocking(w, False)
                    with contextlib.suppress(BlockingIOError):
                        while True:
                            os.write(w, b"x" * 4096)
                children[command, kind, unbuffered] = r, subprocess.Popen(
                    [sys.executable, "-m", "setgraphs", *argv],
                    stdout=w, stderr=subprocess.PIPE, env=env,
                )
                os.close(w)
    for (_, kind, _), (r, _) in children.items():
        if kind == "closed":  # as `| head -c 10`: the reader leaves mid-write
            os.read(r, 10)
            os.close(r)
    outcomes = {}
    for (command, kind, unbuffered), (r, proc) in children.items():
        _, err = proc.communicate(timeout=60)
        if kind == "full":
            os.close(r)
        outcomes[command, kind, unbuffered] = (proc.returncode, err.count(b"\n"), err[:10])
    assert outcomes == {case: (1, 1, b"setgraph: ") for case in children}


def test_edge_stream_matches_pair_scan():
    # the plain double loop over mask pairs, independent of the run splitting
    for n in range(1, 9):
        top = 1 << n
        pairs = [(u, v) for u in range(1, top) for v in range(u + 1, top) if u & v]
        runs = _meeting_run_lists(n)
        assert [(u, v) for u, u_runs in enumerate(runs, start=1)
                for run in u_runs for v in run] == pairs


@pytest.mark.parametrize(
    "argv, code",
    [(("build", "15", "--format", "csv"), 3), (("build", "0", "--format", "dot"), 2)],
    ids=["over-cap", "bad-n"],
)
def test_refused_build_leaves_out_alone(argv, code, tmp_path):
    missing = tmp_path / "missing.out"
    assert run_cli(*argv, "--out", str(missing)) == code
    assert not missing.exists()
    kept = tmp_path / "kept.out"
    kept.write_text("earlier content\n")
    assert run_cli(*argv, "--out", str(kept)) == code
    assert kept.read_text() == "earlier content\n"


# stdout sha256 of `setgraph verify --claims all --max-n N --threads 1`,
# copied from PINNED_DIGESTS in perfbench/run.py (the verify_n12 workload),
# which the benchmark checks each of its runs against
VERIFY_DIGESTS = {
    6: "49affc8205319c00283fe3e96dcc9b338d6353de017fe22281cf01eb7623dff1",
    12: "72f89ab6dcda9ff81a460d300265c6477dad84e752cd5ae0b8b1f6d0ba4cc73d",
}


@pytest.mark.parametrize("max_n", list(VERIFY_DIGESTS))
def test_verify_output_is_pinned(max_n, capsys):
    assert run_cli("verify", "--claims", "all", "--max-n", str(max_n), "--threads", "1") == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[max_n]


@pytest.mark.parametrize(
    "command, checks",
    [(("verify", "--max-n", "12"), [(verify, "run_claims")]),
     (("mela",), [(cli, "check_closure"), (cli, "check_divisibility")])],
    ids=["verify", "mela"],
)
def test_bad_report_format_is_refused_before_any_check(
    command, checks, monkeypatch, tmp_path, capsys
):
    ran = []
    for module, name in checks:
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: ran.append(name))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "xml"}))
    out = tmp_path / "report.out"
    assert run_cli("--config", str(config), *command, "--out", str(out)) == 2
    assert capsys.readouterr().err == "setgraph: unknown report format 'xml'\n"
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("key, bad", [("format", ["csv"]), ("out", 5)])
def test_build_config_type_is_a_usage_error(key, bad, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: bad}))
    assert run_cli("--config", str(config), "build", "2") == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_value_table_export(capsys):
    assert main(["invariants", "3", "--table", "degrees"]) == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["v_1_1", "1", "3"]
    assert rows[-1] == ["v_3_1", "7", "6"]
    # the table carries the tightness values too, vertex by vertex
    table = render_value_table(4)
    for line in table.splitlines():
        _, mask, value = line.split(",")
        assert int(value) == tightness(4, int(mask))
    assert main(["invariants", "4", "--table", "tightness"]) == 0
    assert capsys.readouterr().out == table
    # n is checked before it is compared with a cap
    with pytest.raises(ValueError, match="got '3'$"):
        render_value_table("3")
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "3", "--table", "girth"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_value_table_refuses_what_invariants_refuses(n, capsys):
    assert run_cli("invariants", n) == 2
    plain = capsys.readouterr()
    assert plain.err == f"setgraph: ground-set size must be a positive integer, got {n}\n"
    for table in ("degrees", "tightness"):
        assert run_cli("invariants", n, "--table", table) == 2
        assert capsys.readouterr() == plain
    # above the cap the table keeps its own refusal
    assert run_cli("invariants", "15", "--table", "degrees") == 3
    assert capsys.readouterr().err == (
        "setgraph: resource guard: per-vertex table capped at n <= 14, got 15\n"
    )


def test_invariants_n3():
    report = invariant_report(3)
    assert report["vertex_count"] == 7
    assert report["edge_count"] == 15
    assert report["degree_min"] == 3
    assert report["degree_max"] == 6
    assert report["triangles_exact"] == 13
    assert report["clique_number"] == 4
    assert report["chromatic_number"] == 4
    assert report["independence_number"] == 3
    assert report["domination_number"] == 1
    assert report["bondage_number"] == 1
    assert report["mcpherson_number"] == 3
    assert report["apex_primitive_degree"] == 9
    assert report["tightness_checksum"] == 30
    assert report["reasons"] == {}


def test_invariants_n1():
    report = invariant_report(1)
    assert report["vertex_count"] == 1
    assert report["edge_count"] == 0
    assert report["triangles_exact"] == 0
    assert report["chromatic_number"] == 1
    assert report["independence_number"] == 1
    assert report["domination_number"] == 1
    assert report["mcpherson_number"] == 0
    assert report["bondage_number"] is None
    assert "bondage_number" in report["reasons"]


def test_invariants_n20_caps():
    report = invariant_report(20)
    assert report["triangles_exact"] is None
    assert report["triangles_corrected"] is None
    assert "triangles_exact" in report["reasons"]
    assert "triangles_corrected" in report["reasons"]
    assert report["vertex_count"] == 2**20 - 1
    assert report["clique_number"] == 2**19


# sha256 of `invariants N` on stdout; the same digests pin the census_n13
# workload in perfbench/run.py
INVARIANT_DIGESTS = {
    6: "81f8d3aeb8a6d8aba712667a34cf3360863704f0c56c6e7b308eedd326be3801",
    13: "73535dadc03e9c3741a7b0e26f6de64aa6686ef91d195deaf1c434fbfb0f6462",
}


@pytest.mark.parametrize("n", list(INVARIANT_DIGESTS))
def test_invariants_output_is_pinned(n, capsys):
    assert run_cli("invariants", str(n)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INVARIANT_DIGESTS[n]


def test_invariant_report_runs_neither_materialize_nor_the_kernel(builds, monkeypatch):
    # the triangle fields come from hole_report, which builds no graph
    counted = []
    monkeypatch.setattr(holes, "triangle_count_exact", lambda *a, **k: counted.append(a))
    for n in (5, 8, 13):
        invariant_report(n)
    assert builds == [] and counted == []


def test_only_verify_builds_graphs(builds):
    commands = [("invariants", "13"), ("invariants", "12", "--table", "degrees"),
                ("build", "6", "--format", "dot"), ("build", "6", "--format", "json"),
                ("build", "6", "--format", "csv"), ("sequence", "holes", "--max-n", "19"),
                ("mela",)]
    for argv in commands:
        assert run_cli(*argv) == 0, argv
    assert builds == []
    # the spy does see a build: verify compares explicit rows with the formulas
    assert run_cli("verify", "--claims", "C11", "--max-n", "4") == 0
    assert builds


def test_route_mismatch_exits_4_with_one_line(monkeypatch, capsys):
    # a fault in the program, not bad input: not the usage error's exit 2
    real = holes.triangle_count_corrected
    monkeypatch.setattr(holes, "triangle_count_corrected", lambda *a, **k: real(*a, **k) + 1)
    assert run_cli("invariants", "3") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "setgraph: routes disagree: n=3: the per-size incidences give h_exact = 13, "
        "the corrected recursion gives 14\n"
    )


def _invariants_3_with_a_skewed_neighbour_row(child_env, extra):
    # the step to the neighbour row of {a3} in G(3) also flips the bits of extra
    code = f"""
import sys
from setgraphs import cli, holes
real = holes._with_element
holes._with_element = lambda row, b: real(row, b) ^ ({extra} if (row, b) == (1, 0) else 0)
sys.exit(cli.main(["invariants", "3"]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    return proc.stderr


def test_route_mismatch_exits_4_in_a_child(child_env):
    # the skewed row of test_hole_report_rejects_a_skewed_row_that_passes_every_guard
    assert _invariants_3_with_a_skewed_neighbour_row(child_env, 0b10010) == (
        "setgraph: routes disagree: n=3: the per-size incidences give h_exact = 14, "
        "the corrected recursion gives 13\n"
    )


def test_a_failed_walk_guard_exits_4_in_a_child(child_env):
    # the per-size route reads no input, so its failed guard is a fault in
    # the program, not the usage error's exit 2
    assert _invariants_3_with_a_skewed_neighbour_row(child_env, 0b110) == (
        "setgraph: routes disagree: n=3: rows are not symmetric: "
        "odd doubled complement incidence\n"
    )


def test_invariants_exact_triangles_equal_the_kernel():
    # invariant_report no longer runs the Goodman kernel; it must still agree
    for n in range(1, 12):
        assert invariant_report(n)["triangles_exact"] == triangle_count_exact(materialize(n))


def test_sequence_rows():
    assert sequence_rows("vertices", 5) == [(1, 1), (2, 3), (3, 7), (4, 15), (5, 31)]
    assert sequence_rows("edges", 5) == [(1, 0), (2, 2), (3, 15), (4, 80), (5, 375)]
    assert sequence_rows("holes", 4) == [(1, 0), (2, 0), (3, 13), (4, 222)]
    assert sequence_rows("mela", 4) == [(1, 1), (2, 3), (3, 7), (4, 15)]
    assert sequence_rows("degree_min", 3) == [(1, 0), (2, 1), (3, 3)]
    assert sequence_rows("degree_max", 3) == [(1, 0), (2, 2), (3, 6)]
    with pytest.raises(ValueError):
        sequence_rows("girth", 3)


@pytest.mark.parametrize("bad", [True, 2.5, "3"])
def test_sequence_rows_refuses_a_max_n_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match="max_n must be an integer"):
        sequence_rows("edges", bad)


def test_sequence_cli_output(capsys):
    assert run_cli("sequence", "edges", "--max-n", "5") == 0
    out = capsys.readouterr().out
    assert out == "1,0\n2,2\n3,15\n4,80\n5,375\n"


def test_verify_cli_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("verify", "--claims", "C11", "--max-n", "6", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    (claim,) = doc["claims"]
    assert claim["id"] == "C11"
    assert claim["status"] == "REFUTED"
    assert claim["counterexample"] == {"n": 3, "expected": 12, "actual": 13}


def test_verify_exit_code_zero_despite_refutation(tmp_path):
    assert run_cli("verify", "--claims", "C10,C11", "--max-n", "4",
                   "--out", str(tmp_path / "r.json")) == 0


def test_verify_threads_flag_same_report(tmp_path):
    lone, threaded = tmp_path / "t1.json", tmp_path / "t2.json"
    assert run_cli("verify", "--claims", "all", "--max-n", "4", "--out", str(lone)) == 0
    assert run_cli("verify", "--claims", "all", "--max-n", "4", "--threads", "3",
                   "--out", str(threaded)) == 0
    assert lone.read_bytes() == threaded.read_bytes()


def test_mela_cli(tmp_path):
    out = tmp_path / "mela.json"
    assert run_cli("mela", "--max-index", "20", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert [c["id"] for c in doc["claims"]] == ["C21", "C22"]
    assert all(c["status"] == "CONFIRMED" for c in doc["claims"])


@pytest.mark.parametrize("mela_cap, max_index, code, message", [
    (None, 1, 2, "setgraph: need max_index >= 2 for a non-trivial check, got 1\n"),
    (10, 6, 3, "setgraph: resource guard: divisibility check needs 2*max_index <= 10; "
               "got max_index=6\n"),
])
def test_mela_refusal_names_max_index(tmp_path, capsys, mela_cap, max_index, code, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {"mela_max_index": mela_cap}} if mela_cap else {}))
    assert run_cli("--config", str(config), "mela", "--max-index", str(max_index)) == code
    assert capsys.readouterr() == ("", message)


def test_usage_and_guard_exit_codes(tmp_path):
    assert run_cli("verify", "--claims", "C99", "--max-n", "3") == 2
    assert run_cli("build", "15", "--format", "csv", "--out", str(tmp_path / "x.csv")) == 3
    assert run_cli("sequence", "holes", "--max-n", "20") == 3
    with pytest.raises(SystemExit) as exc:
        run_cli("sequence", "girth", "--max-n", "3")
    assert exc.value.code == 2


def test_config_file_flags_win(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_n": 3, "format": "md"}))
    out = tmp_path / "seq.txt"
    assert run_cli("--config", str(config), "sequence", "vertices", "--out", str(out)) == 0
    assert out.read_text() == "1,1\n2,3\n3,7\n"
    # explicit flag beats the config value
    assert run_cli("--config", str(config), "sequence", "vertices", "--max-n", "2",
                   "--out", str(out)) == 0
    assert out.read_text() == "1,1\n2,3\n"


def test_config_is_read_as_utf8(child_env, tmp_path):
    # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding: a
    # non-ASCII value must neither fail to decode under an ASCII locale nor
    # raise the EncodingWarning of a read in the locale's encoding
    config = tmp_path / "config.json"
    config.write_text('{"note": "\u00e9"}', encoding="utf-8")
    argv = ["-m", "setgraphs", "--config", str(config), "sequence", "edges", "--max-n", "3"]
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    warn = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    for flags, env in (([], ascii_locale), (warn, {})):
        proc = subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                              env={**child_env, **env})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"1,0\n2,2\n3,15\n", b"")


def test_config_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # some editors save UTF-8 with a BOM; RFC 8259 lets a parser ignore it
    config = tmp_path / "bom.json"
    config.write_bytes(b'\xef\xbb\xbf{"max_n": 3}')
    assert run_cli("--config", str(config), "sequence", "edges") == 0
    assert capsys.readouterr() == ("1,0\n2,2\n3,15\n", "")


def test_config_cap_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {"count_max_n": 25}}))
    out = tmp_path / "seq.txt"
    assert run_cli("--config", str(config), "sequence", "vertices", "--max-n", "25",
                   "--out", str(out)) == 0
    assert out.read_text().splitlines()[-1] == f"25,{2**25 - 1}"
    config.write_text(json.dumps({"caps": {"no_such_cap": 1}}))
    assert run_cli("--config", str(config), "sequence", "vertices", "--out", str(out)) == 2


def test_config_bad_cap_value_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    for bad in ("13", 13.0, True, -1, None):
        config.write_text(json.dumps({"caps": {"materialize_max_n": bad}}))
        assert run_cli("--config", str(config), "invariants", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("setgraph: cap materialize_max_n")
        assert err.count("\n") == 1


def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    assert run_cli("--config", str(config), "invariants", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "setgraph: config file must hold a JSON object\n"


def test_unwritable_out_exits_1_with_one_line(tmp_path, capsys):
    # the OSError arm of main: the file system refuses, not the input
    out = tmp_path / "missing" / "x.csv"
    assert run_cli("build", "2", "--format", "csv", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("setgraph: ")
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_threads_is_validated_then_ignored(tmp_path, capsys):
    # any thread count >= 1 runs and leaves the output unchanged; 0 is a
    # usage error with a one-line message, from the flag or the config
    assert run_cli("invariants", "3") == 0
    lone = capsys.readouterr().out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": 10**6}))
    assert run_cli("invariants", "3", "--threads", "64") == 0
    assert capsys.readouterr().out == lone
    assert run_cli("--config", str(config), "invariants", "3") == 0
    assert capsys.readouterr().out == lone
    config.write_text(json.dumps({"threads": 0}))
    for argv in (("--config", str(config), "invariants", "3"),
                 ("--config", str(config), "verify", "--claims", "C1"),
                 ("--config", str(config), "invariants", "3", "--table", "degrees"),
                 ("invariants", "3", "--threads", "0"),
                 ("invariants", "3", "--table", "degrees", "--threads", "0"),
                 ("invariants", "3", "--table", "tightness", "--threads", "-5"),
                 ("verify", "--claims", "C1", "--threads", "0")):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("setgraph: threads must be an integer >= 1")
        assert err.count("\n") == 1


def _run_subprocess(env, *args):
    return subprocess.run(
        [sys.executable, "-m", "setgraphs", *args],
        capture_output=True,
        check=True,
        env=env,
    ).stdout


def test_outputs_byte_identical_across_runs(child_env):
    verify_args = ("verify", "--claims", "all", "--max-n", "4")
    build_args = ("build", "5", "--format", "csv")
    assert _run_subprocess(child_env, *verify_args) == _run_subprocess(child_env, *verify_args)
    assert _run_subprocess(child_env, *build_args) == _run_subprocess(child_env, *build_args)


@pytest.mark.parametrize(
    "caps, claim_id, note",
    [
        ({"materialize_max_n": 3}, "C10", "range clamped to n <= 3 (cap); n <= 6 requested"),
        ({"materialize_max_n": 3}, "C14", "range clamped to n <= 3 (cap); n <= 6 requested"),
        ({"materialize_max_n": 3}, "C16", "range clamped to n <= 3 (cap); n <= 6 requested"),
        ({"materialize_max_n": 3}, "C17", "range clamped to n <= 3 (cap); n <= 6 requested"),
        ({"count_max_n": 6}, "C9", "extension-map enumeration cross-checked for n <= 5"),
    ],
)
def test_verify_clamps_to_lowered_caps(tmp_path, caps, claim_id, note):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": caps}))
    out = tmp_path / "r.json"
    assert run_cli("--config", str(config), "verify", "--max-n", "6", "--out", str(out)) == 0
    by_id = {c["id"]: c for c in json.loads(out.read_text())["claims"]}
    assert note in by_id[claim_id]["notes"]


@pytest.mark.parametrize(
    "cap, value, claim_id, note",
    [
        ("clique_oracle_max_n", 7, "C10", "range clamped to n <= 6 (cap); n <= 7 requested"),
        ("chromatic_oracle_max_n", 5, "C13", "exact search for n <= 4"),
        ("mis_oracle_max_n", 6, "C14", "range clamped to n <= 5 (cap); n <= 6 requested"),
        ("domination_oracle_max_n", 6, "C15", "exact minimum dominating set for n <= 5"),
        ("bondage_oracle_max_n", 6, "C16", "range clamped to n <= 5 (cap); n <= 6 requested"),
        ("cover_oracle_max_n", 6, "C17", "range clamped to n <= 5 (cap); n <= 6 requested"),
    ],
)
def test_verify_clamps_raised_oracle_caps_to_the_oracle_bounds(
    tmp_path, cap, value, claim_id, note
):
    # G(n) has 2^n - 1 vertices, so an oracle bound of 16 vertices admits
    # n <= 4 and one of 31 or 63 admits n <= 5 or 6, whatever the cap says
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {cap: value}}))
    out = tmp_path / "r.json"
    assert run_cli("--config", str(config), "verify", "--claims", claim_id,
                   "--max-n", str(value), "--out", str(out)) == 0
    (verdict,) = json.loads(out.read_text())["claims"]
    assert verdict["status"] in ("CONFIRMED", "REFUTED")
    assert any(note in text for text in verdict["notes"])


@pytest.mark.parametrize("max_n", [1, 3, 7])
@pytest.mark.parametrize("cap, value", [
    ("count_max_n", 0), ("count_max_n", 1), ("count_max_n", 2), ("count_max_n", 5),
    ("materialize_max_n", 0), ("corrected_max_n", 0),
    ("mela_max_index", 0), ("mela_max_index", 3), ("mela_max_index", 5),
])
def test_verify_runs_under_any_lowered_cap(tmp_path, cap, value, max_n):
    # a cap below max_n clamps or skips claims; it never stops the run
    verdicts = run_claims("all", max_n, caps=DEFAULT_CAPS.with_overrides(**{cap: value}))
    assert len(verdicts) == 22
    assert all(len(v.notes) == 1 for v in verdicts if v.status == SKIPPED)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {cap: value}}))
    out = tmp_path / "r.json"
    assert run_cli("--config", str(config), "verify", "--max-n", str(max_n),
                   "--out", str(out)) == 0


@pytest.mark.parametrize("key, argv", [
    ("max_n", ("sequence", "vertices")),
    ("max_n", ("verify", "--claims", "C1")),
    ("max_index", ("mela",)),
    ("threads", ("verify", "--claims", "C1")),
    ("threads", ("invariants", "3")),
    ("threads", ("invariants", "3", "--table", "degrees")),
])
@pytest.mark.parametrize("bad", [True, 2.9, "3", None, -1])
def test_config_setting_must_be_an_int(tmp_path, capsys, key, argv, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: bad}))
    assert run_cli("--config", str(config), *argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"setgraph: {key} must be an integer")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", [5, None, True, [5], {"C1": 1}])
def test_config_claims_must_be_strings(tmp_path, capsys, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"claims": bad}))
    assert run_cli("--config", str(config), "verify", "--max-n", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("setgraph: claims must be a string or a list of strings")
    assert err.count("\n") == 1


def test_unknown_claim_id_next_to_all_is_a_usage_error(tmp_path, capsys):
    # 'all' must not swallow an id that names no claim, from the flag or the config
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"claims": ["all", "C99"]}))
    out = tmp_path / "report.json"
    for argv in (("verify", "--claims", "all,C99"), ("--config", str(config), "verify")):
        assert run_cli(*argv, "--max-n", "2", "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "setgraph: unknown claim id(s): C99\n")
        assert not out.exists()


def test_any_config_value_runs_or_exits_with_one_line():
    # random JSON for every config key: the CLI runs, or exits 2 (usage) or
    # 3 (resource guard) with a one-line message; an exception escaping main
    # would be a traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
               | st.text(max_size=6))
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                     max_size=3),
        max_leaves=5,
    )
    # cap values stay small where they are ints, so that a raised cap paired
    # with a huge max_n cannot turn into a long run
    cap_values = (st.none() | st.booleans() | st.integers(-3, 24) | st.floats(allow_nan=False)
                  | st.text(max_size=4) | st.lists(st.integers(0, 5), max_size=2))
    cap_names = tuple(DEFAULT_CAPS.as_dict())
    commands = [("sequence", "vertices"), ("verify", "--claims", "C1"), ("mela",),
                ("invariants", "3"), ("build", "2"), ("verify", "--max-n", "2")]

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        command=st.sampled_from(commands),
        config=st.fixed_dictionaries({}, optional={
            "max_n": values,
            "max_index": values,
            "claims": values | st.sampled_from(["C1", "C1,C8", "all", ["C8", "C1"]]),
            "threads": values,
            "format": values | st.sampled_from(["json", "md", "csv", "dot"]),
            "out": values.filter(lambda v: not isinstance(v, str)) | st.just("FILE"),
            "caps": st.dictionaries(st.sampled_from(cap_names), cap_values, max_size=3) | values,
        }),
    )
    def check(command, config):
        with tempfile.TemporaryDirectory() as tmp:
            if config.get("out") == "FILE":
                config["out"] = os.path.join(tmp, "out")
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run_cli("--config", path, *command)
            if code:
                assert code in (2, 3), (code, err.getvalue())
                assert err.getvalue().startswith("setgraph: ")
                assert err.getvalue().count("\n") == 1

    check()


def test_cli_import_leaves_numpy_out(child_env):
    code = "import sys, setgraphs.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

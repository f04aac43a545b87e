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
    materialize,
    run_claims,
    tightness,
)
from setgraphs.cli import (
    invariant_report,
    main,
    render_value_table,
    sequence_rows,
)
from setgraphs.core import _meeting_runs


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


def _meeting_run_lists(n: int) -> list[list[tuple[int, int]]]:
    return [list(_meeting_runs(n, u)) for u in range(1, 1 << n)]


def test_edge_stream_count_matches_closed_form_to_12():
    # the runs the exporters slice their names from hold every edge once
    for n in (11, 12):
        total = sum(hi - lo for runs in _meeting_run_lists(n) for lo, hi in runs)
        assert total == edge_count_closed(n)


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


def test_edge_stream_matches_pair_scan():
    # the plain double loop over mask pairs, independent of the run splitting
    for n in range(1, 9):
        top = 1 << n
        pairs = [(u, v) for u in range(1, top) for v in range(u + 1, top) if u & v]
        runs = _meeting_run_lists(n)
        assert [(u, v) for u, u_runs in enumerate(runs, start=1)
                for lo, hi in u_runs for v in range(lo, hi)] == pairs


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


def test_sequence_rows():
    assert sequence_rows("vertices", 5) == [(1, 1), (2, 3), (3, 7), (4, 15), (5, 31)]
    assert sequence_rows("edges", 5) == [(1, 0), (2, 2), (3, 15), (4, 80), (5, 375)]
    assert sequence_rows("holes", 4) == [(1, 0), (2, 0), (3, 13), (4, 222)]
    assert sequence_rows("mela", 4) == [(1, 1), (2, 3), (3, 7), (4, 15)]
    assert sequence_rows("degree_min", 3) == [(1, 0), (2, 1), (3, 3)]
    assert sequence_rows("degree_max", 3) == [(1, 0), (2, 2), (3, 6)]
    with pytest.raises(ValueError):
        sequence_rows("girth", 3)


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
                ("invariants", "3"), ("build", "2")]

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        command=st.sampled_from(commands),
        config=st.fixed_dictionaries({}, optional={
            "max_n": values,
            "max_index": values,
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

"""Harness round-trips, exit codes, and output determinism."""

import hashlib
import json
import math

import pytest

from dyngibbs import cli
from dyngibbs.errors import AsymmetricEdge, BadArity, ParseError
from dyngibbs.mrf import NEG_INF


INSTANCE = {
    "q": 2,
    "vertices": [{"id": v, "phi": [0.0, 0.1]} for v in range(5)],
    "edges": [{"u": i, "v": i + 1, "phi": [[0.3, -0.3], [-0.3, 0.3]]}
              for i in range(4)],
}

UPDATES = (
    '{"ops":[{"op":"set_vertex_phi","v":1,"phi":[0.2,-0.2]}]}\n'
    '{"ops":[{"op":"del_edge","u":2,"v":3},'
    '{"op":"add_edge","u":0,"v":4,"phi":[[0.2,-0.2],[-0.2,0.2]]}]}\n'
)

QUERIES = [{"id": "m", "kind": "marginal", "a": [0, 1]},
           {"kind": "posterior", "a": [2], "b": [4], "tau_b": [0]}]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "inst.json").write_text(json.dumps(INSTANCE))
    (tmp_path / "updates.jsonl").write_text(UPDATES)
    (tmp_path / "queries.json").write_text(json.dumps(QUERIES))
    return tmp_path


def run_args(workdir, out="out", **over):
    args = {
        "--instance": str(workdir / "inst.json"),
        "--updates": str(workdir / "updates.jsonl"),
        "--queries": str(workdir / "queries.json"),
        "--schedule": "N=8:0:0,eps=0.2:0:0",
        "--delta": "given:0.5",
        "--seed": "3",
        "--out": str(workdir / out),
        "--length-override": "150",
    }
    args.update(over)
    flat = ["run"]
    for k, v in args.items():
        if v is not None:
            flat += [k, v]
    return flat


class TestInstanceFormat:
    def test_round_trip(self, workdir):
        inst = cli.parse_instance(workdir / "inst.json")
        assert inst.n == 5 and inst.q == 2
        doc = cli.serialize_instance(inst)
        (workdir / "again.json").write_text(json.dumps(doc))
        again = cli.parse_instance(workdir / "again.json")
        assert cli.serialize_instance(again) == doc

    def test_neg_inf_sentinel(self, tmp_path):
        doc = {"q": 2,
               "vertices": [{"id": 0, "phi": [0.0, "-inf"]}],
               "edges": []}
        (tmp_path / "i.json").write_text(json.dumps(doc))
        inst = cli.parse_instance(tmp_path / "i.json")
        assert inst.vertex_potential(0).weights[1] == NEG_INF
        assert cli.serialize_instance(inst)["vertices"][0]["phi"][1] == "-inf"

    def test_parse_errors(self, tmp_path):
        cases = [
            ("not json", ParseError),
            ('{"q": 1, "vertices": [], "edges": []}', ParseError),
            ('{"q": 2, "vertices": [{"id": 0, "phi": [0.0]}], "edges": []}', BadArity),
            ('{"q": 2, "vertices": [{"id": 0, "phi": [0, 0]}, {"id": 1, "phi": [0, 0]}],'
             ' "edges": [{"u": 0, "v": 1, "phi": [[1, 2], [3, 1]]}]}', AsymmetricEdge),
            ('{"q": 2, "vertices": [{"id": 0, "phi": [0, 0]}],'
             ' "edges": [{"u": 0, "v": 5, "phi": [[0, 0], [0, 0]]}]}', ParseError),
        ]
        for text, err in cases:
            (tmp_path / "bad.json").write_text(text)
            with pytest.raises(err):
                cli.parse_instance(tmp_path / "bad.json")

    def test_update_stream_parsing(self, workdir):
        batches = cli.parse_update_stream(workdir / "updates.jsonl")
        assert len(batches) == 2

    def test_update_stream_bad_op(self, tmp_path):
        (tmp_path / "u.jsonl").write_text('{"ops":[{"op":"frobnicate"}]}\n')
        with pytest.raises(ParseError):
            cli.parse_update_stream(tmp_path / "u.jsonl")

    def test_schedule_syntax(self):
        fns = cli.parse_schedule("N=2:0.5:0,eps=0.3:0:0")
        assert fns.sample_count(16) == 8
        with pytest.raises(ValueError):
            cli.parse_schedule("N=1:2,eps=0.3:0:0")
        with pytest.raises(ValueError):
            cli.parse_schedule("N=1:0:0")


class TestRun:
    def test_outputs_and_vectors(self, workdir):
        assert cli.main(run_args(workdir)) == 0
        out = workdir / "out"
        lines = [json.loads(x) for x in
                 (out / "estimates.jsonl").read_text().splitlines()]
        # 2 queries x (initial + 2 batches)
        assert len(lines) == 6
        steps = sorted({rec["step"] for rec in lines})
        assert steps == [0, 1, 2]
        for rec in lines:
            if rec["vector"] is not None:
                assert sum(rec["vector"]) == pytest.approx(1.0, abs=1e-9)
        samples = json.loads((out / "samples.json").read_text())
        assert samples["n_chains"] == 8
        assert all(len(c) == 5 for c in samples["configs"])

    def test_byte_determinism(self, workdir):
        assert cli.main(run_args(workdir, out="a")) == 0
        assert cli.main(run_args(workdir, out="b")) == 0
        for name in ("estimates.jsonl", "samples.json"):
            assert (workdir / "a" / name).read_bytes() == \
                (workdir / "b" / name).read_bytes()

    def test_static_run_without_updates(self, workdir):
        args = run_args(workdir)
        i = args.index("--updates")
        del args[i:i + 2]
        assert cli.main(args) == 0
        lines = (workdir / "out" / "estimates.jsonl").read_text().splitlines()
        assert len(lines) == 2, "initial estimates only"


class TestExitCodes:
    def test_usage(self, workdir):
        with pytest.raises(SystemExit) as e:
            cli.main(["run", "--instance", str(workdir / "inst.json")])
        assert e.value.code == 1

    def test_parse(self, workdir):
        # Invalid JSON, then valid JSON of the wrong shape: a vertex record,
        # an op, an op's phi and a query that are numbers, and vertex ids
        # that are strings or booleans.
        originals = {"inst.json": json.dumps(INSTANCE), "updates.jsonl": UPDATES,
                     "queries.json": json.dumps(QUERIES)}
        cases = [
            ("inst.json", "{broken"),
            ("inst.json", json.dumps(dict(INSTANCE, vertices=[7]))),
            ("updates.jsonl", '{"ops":[7]}\n'),
            ("updates.jsonl", '{"ops":[{"op":"set_vertex_phi","v":1,"phi":7}]}\n'),
            ("updates.jsonl", '{"ops":[{"op":"add_vertex","v":"x","phi":[0,0]}]}\n'),
            ("updates.jsonl", '{"ops":[{"op":"del_edge","u":"a","v":1}]}\n'),
            ("updates.jsonl", '{"ops":[{"op":"set_vertex_phi","v":false,"phi":[0,0]}]}\n'),
            ("inst.json", json.dumps(dict(INSTANCE, vertices=[{"id": True, "phi": [0, 0]}]))),
            ("inst.json", json.dumps(dict(INSTANCE, edges=[{"u": 0, "v": True,
                                                            "phi": [[0, 0], [0, 0]]}]))),
            ("queries.json", json.dumps(QUERIES + [7])),
        ]
        for name, text in cases:
            (workdir / name).write_text(text)
            assert cli.main(run_args(workdir)) == 2, text
            (workdir / name).write_text(originals[name])

    def test_invalid_batch(self, workdir):
        (workdir / "updates.jsonl").write_text('{"ops":[{"op":"del_vertex","v":1}]}\n')
        assert cli.main(run_args(workdir)) == 2

    def test_infeasible(self, workdir):
        doc = {"q": 2,
               "vertices": [{"id": 0, "phi": [0.0, "-inf"]},
                            {"id": 1, "phi": ["-inf", 0.0]}],
               "edges": [{"u": 0, "v": 1,
                          "phi": [[0.0, "-inf"], ["-inf", 0.0]]}]}
        (workdir / "inst.json").write_text(json.dumps(doc))
        assert cli.main(run_args(workdir)) == 3

    def test_regime_violation(self, workdir):
        hot = {"q": 2,
               "vertices": [{"id": v, "phi": [0, 0]} for v in range(4)],
               "edges": [{"u": u, "v": v, "phi": [[2.0, -2.0], [-2.0, 2.0]]}
                         for u in range(4) for v in range(u + 1, 4)]}
        (workdir / "inst.json").write_text(json.dumps(hot))
        assert cli.main(run_args(workdir, **{"--delta": "check"})) == 3
        assert cli.main(run_args(workdir, **{"--delta": "model:ising"})) == 3

    def test_batch_out_of_regime(self, workdir):
        # Two strong couplings at vertex 2 push its influence row sum past 1
        # after the first batch; run and bench must both refuse it.
        hot = [[2.0, -2.0], [-2.0, 2.0]]
        (workdir / "updates.jsonl").write_text(json.dumps({"ops": [
            {"op": "set_edge_phi", "u": 1, "v": 2, "phi": hot},
            {"op": "set_edge_phi", "u": 2, "v": 3, "phi": hot}]}) + "\n")
        args = run_args(workdir, **{"--delta": "check"})
        assert cli.main(args) == 3
        assert cli.main(["bench"] + args[1:]) == 3


class TestDeltaSources:
    def test_given(self, workdir):
        inst = cli.parse_instance(workdir / "inst.json")
        assert cli.resolve_delta(inst, "given:0.4") == 0.4
        with pytest.raises(ValueError):
            cli.resolve_delta(inst, "given:0")

    def test_check_and_model(self, workdir):
        # the two sources are different sufficient conditions; both must
        # land in (0, 1], neither dominates the other in general
        inst = cli.parse_instance(workdir / "inst.json")
        assert 0 < cli.resolve_delta(inst, "check") <= 1
        assert 0 < cli.resolve_delta(inst, "model:ising") <= 1
        with pytest.raises(ValueError):
            cli.resolve_delta(inst, "model:unknown")


class TestBench:
    def test_report_shape(self, workdir):
        args = run_args(workdir, out="bench")
        args[0] = "bench"
        assert cli.main(args) == 0
        report = json.loads((workdir / "bench" / "bench.json").read_text())
        assert len(report["updates"]) == 2
        row = report["updates"][0]
        for key in ("dynamic_s", "baseline_s", "ratio", "r_ham", "r_graph",
                    "filter_size", "diff_d", "chains", "n"):
            assert key in row
        assert report["totals"]["dynamic_s"] > 0


class TestGolden:
    # sha256 of estimates.jsonl followed by samples.json for acceptance
    # criterion 9's run (a potential edit, an edge rewire and a vertex add
    # under --delta check), with the rewire's deletion and addition in one
    # replay. Any change to seeded output bytes shows here.
    SHA256 = "d5226c50a742cd5d237c89a3a0006f225b4d745904403056d975122ff8e463e3"

    def test_criterion_9_run_bytes(self, tmp_path):
        inst = {"q": 2,
                "vertices": [{"id": v, "phi": [0.0, 0.05]} for v in range(6)],
                "edges": [{"u": i, "v": (i + 1) % 6,
                           "phi": [[0.25, -0.25], [-0.25, 0.25]]} for i in range(6)]}
        (tmp_path / "inst.json").write_text(json.dumps(inst))
        (tmp_path / "updates.jsonl").write_text(
            '{"ops":[{"op":"set_vertex_phi","v":2,"phi":[0.15,-0.15]}]}\n'
            '{"ops":[{"op":"del_edge","u":1,"v":2},'
            '{"op":"add_edge","u":1,"v":4,"phi":[[0.2,-0.2],[-0.2,0.2]]}]}\n'
            '{"ops":[{"op":"add_vertex","v":11,"phi":[0.0,0.0]},'
            '{"op":"add_edge","u":11,"v":0,"phi":[[0.1,-0.1],[-0.1,0.1]]}]}\n')
        (tmp_path / "queries.json").write_text(json.dumps(
            [{"id": "m", "kind": "marginal", "a": [0, 3]},
             {"id": "p", "kind": "posterior", "a": [2], "b": [5], "tau_b": [1]},
             {"id": "x", "kind": "map", "a": [4], "b": [0]}]))
        out = tmp_path / "out"
        assert cli.main([
            "run",
            "--instance", str(tmp_path / "inst.json"),
            "--updates", str(tmp_path / "updates.jsonl"),
            "--queries", str(tmp_path / "queries.json"),
            "--schedule", "N=25:0:0,eps=0.1:0:0",
            "--delta", "check",
            "--seed", "31337",
            "--out", str(out),
        ]) == 0
        data = (out / "estimates.jsonl").read_bytes() + (out / "samples.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.SHA256

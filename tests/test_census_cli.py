import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bei
from bei import census, classify, cliques, degeneration, graphs, primes
from bei.census import (
    PIPELINE_VERSION,
    CensusRecord,
    analyze,
    census_graphs,
    run_census,
    run_verification,
)
from bei.cli import main
from bei.cliques import is_chordal
from bei.errors import ResourceBudgetError, RouteDisagreementError, TierExceededError
from bei.graphs import build_graph


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def test_analyze_records():
    rec = analyze(path_graph(5))
    assert (rec.reg, rec.cm, rec.licci) == (4, True, True)
    assert rec.shape == {"kind": "path"}
    diamond = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    rec = analyze(diamond)
    assert not rec.unmixed and not rec.licci
    twp = build_graph(5, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)])
    rec = analyze(twp)
    assert rec.reg == 3 and rec.licci
    assert rec.shape == {"kind": "triangle_with_paths", "r": 1, "s": 1, "t": 0}
    assert rec.routes_agree


def test_record_roundtrip():
    rec = analyze(path_graph(3))
    assert CensusRecord.from_json(rec.to_json()) == rec


def test_analyze_disconnected():
    g = build_graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])  # triangle + edge
    rec = analyze(g)
    assert rec.licci and rec.routes_agree
    assert rec.shape["kind"] == "disconnected"
    kinds = [s["kind"] for s in rec.shape["components"]]
    assert sorted(kinds) == ["path", "triangle_with_paths"]


def test_census_small(tmp_path):
    out = tmp_path / "census.jsonl"
    records = run_census(3, str(out), jobs=1)
    assert [r.graph6 for r in records] == ["A_", "BW", "Bw"]  # P2, P3, K3
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    idx = json.loads((tmp_path / "census.jsonl.idx").read_text())
    assert idx["version"] == PIPELINE_VERSION and idx["count"] == 3


def test_census_idempotent_and_worker_independent(tmp_path, monkeypatch):
    import bei.census as census_mod

    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 4)  # --jobs 3 starts 3 workers

    def census(path, jobs):
        run_census(5, str(path), jobs=jobs)
        return path.read_bytes()

    a, b, c, d = (tmp_path / x for x in ("a.jsonl", "b.jsonl", "c.jsonl", "d.jsonl"))
    first = census(a, 1)
    assert census(b, 2) == first and census(d, 3) == first
    assert census(a, 1) == first  # rerun reuses the cache, bytes unchanged
    # stale version: records must be recomputed, not trusted
    c.write_text(first.decode().replace('"reg":1', '"reg":9'))
    (tmp_path / "c.jsonl.idx").write_text(json.dumps({"version": "stale"}))
    assert census(c, 1) == first


def test_census_reuses_only_hash_matching_output(tmp_path, monkeypatch):
    import bei.census as census_mod

    out = tmp_path / "c.jsonl"
    idx_path = tmp_path / "c.jsonl.idx"
    run_census(4, str(out), jobs=1)
    full, index = out.read_bytes(), idx_path.read_bytes()
    idx = json.loads(index)
    assert idx["max_n"] == 4 and idx["sha256"] == hashlib.sha256(full).hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "c.jsonl.idx"]

    computed = []
    real_worker = census_mod._worker

    def counting_worker(args):
        computed.append(args[0])
        return real_worker(args)

    monkeypatch.setattr(census_mod, "_worker", counting_worker)
    # intact pair: every record is reused
    run_census(4, str(out), jobs=1)
    assert computed == [] and out.read_bytes() == full
    # a JSONL torn at a line end, one record edited, beside its intact index:
    # every line still parses, yet every record is recomputed
    lines = full.splitlines(keepends=True)
    torn = b"".join(lines[:5]).replace(b'"reg":1', b'"reg":9')
    assert torn != b"".join(lines[:5])
    out.write_bytes(torn)
    run_census(4, str(out), jobs=1)
    assert len(computed) == len(lines)
    assert out.read_bytes() == full and idx_path.read_bytes() == index


def test_census_rerun_analyzes_only_new_classes(tmp_path, monkeypatch):
    # the top level is generated in the pool: a held child is not analyzed
    out = tmp_path / "c.jsonl"
    run_census(5, str(out), jobs=1)
    n5 = out.read_bytes()
    analyzed = []
    real = census.analyze

    def counted(g, key):
        analyzed.append(g.n)
        return real(g, key)

    monkeypatch.setattr(census, "analyze", counted)
    run_census(5, str(out), jobs=1)
    assert analyzed == [] and out.read_bytes() == n5
    run_census(6, str(out), jobs=1)
    assert analyzed == [6] * 112
    n6 = out.read_bytes()
    assert hashlib.sha256(n6).hexdigest() == (
        "340748b0af83117a8022f3736f963c1b9cf0822a5efe2b6cac90435b2d8876b7"
    )
    analyzed.clear()
    run_census(6, str(out), jobs=1)
    assert analyzed == [] and out.read_bytes() == n6
    # the n = 6 records beside a smaller top level are ignored, not analyzed
    run_census(5, str(out), jobs=1)
    assert analyzed == [] and out.read_bytes() == n5


def test_cli_import_leaves_the_oracle_out():
    # only an oracle campaign imports the oracle
    code = "import sys, bei.cli; print('bei.oracle' in sys.modules)"
    src = str(Path(bei.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert res.stdout.strip() == "False"


def test_pipeline_version_follows_the_source(tmp_path, monkeypatch):
    package = Path(bei.__file__).parent
    copy = tmp_path / "bei"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert census._source_version(str(copy)) == PIPELINE_VERSION
    source = copy / "primes.py"
    data = bytearray(source.read_bytes())
    data[-2] ^= 1
    source.write_bytes(bytes(data))
    assert census._source_version(str(copy)) != PIPELINE_VERSION

    # a census written by other code is recomputed, though its hash matches
    out = tmp_path / "c.jsonl"
    monkeypatch.setattr(census, "PIPELINE_VERSION", "0" * 16)
    run_census(3, str(out), jobs=1)
    monkeypatch.setattr(census, "PIPELINE_VERSION", PIPELINE_VERSION)
    computed = []
    real_worker = census._worker

    def counting_worker(args):
        computed.append(args[0])
        return real_worker(args)

    monkeypatch.setattr(census, "_worker", counting_worker)
    run_census(3, str(out), jobs=1)
    assert len(computed) == 3
    assert json.loads((tmp_path / "c.jsonl.idx").read_text())["version"] == PIPELINE_VERSION
    run_census(3, str(out), jobs=1)
    assert len(computed) == 3  # now reused


def test_analyze_computes_each_artifact_once(monkeypatch):
    counts = {}

    def count(module, name):
        original = getattr(module, name)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)  # fails if the name is gone
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("bei.") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    count(degeneration, "invariants")
    count(primes, "cut_sets")
    count(cliques, "is_chordal")
    for route in ("licci_by_shape", "licci_by_algebra", "chordal_licci"):
        count(classify, route)
    graphs = census_graphs(5)
    for g in graphs:
        analyze(g)
    classes = len(graphs)
    assert counts["invariants"] == counts["cut_sets"] == classes == 30
    assert counts["is_chordal"] == classes
    assert counts["licci_by_shape"] == counts["licci_by_algebra"] == classes
    assert counts["chordal_licci"] == sum(is_chordal(g)[0] for g in graphs)


def test_compute_records_keys_classes_without_canonical_form(monkeypatch):
    # enumerated classes come canonically labeled, and the worker hands each
    # one's graph6 to analyze() as its key: no canonical form is computed
    calls = []
    original = graphs.canonical_form

    def counted(G):
        calls.append(G)
        return original(G)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("bei.") and getattr(mod, "canonical_form", None) is original:
            monkeypatch.setattr(mod, "canonical_form", counted)
    records = census.compute_records(5, jobs=1, reuse={})
    assert len(records) == 30
    assert len(calls) == 0


def test_census_tests_only_connected_children_for_canonicity(monkeypatch):
    # the top level skips the disconnected children before their canonicity
    # test: 339 searches for compute_records(6), against 620 for every child
    calls = []
    original = graphs._least_columns

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(graphs, "_least_columns", counted)
    graphs._all_graphs.cache_clear()  # the lower levels are enumerated afresh
    records = census.compute_records(6, jobs=1, reuse={})
    assert len(records) == 142
    assert len(calls) == 339


def test_census_counts():
    import bei.census as census_mod

    records = census_mod.compute_records(6, jobs=2, reuse={})
    assert len(records) == 142
    per_n = {}
    for r in records.values():
        per_n[r.n] = per_n.get(r.n, 0) + 1
    assert per_n == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    assert all(r.routes_agree for r in records.values())
    assert all(r.reg <= r.n - 1 for r in records.values())


def test_run_verification_reports(monkeypatch):
    def no_records(*args, **kwargs):
        raise AssertionError("codim1 needs no census records")

    monkeypatch.setattr(census, "analyze", no_records)
    rep = run_verification("codim1", 5, jobs=1)
    assert rep.ok() and rep.instances == 23
    assert rep.to_json()["violations"] == []
    with pytest.raises(ValueError):
        run_verification("no-such-theorem", 5, jobs=1)


REGISTRY_CASES = [
    ("naoki-bound", 4, 9),
    ("regmax-path", 4, 9),
    ("licci-equivalence", 4, 5),  # the licci classes
    ("chordal-licci", 4, 8),
    ("decomposable-reg", 5, 10),
    ("unmixed-gap", 5, 2),
    ("cutvertex-degree4", 5, 5),
    ("bipartite-licci", 5, 10),
    ("disconnected-licci", 5, 21),  # the licci classes, connected or not
    ("disconnected-bound", 5, 47),
    ("hu-necessary", 5, 30),  # every class counts, the licci ones are checked
    ("terai-duality", 5, 30),
    ("primary-decomposition-oracle", 3, 6),
    ("colon-oracle", 3, 10),
    ("initial-ideal-oracle", 3, 6),
    ("ohtani-oracle", 3, 3),
]


@pytest.mark.parametrize(
    "theorem,max_n,instances",
    REGISTRY_CASES,
    ids=[f"{theorem}-{max_n}" for theorem, max_n, _ in REGISTRY_CASES],
)
def test_every_registry_entry_runs_clean(theorem, max_n, instances):
    rep = run_verification(theorem, max_n, jobs=1)
    assert rep.ok()
    assert rep.instances == instances


def _plant(name, edit):
    """A planting under which ``census.<name>`` returns edit(its true result)."""

    def plant(monkeypatch):
        real = getattr(census, name)
        monkeypatch.setattr(census, name, lambda g: edit(real(g)))

    return plant


def _reg_by(delta):
    return lambda r: dataclasses.replace(r, reg=r.reg + delta)


def _flip(field):
    return lambda r: dataclasses.replace(r, **{field: not getattr(r, field)})


# sweep id -> a fault planted in the name its statement reads
PLANTED_FAULTS = {
    **dict.fromkeys(
        ["naoki-bound", "regmax-path", "chordal-licci", "cutvertex-degree4",
         "unmixed-gap", "decomposable-reg"],
        _plant("analyze", _reg_by(1)),
    ),
    "hu-necessary": _plant("analyze", _reg_by(-1)),
    **dict.fromkeys(
        ["licci-equivalence", "bipartite-licci", "disconnected-licci"],
        _plant("analyze", _flip("licci")),
    ),
    **dict.fromkeys(
        ["disconnected-bound", "terai-duality"], _plant("invariants", _reg_by(1))
    ),
    "codim1": _plant("codim1_conditions", _flip("holds")),
}


def test_sweeps_report_violations(monkeypatch):
    _plant("analyze", _reg_by(1))(monkeypatch)  # every record reports reg + 1
    rep = run_verification("naoki-bound", 3, jobs=1)
    assert rep.instances == 3 and not rep.ok()
    assert rep.violations == (
        {"graph6": "A_", "detail": "reg 2 > n-dim 1"},
        {"graph6": "A_", "detail": "clique form fails at (1, 2)"},
        {"graph6": "BW", "detail": "reg 3 > n-dim 2"},
        {"graph6": "BW", "detail": "clique form fails at (1, 3)"},
        {"graph6": "BW", "detail": "clique form fails at (2, 3)"},
        {"graph6": "Bw", "detail": "reg 2 > n-dim 1"},
        {"graph6": "Bw", "detail": "clique form fails at (1, 2, 3)"},
    )
    rep = run_verification("regmax-path", 3, jobs=1)
    assert rep.instances == 3
    assert rep.violations == (
        {"graph6": "A_", "detail": "reg 2, shape {'kind': 'path'}"},
        {"graph6": "BW", "detail": "reg 3, shape {'kind': 'path'}"},
        {
            "graph6": "Bw",
            "detail": "reg 2, shape {'kind': 'triangle_with_paths', 'r': 0, 's': 0, 't': 0}",
        },
    )
    res = CliRunner().invoke(main, ["verify", "--theorem", "naoki-bound", "--max-n", "3"])
    assert res.exit_code == 1
    assert "  VIOLATION BW reg 3 > n-dim 2" in res.output.splitlines()
    assert res.output.count("VIOLATION") == 7
    # the dual's pd off by one: invariants reads every reg one too high, while
    # the sweep's own primal tables stay right
    real = degeneration.betti_table

    def pd_off_by_one(*args, **kwargs):
        table = real(*args, **kwargs)
        return dataclasses.replace(table, pd=table.pd + 1)

    monkeypatch.setattr(degeneration, "betti_table", pd_off_by_one)
    rep = run_verification("terai-duality", 3, jobs=1)
    assert rep.instances == 3
    assert rep.violations == (
        {"graph6": "A_", "detail": "primal reg 1 pd 1, dual reg 2 pd 1"},
        {"graph6": "BW", "detail": "primal reg 2 pd 2, dual reg 3 pd 2"},
        {"graph6": "Bw", "detail": "primal reg 1 pd 2, dual reg 2 pd 2"},
    )


def test_disconnected_licci_counts_the_licci_classes(monkeypatch):
    counts = ["licci count at n=3: 2 != 3", "licci count at n=4: 4 != 6"]
    # every route agrees that only all-path graphs are licci
    real = census.licci_verdict

    def paths_only(g):
        verdict = real(g)
        kinds = {s.kind for s in verdict.component_shapes}
        return dataclasses.replace(verdict, licci=kinds == {classify.PATH})

    monkeypatch.setattr(census, "licci_verdict", paths_only)
    rep = run_verification("disconnected-licci", 4, jobs=1)
    assert rep.instances == 7
    assert [v["detail"] for v in rep.violations] == counts
    monkeypatch.undo()
    # a negated shape rule: the routes disagree, and the sweep raises
    shape = classify.licci_by_shape
    monkeypatch.setattr(classify, "licci_by_shape", lambda shapes: not shape(shapes))
    with pytest.raises(RouteDisagreementError, match=r"\(class A_\)$"):
        run_verification("disconnected-licci", 4, jobs=1)


def test_planted_faults_cover_every_sweep():
    assert set(PLANTED_FAULTS) == set(census._SWEEPS)


@pytest.mark.parametrize("theorem", sorted(PLANTED_FAULTS))
def test_every_sweep_fails_on_a_planted_fault(theorem, monkeypatch):
    PLANTED_FAULTS[theorem](monkeypatch)
    rep = run_verification(theorem, 6, jobs=1)
    assert rep.instances and not rep.ok()


@pytest.mark.parametrize(
    "theorem", ["codim1", "terai-duality", "disconnected-bound", "disconnected-licci"]
)
def test_sweep_pool_matches_serial(theorem, monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)  # --jobs 2 starts a pool of 2

    def reports():
        serial = run_verification(theorem, 5, jobs=1)
        pooled = run_verification(theorem, 5, jobs=2)
        assert (pooled.instances, pooled.violations) == (serial.instances, serial.violations)
        return serial

    assert reports().ok()
    PLANTED_FAULTS[theorem](monkeypatch)  # the violations must match too
    assert not reports().ok()


@pytest.mark.parametrize(
    "theorem,name",
    [
        ("naoki-bound", "analyze"),
        ("disconnected-licci", "analyze"),
        ("codim1", "codim1_conditions"),
        ("terai-duality", "invariants"),
    ],
)
def test_cli_sweep_worker_failure_names_the_class(theorem, name, monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)  # --jobs 2 starts a pool of 2
    real = getattr(census, name)
    for error, code, prefix in (
        (ResourceBudgetError, 3, "error: "),
        (RouteDisagreementError, 1, "ROUTE DISAGREEMENT: "),
    ):
        def planted(g, error=error):
            if census.emit_graph6(g) == b"C~":  # K4
                raise error("planted fault")
            return real(g)

        monkeypatch.setattr(census, name, planted)
        argv = ["verify", "--theorem", theorem, "--max-n", "4", "--jobs", "2"]
        res = CliRunner().invoke(main, argv, catch_exceptions=False)
        assert res.exit_code == code
        assert f"{prefix}planted fault (class C~)" in res.stderr.splitlines()
        assert "Traceback" not in res.output


def test_cli_oracle_reports_violations(tmp_path, monkeypatch):
    from bei import oracle

    real = oracle.verify_colon_theorem

    def fails_on_p2(g, e):
        return g.n != 2 and real(g, e)

    monkeypatch.setattr(oracle, "verify_colon_theorem", fails_on_p2)
    fx = tmp_path / "fixtures.jsonl"
    res = CliRunner().invoke(
        main, ["oracle", "--check", "colon", "--max-n", "3", "--out", str(fx)]
    )
    assert res.exit_code == 1
    assert "colon: 10 instances, 1 violations" in res.output
    assert "  VIOLATION A_ 2;1-2 e=1-2" in res.output.splitlines()
    lines = [json.loads(line) for line in fx.read_text().splitlines()]
    assert len(lines) == 10
    assert [l for l in lines if not l["ok"]] == [
        {"graph6": "A_", "labeling": "2;1-2 e=1-2", "check": "colon", "ok": False}
    ]


def test_cli_analyze():
    runner = CliRunner()
    res = runner.invoke(main, ["analyze", "--edges", "5;1-2,2-3,3-4,4-5", "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["reg"] == 4 and data["licci"] is True
    res = runner.invoke(main, ["analyze", "--graph6", "Bw"])
    assert res.exit_code == 0 and "triangle_with_paths" in res.output
    res = runner.invoke(main, ["analyze"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["analyze", "--edges", "3;1-9"])
    assert res.exit_code == 2
    for flag, text in (("--edges", "3;"), ("--graph6", "B?")):  # edgeless
        res = runner.invoke(main, ["analyze", flag, text])
        assert res.exit_code == 2 and "edgeless" in res.output
    path9 = "9;" + ",".join(f"{i}-{i + 1}" for i in range(1, 9))
    res = runner.invoke(main, ["analyze", "--edges", path9])
    assert res.exit_code == 3 and "Traceback" not in res.output
    assert [l for l in res.output.splitlines() if l.startswith("error:")] == [
        "error: Betti scan tier is 16 slots, got 18"
    ]


def test_census_tier_is_refused_before_enumeration(tmp_path, monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumerated n = {n}")

    for name in ("enumerate_connected", "enumerate_graphs"):
        monkeypatch.setattr(graphs, name, refuse)
        monkeypatch.setattr(census, name, refuse)
    # the pool generates the top level: its generator is refused too
    monkeypatch.setattr(graphs, "_all_graphs", refuse)
    monkeypatch.setattr(graphs, "_children", refuse)
    monkeypatch.setattr(census, "_children", refuse)
    with pytest.raises(TierExceededError, match="census tier is n <= 8, got 9"):
        census_graphs(9)
    with pytest.raises(TierExceededError, match="enumeration tier is n <= 8, got 9"):
        census.all_graph_classes(9)
    for argv in (
        ["census", "--max-n", "9", "--out", str(tmp_path / "c.jsonl")],
        ["verify", "--theorem", "naoki-bound", "--max-n", "9"],  # with records
        ["verify", "--theorem", "codim1", "--max-n", "9"],  # without records
    ):
        res = CliRunner().invoke(main, argv)
        assert res.exit_code == 3 and "Traceback" not in res.output
        assert res.output.splitlines() == ["error: census tier is n <= 8, got 9"]
    assert not list(tmp_path.iterdir())
    for theorem in ("disconnected-bound", "disconnected-licci"):  # every class
        res = CliRunner().invoke(main, ["verify", "--theorem", theorem, "--max-n", "9"])
        assert res.exit_code == 3 and "Traceback" not in res.output
        assert res.output.splitlines() == ["error: enumeration tier is n <= 8, got 9"]
    assert not list(tmp_path.iterdir())


def test_cli_census_and_verify(tmp_path):
    runner = CliRunner()
    out = tmp_path / "c.jsonl"
    res = runner.invoke(main, ["census", "--max-n", "3", "--out", str(out)])
    assert res.exit_code == 0 and "3 records" in res.output
    res = runner.invoke(main, ["census", "--max-n", "9", "--out", str(out)])
    assert res.exit_code == 3 and "census tier" in res.output
    missing = tmp_path / "missing" / "c.jsonl"
    res = runner.invoke(main, ["census", "--max-n", "3", "--out", str(missing)])
    assert res.exit_code == 2 and "does not exist" in res.output
    res = runner.invoke(main, ["verify", "--theorem", "codim1", "--max-n", "4"])
    assert res.exit_code == 0 and "violations 0" in res.output
    res = runner.invoke(main, ["verify", "--theorem", "bogus", "--max-n", "4"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["verify", "--theorem", "naoki-bound", "--max-n", "9"])
    assert res.exit_code == 3 and "census tier" in res.output
    # the oracle checks nothing above n = 5, so it must not report a higher tier
    res = runner.invoke(main, ["verify", "--theorem", "colon-oracle", "--max-n", "9"])
    assert res.exit_code == 3 and "oracle campaign tier" in res.output
    for env_jobs in ("many", "0", "-4"):
        argv = ["census", "--max-n", "3", "--out", str(out)]
        res = runner.invoke(main, argv, env={"BEI_JOBS": env_jobs})
        assert res.exit_code == 2 and "BEI_JOBS" in res.output
    for jobs in ("-4", "0"):  # a usage error, not serial or "all cores"
        res = runner.invoke(main, ["census", "--max-n", "3", "--out", str(out), "--jobs", jobs])
        assert res.exit_code == 2 and "--jobs" in res.output
        res = runner.invoke(
            main, ["verify", "--theorem", "codim1", "--max-n", "4", "--jobs", jobs]
        )
        assert res.exit_code == 2 and "--jobs" in res.output


def test_cli_route_disagreement_exits_1(tmp_path, monkeypatch):
    real = classify.licci_by_algebra
    monkeypatch.setattr(classify, "licci_by_algebra", lambda g, rec: not real(g, rec))
    runner = CliRunner()
    out = tmp_path / "c.jsonl"
    for argv in (
        ["census", "--max-n", "3", "--out", str(out), "--jobs", "1"],
        ["verify", "--theorem", "naoki-bound", "--max-n", "3", "--jobs", "1"],
        ["analyze", "--graph6", "A_"],
    ):
        res = runner.invoke(main, argv, catch_exceptions=False)
        assert res.exit_code == 1
        lines = [l for l in res.output.splitlines() if l.startswith("ROUTE DISAGREEMENT")]
        assert len(lines) == 1 and lines[0].startswith(
            "ROUTE DISAGREEMENT: licci routes disagree on A_: "
        )
        assert "Traceback" not in res.output
    assert not list(tmp_path.iterdir())  # no JSONL, index or temp file


def test_cli_census_worker_failure_names_the_class(tmp_path, monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)  # --jobs 2 starts a pool of 2
    real = census.analyze
    out = tmp_path / "c.jsonl"
    for error, code, prefix in (
        (ResourceBudgetError, 3, "error: "),
        (RouteDisagreementError, 1, "ROUTE DISAGREEMENT: "),
    ):
        def planted(g, key, error=error):
            if key == "C~":  # K4
                raise error("planted fault")
            return real(g, key)

        monkeypatch.setattr(census, "analyze", planted)
        argv = ["census", "--max-n", "5", "--out", str(out), "--jobs", "2"]
        res = CliRunner().invoke(main, argv, catch_exceptions=False)
        assert res.exit_code == code
        assert f"{prefix}planted fault (class C~)" in res.stderr.splitlines()
        assert "Traceback" not in res.output
    assert not list(tmp_path.iterdir())


def test_cli_no_vacuous_pass(tmp_path):
    runner = CliRunner()
    fx = tmp_path / "fixtures.jsonl"
    res = runner.invoke(
        main, ["oracle", "--check", "colon", "--max-n", "0", "--out", str(fx)]
    )
    assert res.exit_code == 2 and "no instances" in res.output
    assert not fx.exists()
    res = runner.invoke(main, ["verify", "--theorem", "naoki-bound", "--max-n", "1"])
    assert res.exit_code == 2 and "no instances" in res.output
    out = tmp_path / "empty.jsonl"
    for max_n in ("0", "1"):
        res = runner.invoke(main, ["census", "--max-n", max_n, "--out", str(out)])
        assert res.exit_code == 2 and "no instances" in res.output
    assert not list(tmp_path.glob("empty.jsonl*"))  # no JSONL, index or temp file


def test_cli_oracle_fixtures(tmp_path, monkeypatch):
    runner = CliRunner()
    fx = tmp_path / "fixtures.jsonl"
    res = runner.invoke(
        main, ["oracle", "--check", "colon", "--max-n", "3", "--out", str(fx)]
    )
    assert res.exit_code == 0
    lines = [json.loads(l) for l in fx.read_text().splitlines()]
    assert lines and all(l["ok"] for l in lines)
    assert set(lines[0]) == {"graph6", "labeling", "check", "ok"}
    missing = tmp_path / "missing" / "fixtures.jsonl"
    res = runner.invoke(
        main, ["oracle", "--check", "colon", "--max-n", "3", "--out", str(missing)]
    )
    assert res.exit_code == 2 and "does not exist" in res.output
    over = tmp_path / "over.jsonl"
    res = runner.invoke(
        main, ["oracle", "--check", "colon", "--max-n", "30", "--out", str(over)]
    )
    assert res.exit_code == 3 and "oracle campaign tier" in res.output
    assert not over.exists()

    # serialization failing partway leaves the earlier file whole, and no temp file
    before = fx.read_bytes()
    real_dumps = json.dumps
    dumped = []

    def failing_dumps(obj, **kwargs):
        dumped.append(obj)
        if len(dumped) == 3:
            raise RuntimeError("serialization failed")
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(census.json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="serialization failed"):
        census.write_fixtures([dict(l, ok=False) for l in lines], str(fx))
    monkeypatch.undo()
    assert fx.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fixtures.jsonl"]


def test_jobs_env_override(monkeypatch):
    from bei.census import default_jobs

    monkeypatch.setenv("BEI_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("BEI_JOBS", "64")
    assert default_jobs() == 64  # the request; the pool is capped separately
    for env_jobs in ("many", "0", "-4"):
        monkeypatch.setenv("BEI_JOBS", env_jobs)
        with pytest.raises(ValueError, match="BEI_JOBS"):
            default_jobs()
    monkeypatch.delenv("BEI_JOBS")
    assert default_jobs() >= 1


def test_pool_size_is_capped(monkeypatch):
    import bei.census as census_mod

    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 4)
    assert census_mod._pool_size(64, 1000) == 4
    assert census_mod._pool_size(64, 3) == 3
    assert census_mod._pool_size(2, 1000) == 2
    assert census_mod._pool_size(1, 0) == 1
    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: None)
    assert census_mod._pool_size(8, 100) == 1

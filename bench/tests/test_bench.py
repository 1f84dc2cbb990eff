"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

import json
import sys

import pytest

import harness
import jobs
import run
import tracing


def sample(workload, workdir, step=6, seed=3):
    """Every step-th job of a workload, with its argv materialized."""
    joblist = jobs.generate(workload, seed)
    return joblist.jobs[::step], jobs.materialize(joblist, workdir)[::step]


def wrapped_targets():
    """Traced targets whose current binding is a tracing wrapper."""
    out = []
    for name, module_name, class_name, attr in tracing.TARGETS:
        owner = sys.modules[f"equizeta.{module_name}"]
        if class_name is not None:
            owner = getattr(owner, class_name)
        if hasattr(getattr(owner, attr), "__wrapped__"):
            out.append(name)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert jobs.generate(workload, 11) == jobs.generate(workload, 11)
    assert jobs.generate(workload, 11) != jobs.generate(workload, 12)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_sampled_jobs_pass_the_gate(workload, tmp_path):
    picked, argvs = sample(workload, tmp_path)
    scorer = harness.Scorer(picked, harness.references())
    _, results = harness.run_pass(argvs)
    assert scorer.failures(results) == []


def test_corrupted_output_counts_in_failed_frac(monkeypatch, tmp_path):
    picked, argvs = sample("closed_form", tmp_path)
    victim = next(i for i, job in enumerate(picked) if job.check[0] == "same_as_fixture")
    honest = harness.call_cli

    def corrupting(argv):
        code, out, err = honest(argv)
        if list(argv) == argvs[victim]:
            out = out.replace("1", "2", 1)
        return code, out, err

    monkeypatch.setattr(harness, "call_cli", corrupting)
    scorer = harness.Scorer(picked, harness.references())
    metrics, attempted, failures, _ = run._per_layer(argvs, scorer, 0.0, tmp_path / "spans.csv")
    assert {index for index, _ in failures} == {victim}
    assert metrics["failed_frac"][0] == len(failures) / attempted > 0


def test_traced_and_untraced_outputs_match(tmp_path):
    for workload in run.WORKLOADS:
        _, argvs = sample(workload, tmp_path / workload, step=9)
        plain = [harness.call_cli(a)[:2] for a in argvs]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert len(wrapped_targets()) == len(tracing.TARGETS)
            traced = [harness.call_cli(a)[:2] for a in argvs]
        finally:
            tracer.uninstall()
        assert traced == plain, workload
        assert tracer.calls["cli.main"] == len(argvs)
        assert wrapped_targets() == []
    tracer.write_spans(tmp_path / "spans.csv")
    assert (tmp_path / "spans.csv").read_text().startswith("id,parent,name,job,")


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    picked, argvs = sample("oracle_cohomology", tmp_path, step=20)
    honest = harness.call_cli
    seen = []

    def spying(argv):
        seen.append(wrapped_targets())
        return honest(argv)

    monkeypatch.setattr(harness, "call_cli", spying)
    scorer = harness.Scorer(picked, harness.references())
    run._end_to_end(argvs, scorer, 0.0, setup_s=1.0)
    assert seen and not any(seen)


def test_printed_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    picked, argvs = sample("series_compare", tmp_path, step=30)
    scorer = harness.Scorer(picked, harness.references())
    end_to_end, _, _, _ = run._end_to_end(argvs, scorer, 0.0, setup_s=1.0)
    per_layer, _, _, _ = run._per_layer(argvs, scorer, 0.0, tmp_path / "spans.csv")
    assert {k: u for k, (_, u) in end_to_end.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_, u) in per_layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(run.WORKLOADS) == [w["name"] for w in spec["workloads"]]


def test_scaling_takes_out_host_speed():
    def results(job_s, probe_s):
        return [harness.JobResult(0, "", "", job_s * (1 + i % 3), probe_s) for i in range(20)]

    calm = harness.scaled_seconds(results(0.004, harness.PROBE_REF_S))
    busy = harness.scaled_seconds(results(0.008, 2 * harness.PROBE_REF_S))
    assert busy == pytest.approx(calm)
    assert calm[:3] == pytest.approx([0.004, 0.008, 0.012])

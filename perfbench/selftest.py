"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench/selftest.py -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = ["--seed", "3", "--seconds", "0.5", "--shrink", "16"]

END_TO_END = [
    "wall_s", "wall_tail_s", "band_mpx_per_s", "cpu_s", "peak_rss_mib", "setup_s", "fail_share",
    "cmd.smooth_s", "cmd.detect_s", "cmd.compare_s", "cmd.synth_s", "cmd.classify_s",
]
PER_LAYER = [
    "cli.startup_s", "cli.glue_s",
    "formats.load_bandset_s", "formats.save_bandset_s", "formats.load_pgm_p5_s",
    "formats.save_pgm_s", "formats.bytes_read", "formats.bytes_written",
    "formats.read_mib_per_s", "formats.load_pgm_p2_s",
    "scene.synth_scene_s", "scene.mpx_per_s", "raster.construct_s_per_mpx",
    "convolve.calls", "convolve.convolve_s", "convolve.mpx_per_s",
    "convolve.workers1_mpx_per_s", "convolve.reference_mpx_per_s", "convolve.scaling_eff",
    "convolve.tiles", "convolve.gflops", "convolve.flops_per_byte_min",
    "pipeline.smooth_jacobi_s", "pipeline.smooth_jacobi.self_s",
    "pipeline.anomaly_highpass_s", "pipeline.threshold_mask_s",
    "pipeline.anomaly_residual_s", "pipeline.detector_metrics_s", "pipeline.ranking_auc_s",
    "pipeline.fit_parallelepiped_s", "pipeline.classify_parallelepiped_s",
    "pipeline.overall_accuracy_s", "trace.overhead_s",
]


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, names, declared in ((0, END_TO_END, spec["end_to_end"]),
                                   (1, PER_LAYER, spec["per_layer"])):
        done = bench("--workload", "all", "--trace", str(trace), *TINY)
        res = result(done)
        assert res["correct"] and res["failed"] == 0, done.stderr
        lines = done.stdout.splitlines()
        for name in names:
            pattern = re.compile(rf"^{re.escape(name)}=\S+ [A-Za-z/%.\-]+( |$)")
            assert any(pattern.match(line) for line in lines), f"{name} not printed with a unit"
        for metric in declared:
            for workload in ("smooth-3x2048", "compare-3x2048", "ingest-8x1024"):
                got = res["metrics"][f"{workload}/{metric['name']}"]
                assert got["unit"] == metric["unit"]
                assert isinstance(got["value"], (int, float))


@pytest.fixture
def run(monkeypatch):
    """The benchmark's run module, imported in-process."""
    monkeypatch.syspath_prepend(str(BENCH))
    import run as module  # noqa: PLC0415 - needs perfbench on the path
    return module


def main_in_process(run, capsys, *args):
    assert run.main(list(args)) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def test_corrupted_digest_is_counted_as_a_failure(run, monkeypatch, capsys, tmp_path):
    digests = tmp_path / "digests.json"
    monkeypatch.setattr(run, "DIGESTS", digests)
    args = ["--workload", "ingest-8x1024", "--trace", "0", *TINY]
    assert main_in_process(run, capsys, *args, "--write-digests")[1]["failed"] == 0
    assert main_in_process(run, capsys, *args)[1]["failed"] == 0

    table = json.loads(digests.read_text())
    (entry,) = table.values()
    key = sorted(entry)[0]
    entry[key] = ("0" if entry[key][0] != "0" else "1") + entry[key][1:]
    digests.write_text(json.dumps(table))
    out, res = main_in_process(run, capsys, *args)
    assert not res["correct"]
    assert res["failed"] >= 1 and res["attempted"] > res["failed"]
    share = next(line for line in out.splitlines() if line.startswith("fail_share="))
    assert float(share.split("=")[1].split()[0]) > 0.0


def test_never_calls_bench_run_benchmark(run, monkeypatch, capsys):
    # run_benchmark swaps _kernels.conv_rows while numba is on; no source of
    # the benchmark may reach it, directly or through the bench module
    for path in BENCH.glob("*.py"):
        if path.name != "selftest.py":
            text = path.read_text()
            assert "run_benchmark" not in text and "biharm.bench" not in text, path
            assert not re.search(r"import\s+bench\b|from\s+biharm\s+import[^\n]*\bbench\b", text), path

    from biharm import _kernels, bench as bench_module

    def forbidden(*args, **kwargs):
        raise AssertionError("the benchmark called bench.run_benchmark")

    monkeypatch.setattr(bench_module, "run_benchmark", forbidden)
    kernel = _kernels.conv_rows
    _, res = main_in_process(run, capsys, "--workload", "smooth-3x2048", "--trace", "1", *TINY)
    assert _kernels.conv_rows is kernel
    assert res["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench")
    done = bench("--workload", "smooth-3x2048", "--trace", "0", *TINY, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()

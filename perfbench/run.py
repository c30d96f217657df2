#!/usr/bin/env python3
"""End-to-end benchmark of the biharm CLI, with a traced per-layer replay.

    python3 perfbench/run.py --workload smooth-3x2048 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Load model: a closed loop with one client. Each command of a pass runs as a
fresh `python -m biharm.cli` process on the repository's `src`, one after
another, with the CLI's default engine flags. `--trace 0` reports the
end-to-end metrics. `--trace 1` also replays every command in-process through
the same public library calls, once untraced and once with a span around each
call, and reports per-layer metrics. Both check every output.

Report lines read `name=value unit`; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics, where metrics
holds the end_to_end (trace 0) or per_layer (trace 1) metrics that
BENCHMARK.json names.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
RUNS = BENCH / "_runs"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 5  # the first before the first pass, the others between passes
PROBE_REPEATS = 3
STARTUP_REPEATS = 5
HARD_LIMIT_S = 150.0  # stop starting passes past this, whatever --seconds says
MIB = 1024.0 * 1024.0


def _preflight() -> None:
    needed = [SRC / "biharm" / "cli.py", FIXTURES / "compare_scene.txt",
              FIXTURES / "compare_expected.txt", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: program sources missing: {', '.join(missing)}\n")
        sys.exit(2)


_preflight()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import biharm  # noqa: E402
from biharm import _kernels  # noqa: E402
from biharm import (  # noqa: E402
    Boundary, Raster, biharmonic_stencil, convolve, convolve_reference, laplacian_baseline,
    load_bandset, ranking_auc,
)
from biharm.convolve import default_workers  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, convolution_calls, output_paths, parse, replay  # noqa: E402

CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([CHILD_ENV["PYTHONPATH"]] if CHILD_ENV.get("PYTHONPATH") else []))


# ------------------------------------------------------------- utilities

@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout: str


def run_cli(argv, log_dir: Path) -> Proc:
    """Run one CLI command as a fresh process; rusage comes from wait4."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "biharm.cli", *argv],
                                stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: `biharm {' '.join(argv)}` exited {proc.returncode}: "
                         f"{err_path.read_text()[-2000:]}\n")
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, out_path.read_text())


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def command_digests(index: int, args, stdout: str) -> dict:
    """Digest of each output of one command, keyed by position and file name."""
    result = {f"{index}:{args.command}:stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in output_paths(args):
        key = f"{index}:{args.command}:{Path(path).name}"
        result[key] = sha256_file(path) if os.path.exists(path) else "missing"
    return result


def make_stencil(name: str):
    """The stencil a probe times, by the name convolution_calls gives it."""
    return laplacian_baseline() if name == "laplacian" else biharmonic_stencil()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def time_call(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10  # the k-th smallest sample has exactly 10 beyond it
    return sorted(samples)[k - 1], 100.0 * k / n


def llc_mib():
    """Largest CPU cache the kernel reports, in MiB, or None."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(text[-1:], 1 / MIB)
        size = float(text.rstrip("KMG")) * scale
        best = size if best is None else max(best, size)
    return best


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def package_version(name: str) -> str:
    from importlib import metadata
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


# ---------------------------------------------------------------- report

class Report:
    def __init__(self):
        self.lines = []
        self.values = {}

    def metric(self, name, value, unit, note=""):
        self.values[name] = (value, unit)
        text = f"{name}={value!r} {unit}" if isinstance(value, float) else f"{name}={value} {unit}"
        self.lines.append(text + (f"  # {note}" if note else ""))

    def info(self, name, value):
        self.lines.append(f"{name}={value}")


# ------------------------------------------------------------------- run

@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"perfbench: FAILED {what}\n")


class Run:
    def __init__(self, workload, seed, seconds, trace, shrink, write_digests):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = workload.size // shrink
        self.shrink = shrink
        self.write_digests = write_digests
        self.work = RUNS / f"work-{workload.name}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.setup_dir = self.work / "setup"
        self.pass_dir = self.work / "pass"
        self.replay_dir = self.work / "replay"
        self.ops = Ops()
        self.report = Report()
        self.tracer = Tracer(enabled=True)
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = min(default_workers(), self.nproc)
        self.tile_height = parse(["smooth", "--in", "-", "--out", "-"]).tile_height
        self.started = time.perf_counter()

    # -- inputs and commands

    def _engine_flags(self, argv):
        """The CLI's defaults, except never more threads than nproc."""
        if argv[0] in ("smooth", "detect", "compare") and self.workers != default_workers():
            return argv + ["--workers", str(self.workers)]
        return argv

    def commands(self, out_dir: Path):
        return [self._engine_flags(a) for a in self.wl.commands(self.inputs, out_dir)]

    def setup_once(self, dest: Path) -> float:
        t0 = time.perf_counter()
        self.wl.write_inputs(self.seed, self.size, dest)
        for argv in self.wl.setup_commands(dest):
            proc = run_cli(argv, self.work)
            if proc.code != 0:
                raise RuntimeError(f"set-up command failed: biharm {' '.join(argv)}")
        if run_cli(["stencil"], self.work).code != 0:  # warm-up: imports and bytecode
            raise RuntimeError("set-up command failed: biharm stencil")
        return time.perf_counter() - t0

    def replay_pass(self, tracer, pass_id, keep=None):
        """Replay one pass into the replay dir; returns (digests, per-command seconds)."""
        tracer.pass_id = pass_id
        digests, seconds = {}, []
        for i, argv in enumerate(self.commands(self.replay_dir)):
            args = parse(argv)
            t0 = time.perf_counter()
            stdout = replay(args, tracer, keep)
            seconds.append(time.perf_counter() - t0)
            digests.update(command_digests(i, args, stdout))
        return digests, seconds

    def cli_pass(self):
        """Run one pass of CLI commands; returns (wall, procs, digests)."""
        for child in self.pass_dir.iterdir():
            child.unlink()
        argvs = self.commands(self.pass_dir)
        procs = []
        t0 = time.perf_counter()
        for argv in argvs:
            procs.append(run_cli(argv, self.work))
        wall = time.perf_counter() - t0
        digests = [command_digests(i, parse(argv), p.stdout)
                   for i, (argv, p) in enumerate(zip(argvs, procs))]
        return wall, procs, digests

    def setup_between_passes(self, setups) -> None:
        """Repeat the set-up into a spare directory outside the measured window,
        so that the set-up samples span the same minutes as the passes."""
        if len(setups) < SETUP_REPEATS:
            t0 = time.perf_counter()
            setups.append(self.setup_once(self.setup_dir))
            self.measure_start += time.perf_counter() - t0

    def keep_going(self, passes: int) -> bool:
        if passes == 0:
            return True
        return (time.perf_counter() - self.measure_start < self.seconds
                and time.perf_counter() - self.started < HARD_LIMIT_S)

    # -- checks

    def recorded_digests(self):
        if not DIGESTS.is_file():
            return None
        return json.loads(DIGESTS.read_text()).get(self.digest_key())

    def digest_key(self) -> str:
        return f"{self.wl.name} seed={self.seed} shrink={self.shrink}"

    def check_pass(self, procs, digests, expected, recorded, label):
        argvs = self.commands(self.pass_dir)
        for i, (argv, proc, got) in enumerate(zip(argvs, procs, digests)):
            what = f"{label} command {i} (biharm {argv[0]})"
            ok = proc.code == 0
            ok = ok and all(expected.get(k) == v for k, v in got.items())
            ok = ok and (recorded is None or all(recorded.get(k) == v for k, v in got.items()))
            self.ops.check(ok, what)

    def check_fixture(self):
        """The recorded fixture scene reproduces its hex-exact AUCs."""
        fixture = self.work / "fixture"
        fixture.mkdir(exist_ok=True)
        scene, truth = fixture / "scene.bfr", fixture / "truth.pgm"
        ok = run_cli(["synth", "--spec", str(FIXTURES / "compare_scene.txt"), "--out", str(scene),
                      "--truth-out", str(truth)], fixture).code == 0
        if ok:
            proc = run_cli(["compare", "--in", str(scene), "--truth", str(truth)], fixture)
            report = dict(line.split("=", 1) for line in proc.stdout.splitlines() if "=" in line)
            expected = dict(line.split("=", 1)
                            for line in (FIXTURES / "compare_expected.txt").read_text().splitlines()
                            if "=" in line)
            ok = proc.code == 0 and all(
                key[:-4] in report and float(report[key[:-4]]) == float.fromhex(value)
                for key, value in expected.items() if key.endswith("_auc_hex"))
        self.ops.check(ok, "fixture compare AUCs (tests/fixtures/compare_expected.txt)")

    def convolve_probe(self):
        """convolve == convolve_reference on every band of the scene, and the
        kernel rates on band 0 (trace runs only)."""
        bands = load_bandset(self.wl.scene(self.inputs, self.replay_dir))
        stencil = make_stencil("biharmonic")
        probes = {}
        for i, band in enumerate(bands):
            ref = convolve_reference(band, stencil, Boundary.MIRROR)
            tiled = convolve(band, stencil, Boundary.MIRROR, self.tile_height, self.workers)
            self.ops.check(bool(np.array_equal(ref.data, tiled.data)),
                           f"convolve == convolve_reference on band {i}")
        if self.trace:
            band = bands[0]
            for name in ("biharmonic", "laplacian"):
                st = make_stencil(name)
                probes[name] = time_call(lambda: convolve(
                    band, st, Boundary.MIRROR, self.tile_height, self.workers), PROBE_REPEATS)
            probes["workers1"] = time_call(lambda: convolve(
                band, stencil, Boundary.MIRROR, self.tile_height, 1), PROBE_REPEATS)
            probes["reference"] = time_call(
                lambda: convolve_reference(band, stencil, Boundary.MIRROR), PROBE_REPEATS)
            # the CLI builds every raster with _from_array (isfinite plus
            # contiguity, no copy); Raster(arr) is on no command's path
            probes["raster"] = time_call(lambda: Raster._from_array(band.data), 5)
        return probes

    # -- main

    def execute(self):
        for d in (self.inputs, self.setup_dir, self.pass_dir, self.replay_dir):
            d.mkdir(parents=True, exist_ok=True)
        try:
            self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self

    def _execute(self):
        self.provenance()
        setups = [self.setup_once(self.inputs)]
        if self.trace:
            self.traced_run(setups)
        else:
            self.timed_run(setups)
        self.check_fixture()
        self.tracer.write(RUNS / f"spans-{self.wl.name}-seed{self.seed}-shrink{self.shrink}"
                                 f"-trace{self.trace}.json")

    def provenance(self):
        r = self.report
        r.info("workload", self.wl.name)
        r.info("seed", self.seed)
        r.info("size", f"{self.wl.bands}x{self.size}x{self.size}")
        r.info("provenance.backend", "numba" if _kernels.NUMBA_ENABLED else "numpy")
        r.info("provenance.cpu_count", os.cpu_count())
        r.info("provenance.affinity_cpus", self.nproc)
        r.info("provenance.default_workers", default_workers())
        r.info("provenance.threads", f"{self.workers} (engine workers; never above affinity_cpus)")
        r.info("provenance.tile_height", self.tile_height)
        r.info("provenance.python", sys.version.split()[0])
        r.info("provenance.numpy", np.__version__)
        r.info("provenance.numba", package_version("numba"))
        r.info("provenance.biharm", biharm.__file__)
        r.info("provenance.git_commit", git_commit())
        r.info("load", "closed loop, 1 client, one fresh CLI process per command")

    def _band_mpx(self):
        return self.wl.bands * self.size * self.size / 1e6

    def timed_run(self, setups):
        expected, _ = self.replay_pass(self.tracer, "replay")
        recorded = None if self.write_digests else self.recorded_digests()
        self.convolve_probe()
        passes = []
        self.measure_start = time.perf_counter()
        while self.keep_going(len(passes)):
            wall, procs, digests = self.cli_pass()
            self.check_pass(procs, digests, expected, recorded, f"pass {len(passes)}")
            passes.append((wall, procs, digests))
            self.setup_between_passes(setups)
        if self.write_digests:
            self.save_digests(passes[0][2])
        while len(setups) < SETUP_REPEATS:
            setups.append(self.setup_once(self.setup_dir))
        self.end_to_end(setups, passes, recorded)

    def save_digests(self, digests):
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[self.digest_key()] = {k: v for d in digests for k, v in d.items()}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    def end_to_end(self, setups, passes, recorded):
        r = self.report
        walls = [p[0] for p in passes]
        cpus = [sum(proc.cpu_s for proc in p[1]) for p in passes]
        wall = median(walls)
        r.metric("wall_s", wall, "s", f"median of {len(walls)} passes")
        t = tail(walls)
        if t is None:
            r.metric("wall_tail_s", "n/a", "s",
                     f"percentile=none samples={len(walls)}: needs at least 11 passes")
        else:
            r.metric("wall_tail_s", t[0], "s", f"percentile=p{t[1]:.1f} samples={len(walls)}")
        r.metric("band_mpx_per_s", self._band_mpx() / wall, "Mpx/s",
                 f"{self._band_mpx():.3f} input band-Mpx per pass")
        r.metric("cpu_s", median(cpus), "s", "user+system per pass, from wait4")
        r.metric("peak_rss_mib", max(proc.rss_mib for p in passes for proc in p[1]), "MiB",
                 "largest child ru_maxrss")
        r.metric("setup_s", median(setups), "s",
                 f"median of {len(setups)} set-ups (inputs, CLI set-up commands, warm-up): "
                 "one before the first pass, the others between passes")
        for name, samples in self.per_command([p[1] for p in passes]).items():
            r.metric(f"cmd.{name}_s", median([s.wall_s for s in samples]), "s",
                     f"median of {len(samples)}")
        r.info("digest_check", "recorded digests" if recorded else "none recorded for this seed")

    def per_command(self, pass_procs):
        names = [argv[0] for argv in self.commands(self.pass_dir)]
        grouped = {}
        for procs in pass_procs:
            for name, proc in zip(names, procs):
                grouped.setdefault(name, []).append(proc)
        return grouped

    # -- traced run

    def traced_run(self, setups):
        quiet = Tracer(enabled=False)
        setup_argvs = self.wl.setup_commands(self.inputs)
        if setup_argvs:
            # replay the set-up's CLI commands on a second copy of the inputs
            self.tracer.pass_id = "setup"
            self.wl.write_inputs(self.seed, self.size, self.replay_dir)
            replay_argvs = self.wl.setup_commands(self.replay_dir)
            for i, (cli_argv, replay_argv) in enumerate(zip(setup_argvs, replay_argvs)):
                args = parse(replay_argv)
                got = command_digests(i, args, replay(args, self.tracer))
                self.ops.check(got == command_digests(i, parse(cli_argv), ""),
                               f"set-up replay of biharm {cli_argv[0]}")
        recorded = self.recorded_digests()
        keep = {}
        passes = []
        self.measure_start = time.perf_counter()
        while self.keep_going(len(passes)):
            n = len(passes)
            wall, procs, digests = self.cli_pass()
            quiet_digests, quiet_s = self.replay_pass(quiet, f"quiet{n}")
            traced_digests, traced_s = self.replay_pass(self.tracer, f"pass{n}", keep)
            self.check_pass(procs, digests, traced_digests, recorded, f"pass {n}")
            self.ops.check(quiet_digests == traced_digests, f"untraced replay {n}")
            passes.append((wall, procs, quiet_s, traced_s))
            self.setup_between_passes(setups)
        probes = self.convolve_probe()
        if "ranking" in keep:
            maps, truth = keep.pop("ranking")
            probes["ranking"] = median(
                [time_call(lambda m=m: ranking_auc(m, truth), PROBE_REPEATS) for m in maps])
        startup = [run_cli(["stencil"], self.work).wall_s for _ in range(STARTUP_REPEATS)]
        while len(setups) < SETUP_REPEATS:
            setups.append(self.setup_once(self.setup_dir))
        self.end_to_end(setups, passes, recorded)
        self.per_layer(passes, probes, median(startup))

    def per_layer(self, passes, probes, startup):
        r, t = self.report, self.tracer
        self_times = t.self_times()
        argvs = self.commands(self.replay_dir)
        names = [argv[0] for argv in argvs]
        pass_ids = [f"pass{i}" for i in range(len(passes))]
        band_mpx = self.size * self.size / 1e6

        # self time per (pass, span name) and per (invocation, layer)
        by_pass = {p: {} for p in pass_ids + ["setup"]}
        invocation = {}  # root span index -> {layer: seconds}
        roots = []
        for i, span in enumerate(t.spans):
            roots.append(i if span.parent is None else roots[span.parent])
            if span.pass_id in by_pass:
                table = by_pass[span.pass_id]
                table[span.name] = table.get(span.name, 0.0) + self_times[i]
            layer = "cli" if span.parent is None else span.name.split(".")[0]
            inv = invocation.setdefault(roots[i], {})
            inv[layer] = inv.get(layer, 0.0) + self_times[i]

        def per_pass(prefix, ids=pass_ids):
            return median([sum(v for k, v in by_pass[p].items() if k.startswith(prefix))
                           for p in ids])

        def used(name):
            return any(name in by_pass[p] for p in pass_ids)

        # convolution calls and probe-based estimates
        calls = [convolution_calls(parse(argv), self.wl.bands) for argv in argvs]
        probe_of = {"biharmonic": probes["biharmonic"], "laplacian": probes["laplacian"]}
        conv_calls = sum(n for c in calls for _, _, n in c)
        conv_s = sum(n * probe_of[st] for c in calls for _, st, n in c)
        sweeps_s = sum(n * probe_of[st] for c in calls for caller, st, n in c
                       if caller == "smooth_jacobi")
        ranking_per_cmd = 2 * probes.get("ranking", 0.0)

        # -- cli
        walls = [[p.wall_s for p in procs] for _, procs, _, _ in passes]
        quiet = [q for _, _, q, _ in passes]
        traced = [tr for _, _, _, tr in passes]
        r.metric("cli.startup_s", startup, "s", f"median of {STARTUP_REPEATS} `biharm stencil`")
        r.metric("cli.glue_s", median([sum(w) - sum(q) for w, q in zip(walls, quiet)]), "s",
                 "per pass: CLI wall minus untraced in-process replay")

        # -- formats
        for name in ("load_bandset", "save_bandset", "load_pgm_p5", "load_pgm_p2", "save_pgm"):
            if used(f"formats.{name}"):
                r.metric(f"formats.{name}_s", per_pass(f"formats.{name}"), "s", "per pass")
        read = t.counts.get(("pass0", "formats.bytes_read"), 0)
        written = t.counts.get(("pass0", "formats.bytes_written"), 0)
        load_s = per_pass("formats.load")
        r.metric("formats.bytes_read", read, "B", "per pass")
        r.metric("formats.bytes_written", written, "B", "per pass")
        r.metric("formats.read_mib_per_s", read / MIB / load_s if load_s else 0.0, "MiB/s",
                 "bytes read over time in load calls")
        r.metric("formats.self_s", per_pass("formats."), "s", "per pass, all formats calls")

        # -- scene
        scene_ids = pass_ids if used("scene.synth_scene") else ["setup"]
        synth_s = per_pass("scene.synth_scene", scene_ids)
        where = "per pass" if scene_ids is pass_ids else "in set-up (moves setup_s)"
        r.metric("scene.synth_scene_s", synth_s, "s", where)
        r.metric("scene.mpx_per_s", self.wl.bands * band_mpx / synth_s, "Mpx/s",
                 "band-Mpx generated per second")

        # -- raster
        r.metric("raster.construct_s_per_mpx", probes["raster"] / band_mpx, "s/Mpx",
                 "probe of Raster._from_array: isfinite plus contiguity, as the CLI builds rasters")

        # -- convolve
        tiles_per_call = -(-self.size // self.tile_height)
        flops_per_px = 2 * make_stencil("biharmonic").coeffs.size
        ws_mib = 2 * 8 * (self.size + 4) ** 2 / MIB
        llc = llc_mib()
        resident = llc is not None and ws_mib <= llc
        r.metric("convolve.calls", conv_calls, "count", "per pass, from the commands and --iters")
        r.metric("convolve.tiles", conv_calls * tiles_per_call, "count",
                 f"per pass, {tiles_per_call} tiles of {self.tile_height} rows per call")
        if conv_calls:
            r.metric("convolve.convolve_s", conv_s, "s", "per pass: probe per call x calls")
        r.metric("convolve.mpx_per_s", band_mpx / probes["biharmonic"], "Mpx/s",
                 f"probe, {self.workers} workers, band 0")
        r.metric("convolve.workers1_mpx_per_s", band_mpx / probes["workers1"], "Mpx/s", "probe")
        r.metric("convolve.reference_mpx_per_s", band_mpx / probes["reference"], "Mpx/s",
                 "probe of convolve_reference, single thread")
        r.metric("convolve.scaling_eff", probes["workers1"] / probes["biharmonic"] / self.workers,
                 "ratio", f"speed-up from 1 to {self.workers} workers, over {self.workers}")
        r.metric("convolve.gflops", flops_per_px * band_mpx * 1e6 / probes["biharmonic"] / 1e9,
                 "GFLOP/s", f"computed: {flops_per_px} flops per pixel of the dense 5x5 tap loop")
        r.metric("convolve.flops_per_byte_min", flops_per_px / 16.0, "flop/B",
                 "computed: compulsory 8 B read + 8 B written per pixel")
        r.info("convolve.working_set_mib", f"{ws_mib:.1f} (padded input + output of one band)")
        r.info("machine.llc_mib", "unknown" if llc is None else f"{llc:.1f}")
        r.info("convolve.roofline_note",
               "cache-resident working set: gflops and flops_per_byte_min are computed figures,"
               " no bandwidth claim" if resident else
               "working set not known to fit the last-level cache; no bandwidth measured")

        # -- pipeline
        pipeline_names = sorted({k for p in pass_ids for k in by_pass[p] if k.startswith("pipeline.")})
        for name in pipeline_names:
            r.metric(f"{name}_s", per_pass(name), "s", "per pass")
        if used("pipeline.smooth_jacobi"):
            r.metric("pipeline.smooth_jacobi.self_s", per_pass("pipeline.smooth_jacobi") - sweeps_s,
                     "s", "estimate: span minus sweeps x convolve probe")
        if "ranking" in probes:
            r.metric("pipeline.ranking_auc_s", ranking_per_cmd * names.count("compare"), "s",
                     "per pass: probe on the replay's score maps, 2 calls per compare")
        r.metric("pipeline.self_s", per_pass("pipeline."), "s", "per pass, all pipeline calls")
        r.metric("trace.overhead_s", median([sum(x) for x in traced]) - median([sum(x) for x in quiet]),
                 "s", "per pass: traced minus untraced replay")

        # -- per-command accounting: layer self times plus glue against the wall time
        by_cmd = {}
        for index, name in enumerate(names):
            samples = by_cmd.setdefault(name, {"wall": [], "quiet": [], "calls": calls[index]})
            samples["wall"] += [w[index] for w in walls]
            samples["quiet"] += [q[index] for q in quiet]
        roots_by_cmd = {}
        for root, layers in invocation.items():
            if t.spans[root].pass_id in pass_ids:
                roots_by_cmd.setdefault(t.spans[root].name[4:], []).append(layers)
        for name, s in by_cmd.items():
            wall = median(s["wall"])
            glue = wall - median(s["quiet"])
            layers = roots_by_cmd.get(name, [])
            part = {k: median([inv.get(k, 0.0) for inv in layers])
                    for k in ("cli", "formats", "raster", "scene", "pipeline")}
            conv = sum((n * probe_of[st] for _, st, n in s["calls"]), 0.0)
            ranking = ranking_per_cmd if name == "compare" else 0.0
            account = {
                "cli.glue": glue + part["cli"],
                "formats": part["formats"],
                "raster": part["raster"],
                "scene": part["scene"],
                "convolve": conv,
                "pipeline.ranking_auc": ranking,
                "pipeline.other": part["pipeline"] - conv - ranking,
            }
            r.metric(f"account.{name}.wall_s", wall, "s", f"median of {len(s['wall'])}")
            for layer, seconds in account.items():
                r.metric(f"account.{name}.{layer}_s", seconds, "s")
            r.metric(f"account.{name}.share", sum(account.values()) / wall, "ratio",
                     "layer self times plus glue over the command's wall time")
            r.info(f"account.{name}.largest", max(account, key=account.get))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide every edge length by this (self-tests)")
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's output digests in digests.json instead of "
                             "checking them")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RUNS.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            run = Run(WORKLOADS[name], args.seed, args.seconds, args.trace, args.shrink,
                      args.write_digests).execute()
        except RuntimeError as exc:
            sys.stderr.write(f"perfbench: {name}: {exc}\n")
            return 1
        ops = run.ops
        run.report.metric("fail_share", ops.failed / ops.attempted, "ratio",
                          f"{ops.failed} failed of {ops.attempted} attempted operations")
        print("\n".join(run.report.lines), flush=True)
        attempted += ops.attempted
        failed += ops.failed
        for metric in wanted:
            value, unit = run.report.values[metric]
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

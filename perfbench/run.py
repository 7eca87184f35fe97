"""The repository benchmark: host time of the figure pipeline, end to end
and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 0 \
        --seconds 55 --trace 0
    python3 perfbench/run.py --workload serve_warm --seed 3 \
        --seconds 55 --trace 1 --out after.jsonl
    python3 perfbench/compare.py before.jsonl after.jsonl

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the whole run record (also
appended to ``--out``), with the rendered figures' SHA-256 digests and
the per-pass timings the metrics were taken from.

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``sweep_cold`` -- quick fig7 from an empty cache, ``jobs=2``.
* ``serve_warm`` -- ``repro serve`` on loopback over a filled cache. Two
  closed-loop client threads send batches of seeded fig5/fig6/fig9
  queries with fresh keys; after each batch one client re-asks answered
  keys, 20 of each figure, which the server answers from its session
  journal.

Two more are runnable for their per-layer ledgers but not listed in
``BENCHMARK.json``, whose run budget holds two workloads at runs long
enough to be steady on a shared 2-CPU host:

* ``sweep_warm`` -- quick fig7 + fig8 over a filled cache, ``jobs=2``.
* ``breakdown_warm`` -- quick fig4 + fig5 + fig13 over a filled cache,
  ``jobs=1``: the Table II attribution path. One pass takes 12-19 s, so
  a run holds few passes; its wall-clock spread between runs was 0.36
  of the median.

A *pass* is one workload execution in a fresh interpreter: a child
process rendering the figures, or, for ``serve_warm``, one batch against
a server started for the run. Passes repeat until ``--seconds`` is used
up, but an untraced figure run makes at least three and ``serve_warm``
sends at least 100 fresh queries. A warm pass
starts from a fresh cache root hard-linked from a template that one
untimed serial pass filled; a template is built on first use in a
checkout, under ``.bench_build/perfbench`` and keyed by a hash of
``src/repro``. Every process gets its own registry, telemetry and temp
directory there; no ``REPRO_*`` knob may be set by the caller.

The seed orders the names of each quick grid: names are shuffled within
blocks of four, so a grid keeps its workload set and its cost. Seed 0 is
the committed order, so its figures are byte-identical to ``repro
figure``. For ``serve_warm`` the seed draws each client's query order
and the keys re-asked; every batch asks the same figures.

End-to-end metrics (``--trace 0``, tracing off). Each timing is a median
over the run's passes or queries. The host's speed drifts by a quarter
or more over minutes (other tenants share it), so a run should be long:
a median over one minute is steadier than one over a few seconds.

* ``setup_s`` -- a fresh interpreter's ``import repro.__main__`` plus the
  first ``get_kernel()`` of the emit, codec and OOO kernels, timed from
  outside: the median of several probes, each its own process, spread
  between the passes of an untraced run.
* ``wall_s`` -- wall-clock of one pass (median).
* ``peak_rss_mb`` -- median peak RSS of the pass's process plus its
  largest fan-out worker (``serve_warm``: the server process).
* ``query_p50_ms``, ``query_p90_ms`` -- latency of a query that computes
  its answer: percentiles over all the run's fresh queries
  (``serve_warm``, 100 or more). A figure workload's pass is one query,
  for its figure set; a run holds too few for a percentile, so both
  report the median pass.

``serve_warm`` also records ``reask_p50_ms``, the median latency of a
re-ask by key, in the run record. It is not in ``BENCHMARK.json``: a
re-ask takes a third of a millisecond, mostly thread wake-ups on a
shared virtual machine, and its spread between runs of the same code was
0.17-0.39 of the median, wider than any bound the benchmark could keep.
The traced run reports it as ``experiments.server.reask_p50_ms``.

With ``--trace 1`` untraced and traced passes alternate (``serve_warm``:
three untraced batches, then three traced ones against a second
server); the metrics are
the per-layer ledger of ``ledger.py`` (median over the traced passes):
each layer's self time and exact work counts, ``unattributed_s`` and
``trace_overhead_frac`` (median traced over median untraced pass, minus
1).

Every figure and query answer is checked by SHA-256: against the other
passes of the run, against earlier runs in this checkout with the same
seed, and, at ``jobs=2``, against the first pass's figures rendered again
serially over the same cache. Work counts of traced figure passes must
repeat exactly (disk-cache hits and misses only at
``jobs=1``, see ``ledger.SERIAL_COUNTS``). A failed operation (an error,
a digest mismatch, a shed or dropped query) counts in ``failed``; any
failure or count mismatch makes the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import common
import ledger

HERE = Path(__file__).resolve().parent

#: Interpreters started to measure ``setup_s``.
SETUP_PROBES = 7

#: Passes an untraced figure run makes at least, past ``--seconds`` if
#: need be, so that every timing is a median of three or more.
MIN_PASSES = 3

#: A run must end within this many seconds, not counting a template
#: build.
RUN_BUDGET = 170.0

#: Knobs the benchmark sets itself for every process it starts.
OWN_KNOBS = ("REPRO_CACHE_DIR", "REPRO_REGISTRY_DIR", "REPRO_TELEMETRY_DIR")

#: Closed-loop client threads, the times each asks every serving figure
#: per batch (in a seeded order, so every batch does the same work), and
#: the answered keys of each figure re-asked after each batch (a fixed
#: mix: answers differ in size, so the mix sets the re-ask latency).
SERVE_CLIENTS = 2
SERVE_ROUNDS = 3
REASK_PER_FIGURE = 20
#: Fresh queries an untraced serving run sends at least, past
#: ``--seconds`` if need be: ``query_p90_ms`` then rests on ten
#: samples beyond it.
SERVE_MIN_FRESH = 100
#: Batches of each serving session in a traced run.
TRACED_BATCHES = 3

#: Admission limits high enough that the closed loop is never shed.
SERVE_ARGS = ("--tcp", "127.0.0.1:0", "--jobs", "1",
              "--tenant-rate", "1000", "--tenant-burst", "1000",
              "--max-inflight", "64")

SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import repro.__main__
t1 = time.perf_counter()
from repro.host import _codec_kernel, _emit_kernel
from repro.uarch import _ooo_kernel
built = [m.get_kernel() is not None
         for m in (_emit_kernel, _codec_kernel, _ooo_kernel)]
print(json.dumps({"import_s": t1 - t0, "kernels_built": all(built)}))
"""


class BenchError(Exception):
    """The benchmark itself could not run."""


def _source_key(root: Path) -> str:
    """Hash of the program and the template recipe: templates and
    recorded digests are valid only for the code that produced them."""
    sha = hashlib.sha256()
    files = sorted((root / "src" / "repro").rglob("*.py"))
    for path in files + [HERE / "common.py", HERE / "child.py"]:
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _clone_tree(src: Path, dst: Path) -> None:
    """Hard-link a cache template into a fresh root. The cache replaces
    files by rename and never writes one in place."""
    for dirpath, _, filenames in os.walk(src):
        target = dst / Path(dirpath).relative_to(src)
        target.mkdir(parents=True, exist_ok=True)
        for name in filenames:
            try:
                os.link(Path(dirpath, name), target / name)
            except OSError:
                shutil.copy2(Path(dirpath, name), target / name)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group and wait for
    the group to be gone."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


@contextlib.contextmanager
def _locked(path: Path):
    with open(path, "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


class Bench:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.work = root / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        self.key = _source_key(root)
        self.state = self.work / f"state-{self.key}"
        self.state.mkdir(parents=True, exist_ok=True)
        self.rundir: Path | None = None
        self.deadline = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.known: dict[str, str] = {}
        self.new_known: dict[str, str] = {}
        self.samples: dict = {}
        self.setup_walls: list[float] = []
        self.setup_imports: list[float] = []
        self.kernels_built: list[bool] = []
        self.next_probe = 0.0

    # -- processes -----------------------------------------------------

    def env(self, cache: Path, workdir: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["REPRO_CACHE_DIR"] = str(cache)
        env["REPRO_REGISTRY_DIR"] = str(workdir / "registry")
        env["REPRO_TELEMETRY_DIR"] = str(workdir / "telemetry")
        env["TMPDIR"] = str(workdir / "tmp")
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        return env

    def remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)

    def spawn(self, cmd: list, workdir: Path, cache: Path,
              timeout: float | None = None) -> str:
        """Run one child in its own process group; returns its stdout."""
        proc = subprocess.Popen(
            [sys.executable, *cmd], cwd=workdir,
            env=self.env(cache, workdir), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=timeout if timeout is not None
                else self.remaining())
        except subprocess.TimeoutExpired:
            _stop_group(proc)
            raise BenchError(f"{cmd[0]} timed out") from None
        finally:
            _stop_group(proc)
        if proc.returncode != 0:
            raise BenchError(f"{Path(cmd[0]).name} exited "
                             f"{proc.returncode}: {err[-2000:]}")
        return out

    @contextlib.contextmanager
    def pass_dir(self, template: Path | None = None):
        """A fresh working directory whose ``cache`` is empty or a clone
        of ``template``."""
        path = Path(tempfile.mkdtemp(prefix="pass-", dir=self.rundir))
        try:
            if template is not None:
                _clone_tree(template, path / "cache")
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def figure_pass(self, path: Path, figures, jobs: int, seed: int,
                    trace: bool, timeout: float | None = None) -> dict:
        out = path / f"report-{time.monotonic_ns()}.json"
        rss = Path(tempfile.mkdtemp(prefix="rss-", dir=path))
        cmd = [str(HERE / "child.py"), "--figures", ",".join(figures),
               "--jobs", str(jobs), "--seed", str(seed), "--out", str(out),
               "--rss-dir", str(rss)]
        if trace:
            cmd.append("--trace")
        self.spawn(cmd, path, path / "cache", timeout=timeout)
        return json.loads(out.read_text())

    # -- recorded state ------------------------------------------------

    def template(self, name: str) -> Path:
        """The cache one untimed serial pass of the template's figures
        filled, built on first use in this checkout. Its seed-0 digests
        are recorded as the reference renders."""
        path = self.state / "templates" / name
        with _locked(self.work / "lock"):
            if path.exists():
                return path
            for old in self.work.glob("state-*"):
                if old != self.state:
                    shutil.rmtree(old, ignore_errors=True)
            started = time.monotonic()
            with self.pass_dir() as workdir:
                report = self.figure_pass(workdir, common.TEMPLATES[name],
                                          1, 0, False, timeout=800)
                known = self._load("digests.json")
                for fig in report["figures"]:
                    if fig["error"]:
                        raise BenchError(f"template {name}: {fig['figure']}"
                                         f" failed: {fig['error']}")
                    known.setdefault(f"{fig['figure']}@0", fig["digest"])
                common.write_json(self.state / "digests.json", known)
                path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(workdir / "cache", path)
            # Building is the checkout's one-off set-up, not this run's.
            self.deadline += time.monotonic() - started
        return path

    def _load(self, name: str) -> dict:
        path = self.state / name
        return json.loads(path.read_text()) if path.exists() else {}

    def _save(self, name: str, updates: dict) -> None:
        with _locked(self.work / "lock"):
            merged = self._load(name)
            for key, value in updates.items():
                merged.setdefault(key, value)
            common.write_json(self.state / name, merged)

    def check_render(self, figure: str, seed: int, digest: str | None,
                     error: str | None) -> bool:
        """Count one operation; False when it failed."""
        self.attempted += 1
        key = f"{figure}@{seed}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{key}: {error}")
            return False
        self.digests.setdefault(figure, digest)
        expected = self.known.get(key) or self.new_known.get(key)
        if expected is None:
            self.new_known[key] = digest
        elif expected != digest:
            self.failed += 1
            self.errors.append(f"{key}: digest {digest[:12]} != "
                               f"recorded {expected[:12]}")
            return False
        return True

    def check_counts(self, passes: list[dict], workload: str, seed: int,
                     jobs: int) -> None:
        key = f"{workload}@{seed}"
        recorded = self._load("counts.json").get(key)
        names = ledger.EXACT_COUNTS if jobs == 1 else ledger.SERIAL_COUNTS
        for report in passes:
            counts = {name: report["ledger"][name] for name in names}
            if recorded is None:
                recorded = counts
                self._save("counts.json", {key: counts})
            diff = {name: (recorded[name], counts[name])
                    for name in names if counts[name] != recorded[name]}
            if diff:
                self.errors.append(f"work counts of {key} differ from an "
                                   f"earlier run (was, now): {diff}")

    # -- set-up --------------------------------------------------------

    def probe_setup(self) -> None:
        """Time one fresh interpreter's set-up (see ``setup_s``)."""
        with self.pass_dir() as path:
            start = time.perf_counter()
            out = self.spawn(["-c", SETUP_PROBE], path, path / "cache")
            self.setup_walls.append(time.perf_counter() - start)
        probe = json.loads(out.strip().splitlines()[-1])
        self.setup_imports.append(probe["import_s"])
        self.kernels_built.append(probe["kernels_built"])

    def between_passes(self) -> None:
        """Spread the set-up probes over an untraced run, between timed
        passes: a median over the whole run is steadier than one over
        its first seconds, which the end of the previous run may still
        disturb. A traced run probes at its end, so that no probe falls
        inside a traced serving session's wall-clock."""
        if not self.args.trace and time.monotonic() >= self.next_probe:
            self.probe_setup()
            self.next_probe = time.monotonic() \
                + self.args.seconds / SETUP_PROBES

    # -- figure workloads ----------------------------------------------

    def run_figures(self, workload: str) -> dict:
        spec = common.FIGURE_WORKLOADS[workload]
        args = self.args
        figures, jobs = spec["figures"], spec["jobs"]
        template = self.template(spec["template"]) if spec["template"] \
            else None
        self.known = self._load("digests.json")
        untraced, traced = [], []
        kinds = itertools.cycle([False, True]) if args.trace \
            else itertools.repeat(False)
        end = time.monotonic() + args.seconds
        while True:
            trace = next(kinds)
            start = time.monotonic()
            with self.pass_dir(template) as path:
                report = self.figure_pass(path, figures, jobs, args.seed,
                                          trace)
                renders = report["figures"]
                if jobs > 1 and not (untraced or traced):
                    # Fan-out must not change a figure: render the first
                    # pass's figures again serially over its cache.
                    renders = renders + self.figure_pass(
                        path, figures, 1, args.seed, False)["figures"]
            (traced if trace else untraced).append(report)
            for fig in renders:
                self.check_render(fig["figure"], args.seed, fig["digest"],
                                  fig["error"])
            self.between_passes()
            took = time.monotonic() - start
            if time.monotonic() + took > end \
                    and len(untraced) >= (1 if args.trace else MIN_PASSES) \
                    and (traced or not args.trace):
                break
        if traced:
            self.check_counts(traced, workload, args.seed, jobs)
        # A pass answers one query: the workload's figure set.
        walls = [p["wall_s"] for p in untraced]
        self.samples = {"wall_s": walls}
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
            "query_p50_ms": 1000 * wall,
            "query_p90_ms": 1000 * wall,
        }
        if traced:
            metrics["layers"] = self._layers(
                [p["ledger"] for p in traced],
                statistics.median(p["wall_s"] for p in traced) / wall - 1)
        return metrics

    @staticmethod
    def _layers(reports: list[dict], overhead: float,
                server: dict | None = None) -> dict:
        """Median of each per-layer metric over the traced passes."""
        layers = {name: statistics.median(r[name] for r in reports)
                  for name in reports[0]}
        layers["trace_overhead_frac"] = overhead
        server = server or {}
        layers["experiments.server.journal_hits"] = \
            server.get("journal_hits", 0)
        layers["experiments.server.rejected"] = server.get("rejected", 0)
        layers["experiments.server.reask_p50_ms"] = 0.0
        return layers

    # -- serving workload ----------------------------------------------

    def run_serve(self) -> dict:
        args = self.args
        template = self.template("serve")
        self.known = self._load("digests.json")
        phases = [(False, args.seconds, SERVE_MIN_FRESH)]
        if args.trace:
            # The same fixed work on both sides, so that layer totals
            # compare between commits.
            fixed = TRACED_BATCHES * SERVE_CLIENTS * SERVE_ROUNDS \
                * len(common.SERVE_FIGURES)
            phases = [(False, 0, fixed), (True, 0, fixed)]
        sessions = {}
        for trace, seconds, min_fresh in phases:
            with self.pass_dir(template) as path:
                sessions[trace] = self.serve_session(path, trace, seconds,
                                                     min_fresh)
        plain = sessions[False]
        self.samples = {"batches": plain["batches"]}
        fresh = [ms for b in plain["batches"] for ms in b["fresh_ms"]]
        reask = [ms for b in plain["batches"] for ms in b["reask_ms"]]
        if not fresh or not reask:
            raise BenchError("no serving query was answered: "
                             + "; ".join(self.errors[:3]))
        metrics = {
            "wall_s": statistics.median(b["wall"] for b in plain["batches"]),
            "peak_rss_mb": plain["rss_mb"],
            "query_p50_ms": common.percentile(fresh, 0.5),
            "query_p90_ms": common.percentile(fresh, 0.9),
            "reask_p50_ms": common.percentile(reask, 0.5),
        }
        if args.trace:
            traced = sessions[True]
            book = ledger.Ledger()
            book.merge(traced["ledger"])
            book.local_seconds = traced["local_seconds"]
            overhead = statistics.median(
                b["wall"] for b in traced["batches"]) / metrics["wall_s"] - 1
            metrics["layers"] = self._layers(
                [book.report(traced["traced_wall"])], overhead,
                traced["server_stats"])
            metrics["layers"]["experiments.server.reask_p50_ms"] = \
                common.percentile([ms for b in traced["batches"]
                                   for ms in b["reask_ms"]], 0.5)
        return metrics

    def serve_session(self, path: Path, trace: bool, seconds: float,
                      min_fresh: int) -> dict:
        from repro.experiments.client import ServeClient, ServeUnavailable
        report = path / "serve.json"
        log = path / "serve.log"
        cmd = [sys.executable, str(HERE / "serve_main.py"),
               "--report", str(report)]
        if trace:
            cmd.append("--trace")
        cmd += ["--", *SERVE_ARGS]
        with open(log, "w") as out:
            proc = subprocess.Popen(
                cmd, cwd=path, env=self.env(path / "cache", path),
                start_new_session=True, stdout=out,
                stderr=subprocess.STDOUT)
        try:
            endpoint = self._wait_listening(proc, log)
            client = ServeClient(tcp=endpoint, timeout=self.remaining())
            session = {"batches": []}
            lock = threading.Lock()

            def ask(tenant: str, fig: str, key: str,
                    times: list | None) -> None:
                start = time.perf_counter()
                try:
                    response = client.query_figure(fig, key=key,
                                                   tenant=tenant)
                except ServeUnavailable as exc:
                    response = {"ok": False, "error": repr(exc)}
                took = 1000 * (time.perf_counter() - start)
                ok = bool(response and response.get("ok"))
                with lock:
                    # Answers are of the committed quick grids: seed 0.
                    if self.check_render(
                            fig, 0,
                            common.digest(response["rendered"]) if ok
                            else None,
                            None if ok else f"query {key}: {response}") \
                            and times is not None:
                        times.append(took)

            first = time.perf_counter()
            for fig in common.SERVE_FIGURES:
                ask("t0", fig, f"warmup-{fig}", None)
            answered: list[tuple] = []
            rngs = [random.Random(self.args.seed * 1000 + i)
                    for i in range(SERVE_CLIENTS)]
            end = time.monotonic() + seconds
            fresh_count = 0
            figs = list(common.SERVE_FIGURES) * SERVE_ROUNDS
            for batch in itertools.count():
                record = {"fresh_ms": [], "reask_ms": []}

                def fresh(index: int) -> None:
                    rng, tenant = rngs[index], f"t{index}"
                    order = list(figs)
                    rng.shuffle(order)
                    for n, fig in enumerate(order):
                        key = f"s{self.args.seed}-{tenant}-{batch}-{n}"
                        ask(tenant, fig, key, record["fresh_ms"])
                        with lock:
                            answered.append((tenant, fig, key))

                start = time.perf_counter()
                threads = [threading.Thread(target=fresh, args=(i,))
                           for i in range(SERVE_CLIENTS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                record["wall"] = time.perf_counter() - start
                # Re-asks come from one client between batches, when no
                # figure computation or second client holds the
                # interpreter lock: they time the session-journal path.
                reasks = [item for fig in common.SERVE_FIGURES
                          for item in rngs[0].choices(
                              [a for a in answered if a[1] == fig],
                              k=REASK_PER_FIGURE)]
                rngs[0].shuffle(reasks)
                for tenant, fig, key in reasks:
                    ask(tenant, fig, key, record["reask_ms"])
                session["batches"].append(record)
                self.between_passes()
                fresh_count += SERVE_CLIENTS * len(figs)
                if time.monotonic() > self.deadline:
                    raise BenchError("the serving run overran its budget")
                if time.monotonic() + record["wall"] > end \
                        and fresh_count >= min_fresh:
                    break
            session["traced_wall"] = time.perf_counter() - first
            session["server_stats"] = client.probe("status")["stats"]
            client.drain()
            proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("repro serve did not drain") from None
        finally:
            _stop_group(proc)
        if proc.returncode != 0:
            raise BenchError(f"repro serve exited {proc.returncode}: "
                             f"{log.read_text()[-2000:]}")
        session.update(json.loads(report.read_text()))
        return session

    def _wait_listening(self, proc: subprocess.Popen, log: Path) -> str:
        marker = "listening on tcp:"
        limit = time.monotonic() + 60
        while time.monotonic() < limit:
            for line in log.read_text().splitlines():
                if marker in line:
                    return line.split(marker, 1)[1].split()[0]
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        raise BenchError(f"repro serve did not start: "
                         f"{log.read_text()[-2000:]}")

    # -- one run -------------------------------------------------------

    def run(self) -> dict:
        args = self.args
        runs = self.work / "runs"
        runs.mkdir(exist_ok=True)
        for old in runs.glob("run-*"):
            # Left behind by a run that was killed.
            if not _alive(int(old.name.split("-")[1])):
                shutil.rmtree(old, ignore_errors=True)
        self.rundir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                             dir=runs))
        self.deadline = time.monotonic() + RUN_BUDGET
        try:
            if args.workload == "serve_warm":
                metrics = self.run_serve()
            else:
                metrics = self.run_figures(args.workload)
            while len(self.setup_walls) < SETUP_PROBES:
                self.probe_setup()
        finally:
            shutil.rmtree(self.rundir, ignore_errors=True)
        metrics["setup_s"] = statistics.median(self.setup_walls)
        if self.new_known and not self.failed:
            self._save("digests.json", self.new_known)
        layers = metrics.pop("layers", None)
        if layers is not None:
            layers["setup.import_s"] = statistics.median(self.setup_imports)
        return {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "correct": not self.errors,
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors,
            "end_to_end": metrics, "per_layer": layers,
            "digests": self.digests,
            "samples": self.samples,
            "compiler": os.environ.get("CC") or shutil.which("cc")
            or shutil.which("gcc") or shutil.which("clang"),
            "kernels_built": all(self.kernels_built),
            "source_key": self.key,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="append the full run record (JSON line)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository "
              "root", file=sys.stderr)
        return 2
    knobs = sorted(k for k in os.environ
                   if k.startswith("REPRO_") and k not in OWN_KNOBS)
    if knobs:
        print(f"perfbench: refusing to run with {', '.join(knobs)} set: "
              "each changes the program being measured", file=sys.stderr)
        return 2
    # The serving workload's client runs in this process.
    sys.path.insert(0, str(root / "src"))
    try:
        record = Bench(root, args).run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for error in record["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

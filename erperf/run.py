#!/usr/bin/env python3
"""Entity-resolution benchmark: builds the program from source, runs one
workload in fresh JVMs, checks its outputs and prints its metrics.

    python3 erperf/run.py --workload block-large --seed 1 --seconds 40 --trace 0
    python3 erperf/run.py --self-test

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is the environment and per-pass record. See erperf/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "erperf"
BUILD = ROOT / ".bench_build" / "erperf"
CLASSES = BUILD / "classes"
# A fixed 2 GiB heap with fixed generation sizes. The 1 GiB young
# generation is touched in full early in every pass, so peak_rss_mb moves
# with what the program keeps (old generation, survivors, native memory),
# not with the collector's resizing: under G1's adaptive sizing, VmHWM
# varied by 7-18% between seeds of one workload.
HEAP_OPTS = ["-XX:+UseParallelGC", "-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:SurvivorRatio=3",
             "-XX:-UseAdaptiveSizePolicy"]
# Every run, both passes of a traced one included, must end well within 180 s.
RUN_LIMIT_S = 170.0
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# The module options Spark's launcher passes to a Java 17 driver.
JAVA_OPTS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


class BenchError(Exception):
    pass


def java_bin():
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def spark_jars():
    """$SPARK_HOME/jars, else the jars beside the first bin/spark-submit on PATH."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else \
        [Path(d).parent for d in os.environ.get("PATH", "").split(os.pathsep)
         if (Path(d) / "spark-submit").is_file()]
    for home in homes:
        if (Path(home) / "jars").is_dir():
            return Path(home) / "jars"
    raise BenchError("no Spark jars found; set SPARK_HOME")


def sources():
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        raise BenchError(f"program sources not found at {main}")
    files = sorted(main.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala")) \
        + sorted((HERE / "test").rglob("*.scala"))
    if not files:
        raise BenchError("no Scala sources")
    return files


def source_digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build():
    """Compiles the program and the benchmark with the Scala compiler that
    ships with Spark; skips the work when the sources are unchanged."""
    files = sources()
    digest = source_digest(files)
    stamp = CLASSES / ".digest"
    if stamp.is_file() and stamp.read_text() == digest:
        return digest
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    jars = str(spark_jars() / "*")
    argfile = BUILD / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    log = BUILD / "build.log"
    with open(log, "w") as out:
        rc = subprocess.call(
            [java_bin(), "-Xss16m", "-Xmx2g", "-cp", jars, "scala.tools.nsc.Main",
             "-d", str(CLASSES), "-classpath", jars, "-nowarn", "@" + str(argfile)],
            stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise BenchError(f"compilation failed (exit {rc}); see {log}")
    stamp.write_text(digest)
    return digest


def cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def jvm(main_class, args, timeout, log_name):
    """Runs one fresh JVM; returns its record line (after Main.Tag) as a dict."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [java_bin(), *HEAP_OPTS, *JAVA_OPTS,
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={tmp}",
           "-cp", f"{CLASSES}{os.pathsep}{spark_jars() / '*'}", main_class, *args]
    log = BUILD / "logs" / log_name
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{main_class} timed out after {timeout:.0f} s; see {log}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{main_class} exited with {proc.returncode}; see {log}")
    return stdout


def one_pass(workload, seed, trace, deadline, index):
    local = BUILD / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    out = jvm("repro.perf.Main",
              ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
               "--cores", str(cores()), "--local-dir", str(local)],
              deadline - time.monotonic(), f"{workload}-s{seed}-t{trace}-{index}.log")
    recs = [l[len("ERPERF "):] for l in out.splitlines() if l.startswith("ERPERF ")]
    if len(recs) != 1:
        raise BenchError(f"expected one record from the JVM, got {len(recs)}")
    rec = json.loads(recs[0])
    rec["jvm_s"] = time.monotonic() - t0
    return rec


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def measure(args, spec):
    """Untraced: one pass. Traced: one untraced pass for the overhead, then
    one traced pass; the two must agree on recall and F1."""
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = [one_pass(args.workload, args.seed, 0, deadline, 0)]
    if args.trace:
        passes.append(one_pass(args.workload, args.seed, 1, deadline, 1))

    failures = [f for p in passes for f in p["failures"]]
    quality = {(p["recall_at10"], p["f1"]) for p in passes}
    if len(quality) != 1:
        failures.append(f"recall_at10/f1 differ between the passes of one seed: {sorted(quality)}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + (len(quality) != 1)

    if args.trace:
        untraced, traced = passes
        values = dict(traced["per_layer"])
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        names = spec["per_layer"]
    else:
        (p,) = passes
        values = {k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "recall_at10", "f1")}
        values["setup_s"] = statistics.median(p["setup_s"])
        names = spec["end_to_end"]

    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "git_sha": git_sha(), "source_sha256": args.digest, "heap": " ".join(HEAP_OPTS), "cores": cores(),
        "passes": [{k: v for k, v in p.items() if k != "failures"} for p in passes],
        "failures": failures,
    }
    result = {"correct": failed == 0 and not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def self_test(spec):
    """Benchmark-side tests: metric names, then the Scala self-test."""
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    bad = [n for n in names if not METRIC_NAME.match(n)]
    assert not bad, f"metric names not matching {METRIC_NAME.pattern}: {bad}"
    assert len(set(names)) == len(names), "a metric name is used twice"
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"]), "setup_s missing"
    out = jvm("repro.perf.SelfTest", [], RUN_LIMIT_S, "self-test.log")
    sys.stdout.write(out)
    print(f"self-test passed: {len(names)} metric names ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="the run's declared length; the work is fixed, so it is only recorded")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so that jvm() stops its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.digest = build()
        if args.self_test:
            self_test(spec)
            return 0
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        record, result = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError, AssertionError) as e:
        print(f"erperf: {e}", file=sys.stderr)
        return 2
    rec_dir = BUILD / "results"
    rec_dir.mkdir(parents=True, exist_ok=True)
    (rec_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

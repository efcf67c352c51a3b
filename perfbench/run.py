#!/usr/bin/env python3
"""Runs one benchmark workload of the write-ahead-lineage engine.

    python3 perfbench/run.py --workload mixed-4w --seed 1 --seconds 10 --trace 0

Builds the engine and the benchmark from source (see build.py), then runs
the benchmark in one forked JVM. The last line of standard output is the
JSON result; the exit code is non-zero if any engine result differs from
the SparkSQL reference, or if building or running fails.
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["mixed-4w", "kill-16w"]
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Spark on Java 17 needs these JDK internals opened.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        classes = build.build(root)
        java = build.java_bin()
        jars = build.spark_jars()
    except build.BuildError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    out = os.path.join(root, build.BUILD_DIR)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The throughput collector does no concurrent GC work beside the
    # single engine thread.
    cmd = ([java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=" + os.path.join(root, "perfbench", "log4j2.properties")]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
              "perfbench.Bench",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out])
    # Spark prefers SPARK_LOCAL_DIRS over its config; keep scratch in the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())

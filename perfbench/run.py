#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the program and the
benchmark from source with sbt (perfbench/build.sbt) and caches the class
path under .bench_build/; later runs start the JVM directly. Maintenance:

    python3 perfbench/run.py --prime               # profile for real, rewrite perfbench/profiles
    python3 perfbench/run.py --export-cache DIR    # snapshot an existing profile cache

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH = "perfbench"
WORK = os.path.join(".bench_build", "perfbench")
SOURCES = [os.path.join("src", "main"), os.path.join(BENCH, "src", "main"),
           os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Spark's standard JDK 17 module openings (as in the root build.sbt).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
         "java.base/sun.security.action", "java.base/sun.util.calendar",
         "java.security.jgss/sun.security.krb5"]
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 880


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("SPARK_HOME must point at a Spark distribution")
    return home


def build(env, digest, timeout):
    """Compile with sbt unless the cached class path matches the sources."""
    stamp, cp_file = os.path.join(WORK, "build.stamp"), os.path.join(WORK, "classpath.txt")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                with open(cp_file) as fh:
                    return fh.read().strip(), False
    if not shutil.which("sbt"):
        fail("sbt is needed to build the benchmark")
    print("[perfbench] building with sbt", file=sys.stderr)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=timeout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout)
        fail(f"sbt build failed (exit {proc.returncode})")
    classpath = lines[-1].strip()
    os.makedirs(WORK, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(classpath + "\n")
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    return classpath, True


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["serve", "train", "simulate"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--prime", action="store_true")
    ap.add_argument("--export-cache")
    args = ap.parse_args()
    if not (args.workload or args.prime or args.export_cache):
        ap.error("one of --workload, --prime or --export-cache is required")

    start = time.time()
    if not (os.path.isdir(os.path.join("src", "main", "scala", "repro"))
            and os.path.isfile(os.path.join(BENCH, "build.sbt"))):
        fail("run from the repository root: the program sources (src/main/scala) are missing")
    env = dict(os.environ, SPARK_HOME=spark_home())
    digest = source_digest()
    classpath, built = build(env, digest, FIRST_RUN_LIMIT_S - 60)

    work = os.path.abspath(WORK)
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if env.get("JAVA_HOME") else "java"
    cmd = [java, "-Xmx2g", f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
           *[f"--add-opens={o}=ALL-UNNAMED" for o in OPENS],
           "-cp", classpath, "perfbench.Main"]
    common = ["--work", work, "--profiles", os.path.abspath(os.path.join(BENCH, "profiles"))]
    if args.prime:
        sys.exit(subprocess.run(cmd + ["prime"] + common, env=env).returncode)
    if args.export_cache:
        sys.exit(subprocess.run(cmd + ["export", "--cache", os.path.abspath(args.export_cache)] + common,
                                env=env).returncode)

    commit = commit_id() or "none"
    cmd += ["run", "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--commit", f"{commit}+src:{digest[:12]}"] + common
    limit = (FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.time() - start)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(limit, 10))
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded its time limit")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"benchmark JVM failed (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark JVM printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"malformed result line: {lines[-1]}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

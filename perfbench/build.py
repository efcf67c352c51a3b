"""Compiles the engine (src/main/scala) and the benchmark (perfbench/scala)
with the Scala compiler shipped in the Spark distribution's jars.

Classes go to .bench_build/classes in the checkout. A stamp over the
sources and the compiler's jar list skips the compile when nothing changed.
"""
import glob
import hashlib
import os
import shutil
import subprocess

SOURCE_DIRS = ["src/main/scala", "perfbench/scala"]
BUILD_DIR = ".bench_build"
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java on PATH and JAVA_HOME unset")
    return found


def spark_jars():
    """Directory of the Spark distribution's jars (SPARK_HOME, else the
    distribution that holds `spark-submit` on PATH)."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return jars


def sources(root):
    files = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(os.path.join(root, d)):
            raise BuildError(f"missing source directory {d}")
        files += sorted(glob.glob(os.path.join(root, d, "**", "*.scala"), recursive=True))
    return files


def build(root):
    """Returns the classes directory, compiling first if sources changed."""
    jars = spark_jars()
    files = sources(root)
    h = hashlib.sha256()
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()

    out = os.path.join(root, BUILD_DIR, "classes")
    stamp_file = out + ".stamp"
    if os.path.isdir(out) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return out

    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    os.makedirs(out)
    # An explicit classpath keeps the compiler from reading the working
    # directory, where perfbench/scala would look like a package.
    cmd = [java_bin(), "-Xss8m", "-Xmx1536m", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-classpath", out, "-nowarn", "-d", out] + files
    try:
        r = subprocess.run(cmd, cwd=root, timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError("compile timed out")
    if r.returncode != 0:
        raise BuildError(f"compile failed with exit code {r.returncode}")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return out

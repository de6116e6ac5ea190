"""List every line inside a function of src/marcz that no process of the
tier-1 run executed.

    python tests/never_run.py [pytest arguments]

The suite runs under a line tracer installed by a `sitecustomize` module on
PYTHONPATH, so the CLI subprocesses that tests start are counted too, and a
forked child writes its lines before `os._exit`. Lines are counted in any
`marcz` package directory, so the copies the benchmark smoke test runs count
for the file of the same name. Everything the run writes (the tracer, its
line files, pytest's and hypothesis' caches, the tests' own output) stays in
one temporary directory, which is removed at the end.

Exit status: 0 if every line ran, 1 otherwise. The tests' own result is
printed but does not change it.
"""

import dis
import inspect
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "marcz")

SITECUSTOMIZE = '''\
import os
import sys

_out = os.environ.get("NEVER_RUN_DIR")
if _out:
    _lines = set()

    def _local(frame, event, arg):
        if event == "line":
            _lines.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
        return _local

    def _call(frame, event, arg):
        path = frame.f_code.co_filename
        if os.path.basename(os.path.dirname(path)) == "marcz":
            return _local(frame, "line", arg)
        return None

    def _dump():
        with open(os.path.join(_out, "lines-%d.txt" % os.getpid()), "a") as fh:
            fh.writelines("%s:%d\\n" % line for line in _lines)

    _exit = os._exit

    def _dump_and_exit(status):
        _dump()
        _exit(status)

    import atexit
    atexit.register(_dump)
    os._exit = _dump_and_exit
    sys.settrace(_call)
'''


def function_lines(path):
    """The line numbers that carry code of a function body in `path`: every
    nested code object that is not the module's or a class body's, without
    the def line itself."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [(code, False)]
    while stack:
        co, in_function = stack.pop()
        is_function = bool(co.co_flags & inspect.CO_OPTIMIZED)
        if is_function:
            lines |= {ln for _, ln in dis.findlinestarts(co) if ln and ln != co.co_firstlineno}
        stack.extend((c, is_function or in_function) for c in co.co_consts
                     if inspect.iscode(c))
    return lines


def main(argv):
    work = tempfile.mkdtemp(prefix="never_run.")
    try:
        with open(os.path.join(work, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE)
        counts = os.path.join(work, "lines")
        os.mkdir(counts)
        env = dict(os.environ, NEVER_RUN_DIR=counts, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([work, os.path.join(ROOT, "src")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--rootdir", ROOT, "-c", os.path.join(ROOT, "pyproject.toml"),
             "--basetemp", os.path.join(work, "tmp"), os.path.join(ROOT, "tests"), *argv],
            cwd=work, env=env, capture_output=True, text=True)
        summary = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
        print(f"tests: {summary[0]} (exit {proc.returncode})")
        ran = set()
        for name in os.listdir(counts):
            with open(os.path.join(counts, name)) as fh:
                for entry in fh:
                    base, line = entry.rsplit(":", 1)
                    ran.add((base, int(line)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total = missed = 0
    for base in sorted(os.listdir(PACKAGE)):
        if not base.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, base)
        lines = function_lines(path)
        total += len(lines)
        with open(path) as fh:
            source = fh.read().splitlines()
        for ln in sorted(lines - {line for b, line in ran if b == base}):
            missed += 1
            print(f"src/marcz/{base}:{ln}: {source[ln - 1].strip()}")
    print(f"{total - missed} of {total} lines inside functions of src/marcz ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

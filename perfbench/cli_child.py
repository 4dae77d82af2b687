"""Run the ``derivalg`` command line once, as its console script does.

Usage: ``python3 perfbench/cli_child.py JOB ARGS...``.  ``JOB`` is ``-``
for a plain run.  Any other value traces the run: the wrappers of
``spans.Tracer`` are installed before ``derivalg.cli.main`` is called, and
the spans, tagged with ``JOB``, are printed after the command's output on
one line that starts with ``workloads.TRACE_MARKER``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    job, argv = sys.argv[1], sys.argv[2:]
    from derivalg import cli

    if job == "-":
        return cli.main(argv)

    from spans import Tracer
    from workloads import TRACE_MARKER

    tracer = Tracer()
    tracer.job = int(job)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.write(TRACE_MARKER + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

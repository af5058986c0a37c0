"""Run the hadtrunc command line from the checkout's src/ tree, as the
installed `hadtrunc` console script would.

    python perfbench/cli_child.py SUBCOMMAND [ARGS...]

With PERFBENCH_TRACE=1 in the environment the import of hadtrunc.cli and
every library call are recorded as spans, written as the last stderr line.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    sys.path.insert(0, SRC)
    start = perf_counter()
    from hadtrunc import cli
    imported = perf_counter()
    if os.environ.get("PERFBENCH_TRACE") != "1":
        return cli.main(argv)
    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", start, imported, -1, None])
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracing.emit_child_spans(tracer.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one vertexfock CLI job with the outside tracer installed.

    python3 perfbench/traced_job.py TRACE_FILE TRACE_ID CLI_ARG...

The CLI's output and exit code are those of ``python3 -m vertexfock.cli
CLI_ARG...``; the spans of the job go to TRACE_FILE when it ends,
together with the sizes of the package's memo tables at that point.
"""

import sys

import tracer
import vertexfock.cli
from vertexfock import ope, verma


def main() -> int:
    trace_path, trace_id, *argv = sys.argv[1:]
    t = tracer.Tracer()
    t.install()
    try:
        code = vertexfock.cli.main(argv)
    finally:
        t.uninstall()
    gauges = {"ope.memo_entries": len(ope._MEMO), "verma.act_memo_entries": len(verma._ACT_MEMO)}
    t.write(trace_path, trace_id, gauges)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark call in a fresh interpreter.

    python3 perfbench/child.py REPORT MODE -- CLI-ARGS...

MODE is ``setup`` (import and parse only), ``run`` (then the timed
``posterior_lab.cli.main`` call) or ``trace`` (the same call with the
layer wrappers of ``tracer.py`` installed).  The package is imported from
``src/`` under the working directory and nowhere else.  REPORT receives a
JSON object with the timings; a traced call also writes REPORT + ".spans".
Exit code 90 means the package could not be imported from ``src/``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

EXIT_NO_PACKAGE = 90


def main() -> int:
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "run", "trace"):
        print("usage: child.py REPORT setup|run|trace -- CLI-ARGS...", file=sys.stderr)
        return 2
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    try:
        import posterior_lab.cli as cli
    except ImportError as exc:
        print(f"cannot import posterior_lab from {src}: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"posterior_lab was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return EXIT_NO_PACKAGE
    cli.build_parser().parse_args(argv)
    t1 = time.perf_counter()
    report = {"setup_s": t1 - t0}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t2 = time.perf_counter()
        rc = cli.main(argv)
        t3 = time.perf_counter()
        report.update(wall_s=t3 - t2, rc=rc,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            from tracer import write_spans
            write_spans(report_path + ".spans", tracer.take())

    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

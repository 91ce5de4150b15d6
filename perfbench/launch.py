"""Run one ``repro`` CLI command for the service workload.

Usage: ``launch.py OUT_PREFIX TRACE -- <repro arguments>``.  With
``TRACE`` 1 the layer wrappers of ``spans.py`` are installed before
control passes to ``repro.cli.main``, so ``repro serve`` and ``repro
worker`` are traced without editing them.  At exit the process writes
its spans to ``OUT_PREFIX.trace.json`` and its peak RSS in MiB to
``OUT_PREFIX.rss``.  SIGTERM exits cleanly, so a stopped worker still
writes both; ``repro serve`` replaces the handler with its own drain.
"""

from __future__ import annotations

import atexit
import resource
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    prefix, trace, separator, args = argv[0], argv[1] == "1", argv[2], argv[3:]
    if separator != "--":
        raise SystemExit("usage: launch.py OUT_PREFIX TRACE -- ARGS...")
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    def finish() -> None:
        if recorder is not None:
            recorder.write(prefix + ".trace.json")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        Path(prefix + ".rss").write_text(f"{peak_mb}\n")

    atexit.register(finish)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    from repro.cli import main as cli_main

    return cli_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

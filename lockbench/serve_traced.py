"""Run ``repro`` (normally ``serve --http``) with a tracing control channel.

Usage::

    python3 lockbench/serve_traced.py serve --http 0 --jobs 2 ...

The arguments after the script name go to ``repro``'s CLI unchanged.
While the daemon runs, one control line per request is read from stdin
and answered with one line on stdout:

* ``on``  — install the span wrappers and start recording.
* ``off`` — stop recording and remove the wrappers; the reply lists any
  name still bound to a wrapper after removal (none expected).
* ``dump PATH`` — write every recorded span and count to ``PATH`` (JSON).

Without control lines the daemon runs untraced, exactly as
``python -m repro`` would run it.

The channel reads and writes duplicates of fds 0 and 1, and ``sys.stdin``
is pointed at ``/dev/null``: a pool worker forked while the control
thread waits on a read would otherwise inherit the held ``sys.stdin``
lock and hang when ``multiprocessing`` closes ``sys.stdin`` in the child.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from lockbench.trace import Recorder, Tracer  # noqa: E402


def _control(tracer: Tracer, commands, replies) -> None:
    for line in commands:
        command, _, arg = line.strip().partition(" ")
        if command == "on":
            tracer.install()
            tracer.recorder.enable()
            reply = "ok on"
        elif command == "off":
            tracer.recorder.disable()
            tracer.uninstall()
            reply = " ".join(["ok", "off", *tracer.leftover_wrappers()])
        elif command == "dump":
            Path(arg).write_text(json.dumps(tracer.recorder.to_dict()))
            reply = "ok dump"
        else:
            reply = f"error unknown command {command!r}"
        print(reply, file=replies, flush=True)


def main() -> int:
    from repro.cli import main as repro_main

    tracer = Tracer(Recorder())
    commands = os.fdopen(os.dup(0), "r")
    replies = os.fdopen(os.dup(1), "w")
    sys.stdin = open(os.devnull)
    threading.Thread(
        target=_control, args=(tracer, commands, replies), daemon=True
    ).start()
    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())

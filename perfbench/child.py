"""Traced stand-in for ``python -m repro``.

``python3 -m perfbench.child OUT.json GROUPS ARGS...`` imports the
program, installs the span wrappers of the comma-separated layer
``GROUPS`` and runs ``repro.__main__.main(ARGS)`` — the analyze CLI, or
the service when ``ARGS`` starts with ``serve``.  On the way out it
writes the spans to ``OUT.json``, together with a ``proc.start_import``
span from the spawn time the parent put in ``PERFBENCH_SPAWN`` to the
moment the entry module finished importing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from perfbench.spans import Recorder, clock, install


def main(argv) -> int:
    out, groups, args = Path(argv[0]), argv[1].split(","), argv[2:]
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    if args and args[0] == "serve":
        import repro.service.cli  # noqa: F401  (what `repro serve` imports)
    import repro.__main__ as entry

    imported = clock()
    rec = Recorder()
    rec.set_op(int(os.environ.get("PERFBENCH_OP", "0")))
    rec.add("proc.start_import", spawned, imported)
    install(rec, groups)
    try:
        code = entry.main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.dump(out, {"pid": os.getpid()})
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

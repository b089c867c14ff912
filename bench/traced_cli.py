"""Run one `ceofdm` command through `ceofdm.cli.main(argv)` with spans on.

    python3 bench/traced_cli.py SPANS.json gen --L 24 --tbp 200.0 ...

run.py --trace 1 starts this once per command, so every traced command
starts from a fresh interpreter and fresh module state, as an untraced one
does.  The spans, counters and absent entry points go to SPANS.json; the
exit code is the command's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer(run=out.stem)
    absent, restore = spans.install(tracer)
    from ceofdm import cli

    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    finally:
        restore()
    out.write_text(json.dumps({
        "rc": rc, "absent": absent, "spans": tracer.as_records(),
        "counts": dict(tracer.counts),
        "count_errors": sorted(tracer.count_errors)}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())

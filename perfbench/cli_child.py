"""Run the ``freqbin`` command line the way its console script does.

Usage:

    python3 perfbench/cli_child.py [--spans FILE] run MANIFEST --out DIR

Without ``--spans`` this is ``freqbin`` itself.  With it, the import of
``freqbin.cli`` and every call named in ``spans.TARGETS`` are recorded,
and the spans are written to FILE as JSON when the command returns.
"""

import sys

from spans import Patch, Recorder


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        from freqbin.cli import main as freqbin_main

        return freqbin_main(argv)
    spans_path, argv = argv[1], argv[2:]
    recorder = Recorder()
    sid = recorder.open("import.freqbin")
    import freqbin.cli

    recorder.close(sid)
    patch = Patch(recorder)
    try:
        return freqbin.cli.main(argv)
    finally:
        patch.restore()
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

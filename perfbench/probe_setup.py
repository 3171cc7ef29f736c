"""One set-up: import bmtrunc, load the model files, make one warm-up call.

Usage: python3 perfbench/probe_setup.py SRC_DIR MODEL... -- CLI_ARGS...

The caller times the whole process, interpreter start included, since every
CLI invocation pays that cost. Exits with the warm-up call's exit code.
"""

import io
import sys
from contextlib import redirect_stdout


def main(argv: list[str]) -> int:
    split = argv.index("--")
    src, models, cli_args = argv[0], argv[1:split], argv[split + 1 :]
    sys.path.insert(0, src)
    from bmtrunc import load_model
    from bmtrunc.cli import main as cli_main

    for path in models:
        load_model(path)
    with redirect_stdout(io.StringIO()):
        return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

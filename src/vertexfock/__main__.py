"""``python -m vertexfock``: the same command line as ``vertexfock``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

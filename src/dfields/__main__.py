"""``python -m dfields``: the same command line as the ``dfields`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

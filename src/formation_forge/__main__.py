"""``python -m formation_forge``: the ``formation-forge`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

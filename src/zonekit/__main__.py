"""``python -m zonekit``: the zonekit command line."""

import sys

from .cli import main

# guarded, because spawned worker processes re-import the main module
if __name__ == "__main__":
    sys.exit(main())

"""``python -m zonekit``: the zonekit command line."""

import sys

from .cli import main

# guarded, so that importing this module does not run the command line
if __name__ == "__main__":
    sys.exit(main())

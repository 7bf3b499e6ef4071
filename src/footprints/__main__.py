"""`python -m footprints ...`: the same command line as `footprints ...`."""

import sys

from .cli import main

sys.exit(main())

"""Entry point of ``python -m coarsek``."""

import sys

from .cli import main

sys.exit(main())

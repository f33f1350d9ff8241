"""`python -m ngn ...`: the `ngn` command, exiting with its status."""

import sys

from .cli import main

sys.exit(main())

"""`python -m quandle_cayley`: the command line of the quandle-cayley script."""
from .cli import main

raise SystemExit(main())

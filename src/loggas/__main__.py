"""`python -m loggas ...` runs the `loggas` command line."""

from .cli import main

main()

"""`python -m samplequad`: the command line of `samplequad.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

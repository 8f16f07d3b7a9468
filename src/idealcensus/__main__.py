"""``python -m idealcensus``: the command-line interface of ``cli.main``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

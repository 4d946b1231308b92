"""``python -m repro.analysis`` entry point."""

from repro.analysis.cli import main

if __name__ == "__main__":
    raise SystemExit(main())

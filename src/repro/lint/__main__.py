"""``python -m repro.lint`` entry point."""

from repro.lint.cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m mfgplan``: the ``mfgplan`` command without the installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

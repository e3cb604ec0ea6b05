"""Admin CLI for a persistent compile-cache directory.

Works on any :class:`repro.api.PersistentCompileCache` root: a compile
service's disk cache or a ``compile_batch(checkpoint_dir=...)`` journal.

Subcommands
-----------
``stats``
    Entry count, total bytes, version stamp, per-shard entry counts and how
    many stored entries are stale under the current version.
``vacuum``
    Remove every entry whose version stamp doesn't match the current one
    (i.e. entries written before the golden files last changed).
``clear``
    Remove every entry regardless of version.

Usage::

    PYTHONPATH=src python tools/cache_admin.py stats  /path/to/cache
    PYTHONPATH=src python tools/cache_admin.py vacuum /path/to/cache
    PYTHONPATH=src python tools/cache_admin.py clear  /path/to/cache

``--version-stamp`` overrides the default golden-derived stamp, which is
mostly useful for inspecting a cache written by a different checkout.
Output is JSON on stdout so the commands compose with ``jq``/scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import PersistentCompileCache  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cache_admin", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "command", choices=("stats", "vacuum", "clear"), help="what to do"
    )
    parser.add_argument("cache_dir", help="persistent compile-cache directory")
    parser.add_argument(
        "--version-stamp",
        default=None,
        help="override the golden-derived version stamp",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    root = Path(args.cache_dir)
    if args.command != "stats" and not root.is_dir():
        print(f"cache directory {root} does not exist", file=sys.stderr)
        return 1
    cache = PersistentCompileCache(root, version=args.version_stamp)

    if args.command == "stats":
        report = cache.stats()
    elif args.command == "vacuum":
        removed = cache.vacuum()
        report = {"removed_stale_entries": removed, **cache.stats()}
    else:  # clear
        removed = cache.clear()
        report = {"removed_entries": removed, **cache.stats()}

    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run every shipped recipe through the CLI and print a digest per artifact.

    python3 tools/recipe_digests.py                  # this checkout's src/
    python3 tools/recipe_digests.py --src OTHER/src  # another checkout

Each recipe goes through ``cli.main`` into a temporary directory with the
verb its config asks for: ``sweep`` (one worker) when it declares sweep
axes, ``privacy-trace`` when it has a ``privacy_trace`` section, ``run``
otherwise. Standard output is one ``sha256  path`` line per artifact,
sorted by path, so two trees produce byte-identical artifacts exactly
when ``diff`` finds nothing between their outputs. The CLI's own messages
go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the gossipshield package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import gossipshield
    from gossipshield import cli
    from gossipshield.config import load_config

    recipes = sorted((Path(gossipshield.__file__).parent / "recipes").glob("*.yaml"))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for recipe in recipes:
            cfg = load_config(recipe)
            if "sweep" in cfg:
                verb = ["sweep", "--workers", "1"]
            elif "privacy_trace" in cfg:
                verb = ["privacy-trace"]
            else:
                verb = ["run"]
            argv = [verb[0], str(recipe), "--out", str(root / recipe.stem), *verb[1:]]
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            if code != 0:
                print(f"{recipe.name}: {verb[0]} exited {code}", file=sys.stderr)
                return 1
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

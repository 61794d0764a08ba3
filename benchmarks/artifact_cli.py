"""The command line the artifact benchmarks share.

``bench_wallclock``, ``bench_transfer_cache``, ``bench_qos_isolation``,
``bench_overcommit`` and ``bench_monitor`` each measure once, print a
report, optionally gate it (``--check``) and optionally commit it as a
JSON artifact at the repository root (``--update``).  The scripts supply
the three steps and their own extra arguments; this is the one ``main``
around them.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def artifact_main(argv: Optional[List[str]], *, doc: str, artifact: Path,
                  measure: Callable[[argparse.Namespace], dict],
                  check: Callable[[dict, argparse.Namespace], int],
                  print_report: Callable[[dict], None],
                  quick_help: str, check_help: str,
                  arguments: Sequence[Tuple[str, Dict[str, object]]] = (),
                  ) -> int:
    """Parse ``argv``, then ``measure(args)`` -> ``print_report`` ->
    ``check(report, args)`` under ``--check`` -> write under ``--update``.

    ``arguments`` are the script's extra ``(flag, add_argument options)``
    pairs.  Keys of the report that start with an underscore carry live
    objects for ``print_report`` only; they reach neither ``check`` nor
    the artifact.  A failed check never rewrites the artifact.
    """
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument("--check", action="store_true", help=check_help)
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {artifact.name}")
    parser.add_argument("--artifact", type=Path, default=artifact,
                        help="artifact path for --check/--update")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    args = parser.parse_args(argv)

    report = measure(args)
    print_report(report)
    report = {key: value for key, value in report.items()
              if not key.startswith("_")}
    rc = check(report, args) if args.check else 0
    if args.update and rc == 0:
        args.artifact.write_text(json.dumps(report, indent=2,
                                            sort_keys=True) + "\n")
        print(f"\nwrote {args.artifact}")
    return rc

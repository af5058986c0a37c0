"""Time one workload's set-up in a fresh interpreter: importing hadtrunc
(through hadtrunc.cli, which every command-line call pays for) and building
and validating the workload's matrices from their spec strings.

    python perfbench/setup_probe.py SPEC [SPEC ...]

Prints one JSON object with the import, build and validate times in seconds,
and the perf_counter stamps at which the set-up started and ended.
"""

import json
import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(spec_strings):
    sys.path.insert(0, SRC)
    start = perf_counter()
    import hadtrunc.cli  # noqa: F401  (imports every layer)
    from hadtrunc import matrices, specs
    imported = perf_counter()
    built = [specs.build_matrix(text) for text in spec_strings]
    done_build = perf_counter()
    valid = all(matrices.validate(h.array).passed for h in built)
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": done_build - imported,
                      "validate_s": done - done_build, "setup_s": done - start,
                      "start": start, "end": done,
                      "valid": valid}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Branin evaluator speaking the JSON-lines protocol of ``mace run --problem cmd:...``.

It reads ``{"id": k, "x": [x0, x1]}`` requests (physical coordinates,
x0 in [-5, 10], x1 in [0, 15]) from stdin and answers each with
``{"id": k, "y": branin(x0, x1)}``.  Standard library only, so the benchmark
pays the cost of a bare interpreter start per batch and nothing more.
"""

import json
import math
import sys

_B = 5.1 / (4.0 * math.pi**2)
_C = 5.0 / math.pi
_T = 1.0 / (8.0 * math.pi)


def branin(x0: float, x1: float) -> float:
    return (x1 - _B * x0**2 + _C * x0 - 6.0) ** 2 + 10.0 * (1.0 - _T) * math.cos(x0) + 10.0


def main() -> None:
    for line in sys.stdin:
        if line.strip():
            request = json.loads(line)
            print(json.dumps({"id": request["id"], "y": branin(*request["x"])}), flush=True)


if __name__ == "__main__":
    main()

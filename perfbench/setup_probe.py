"""One fresh-interpreter set-up: import emnav, parse the configs, build the model.

run.py times this whole process from outside, so interpreter start-up and
import cost count, as they do for every ``emnav`` command a user runs.  The
probe arms a ``speed.SpeedSampler`` before it imports anything and prints,
as one JSON line, the mean speed and the time spent sampling, so that run.py
can give the set-up time at the reference speed.

    python3 perfbench/setup_probe.py COMMAND CONFIG [COMMAND CONFIG ...]
"""

from __future__ import annotations

import json
import sys

from speed import SpeedSampler


def main(argv: list[str]) -> int:
    sampler = SpeedSampler()
    sampler.start()
    import emnav.cli  # noqa: F401  (the front end a user starts)
    from emnav.magmodel import get_model
    from emnav.sim import scenario_from_dict

    for command, path in zip(argv[::2], argv[1::2]):
        with open(path) as fh:
            data = json.load(fh)
        if command == "simulate":
            data.pop("kind", None)
            scenario_from_dict(data)  # also builds the coil model
        else:
            get_model(data["model"])
    sampler.stop()
    print(json.dumps({"speed": sampler.speed(), "spent_s": sampler.spent_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

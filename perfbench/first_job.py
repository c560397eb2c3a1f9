"""Set-up time in a fresh process: ``import polyflow`` plus one job.

Only the standard library is loaded before the clock starts, so numpy's
import is part of the measurement, as it is for a CLI user.  The
calibration kernel's own time is left out of the interval.

    python3 perfbench/first_job.py SRC '["flow", "--input", "p.json", "--m", "1"]'

Prints ``{"code": <exit code>, "wall_s": <s>, "setup_s": <s at reference speed>}``.
"""
import contextlib
import io
import json
import sys

from calibration import Interval

src, argv = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
with Interval() as interval:
    from polyflow import cli  # the import is part of what is timed

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps({"code": code, "wall_s": interval.wall, "setup_s": interval.scaled}))

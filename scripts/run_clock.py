#!/usr/bin/env python3
"""Clock-motion experiment: circular object path, tracking disabled.

Reports the mean radius and spread of the detected centers over two
revolutions at 3.82 s per revolution.
"""

import sys

from colortrack.cli import main

sys.exit(main([
    "clock",
    "--csv", "clock.csv",
    "--report", "clock_report.txt",
]))

"""Run a reduced demand sweep (three demand sizes, all settings, both
objectives) and print the sweep CSV plus the four comparison metrics.

On a 2-core machine the full six-point sweep takes 5.6-6.6 seconds on one
thread, and this reduced one 1.0-1.7 seconds on three.
Run:  python3 demos/sweep_small.py
"""

from vecop import harness
from vecop.scenario import generate_default


def main():
    scenario = generate_default(42)
    table = harness.sweep(scenario, demands=(1000.0, 2000.0, 4000.0), threads=3)
    print(harness.table_to_csv(table))
    print(harness.report_to_text(harness.report(table)))


if __name__ == "__main__":
    main()

"""Set-up target for the benchmark's setup_s: everything a fresh interpreter
does before the first unit of work.

    python3 perfbench/setup_probe.py grid <config>   # import decwt, bundle,
                                                      # initial field, stepper
    python3 perfbench/setup_probe.py light <config>  # import decwt.cli
"""

import math
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(kind: str, config: str) -> int:
    if kind == "light":
        import decwt.cli  # noqa: F401
        return 0
    import decwt
    from decwt.master_eq import MasterEqStepper, init_gaussian_rho

    bundle = decwt.load_scenario(config)
    s = bundle.scenario
    p0 = decwt.GaussianParams(alpha=s.alpha0, beta=0.0, gamma=0.0,
                              delta=0.5 * math.log(2.0 * s.alpha0 / math.pi))
    init_gaussian_rho(p0, bundle.grid)
    MasterEqStepper(s, bundle.grid, bundle.numerics.dt)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main(*sys.argv[1:3]))

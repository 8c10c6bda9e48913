"""Everything a ``cqsim run`` does before its first time step or sample.

    python3 setup_probe.py SCENARIO.yaml ...

In one fresh process: import cqsim, then per scenario parse it, pass it
through the complete-positivity gate (`check_scenario`), build the initial
state and the step-size limit.  The caller times the whole process, so the
interpreter start and the imports count too.
"""

import sys


def main(paths) -> int:
    from cqsim.generator import cfl_limit, measurement_cfl_limit
    from cqsim.runner import check_scenario
    from cqsim.scenario import parse_scenario_file
    from cqsim.state import gaussian_product_state

    for path in paths:
        scenario = parse_scenario_file(path)
        check_scenario(scenario)
        if scenario.run_type == "evolve":
            init = scenario.initial
            gaussian_product_state(
                scenario.grid,
                centers=(init["q0"], init["p0"]),
                sigmas=(init["sigma_q"], init["sigma_p"]),
                rho_q=init["rho_q"],
            )
            cfl_limit(scenario.model, scenario.grid)
        elif scenario.run_type == "unravel":
            measurement_cfl_limit(scenario.model, scenario.grid)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""repro — reproduction of Shun, Dhulipala & Blelloch, SPAA 2014:
"A Simple and Practical Linear-Work Parallel Algorithm for Connectivity".

Public API tour
---------------
Graphs::

    from repro.graphs import random_kregular, rmat_paper, grid3d, line_graph
    g = random_kregular(100_000, k=5, seed=1)

Connectivity (the paper's algorithm and every baseline it compares to)::

    from repro.connectivity import decomp_cc, serial_sf_cc, multistep_cc
    result = decomp_cc(g, beta=0.2, variant="arb-hybrid", seed=1)
    labels = result.labels          # one label per vertex

Simulated-machine timing (the paper's 40-core experiments)::

    from repro.pram import CostTracker, tracking, PAPER_MACHINE
    with tracking() as t:
        decomp_cc(g, beta=0.2, variant="arb", seed=1)
    seconds_40h = PAPER_MACHINE.time_seconds(t)

Experiment harness (regenerates every table and figure)::

    from repro.experiments import run_table2, fig2_thread_sweep
    table = run_table2(scale="tiny", verify=True)  # a wrong cell raises

One profiled run (what the CLI, the fuzz oracle and the bench share)::

    from repro.experiments import build_graph
    from repro.runtime import execute_profiled
    prof = execute_profiled("decomp-arb-CC", build_graph("rMat", "small"),
                            graph_name="rMat", beta=0.2, seed=1)
    labels = prof.result.labels     # verified; VerificationError if wrong
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

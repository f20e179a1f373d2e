"""SeeSAw reproduction: in-situ analytics under power constraints.

A full Python reproduction of *SeeSAw: Optimizing Performance of
In-Situ Analytics Applications under Power Constraints* (Marincic,
Vishwanath, Hoffmann — IPDPS 2020): the SeeSAw controller and its
comparators (:mod:`repro.core`), the machine substrate (power model,
RAPL, interconnect, noise — :mod:`repro.power`, :mod:`repro.cluster`),
simulated MPI on a discrete-event engine (:mod:`repro.mpi`,
:mod:`repro.des`), a real miniature MD engine and the paper's five
analyses (:mod:`repro.md`, :mod:`repro.analysis`), the
Verlet-Splitanalysis coupler and PoLiMER instrumentation layer
(:mod:`repro.insitu`, :mod:`repro.polimer`), calibrated scaled
workloads (:mod:`repro.workloads`) and one experiment harness per
paper table/figure (:mod:`repro.experiments`).

Start with::

    from repro.cluster.node import THETA_NODE
    from repro.core import SeeSAwController
    from repro.workloads import JobConfig, run_job

See README.md for the tour and EXPERIMENTS.md for paper-vs-measured.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

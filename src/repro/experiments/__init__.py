"""Engine task functions, text reporting and ASCII plots for the
paper's figures (Section 7's Experiments 1-3, Section 8.2's
Experiment 4), the Theorem 5.2 verification and the five ablations.

The experiments themselves are the built-in specs of
:mod:`repro.api.builtin`; run one with
``run_spec(builtin_spec("figure1")).to_series()``.
:mod:`repro.experiments.reporting` renders the resulting
:class:`~repro.api.config.ExperimentSeries` as text tables.
"""

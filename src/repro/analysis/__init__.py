"""Trace analysis and reporting.

The paper's Figures 10-13 are execution traces read qualitatively: how
much idle time a variant has at startup, whether communication overlaps
computation, how GET_HASH_BLOCK cost compares to GEMM cost. This
package computes those quantities from :class:`~repro.sim.trace`
recordings and renders ASCII Gantt charts standing in for the figures.
"""

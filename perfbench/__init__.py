"""Benchmark of the siegelsums library: workloads, tracing and checks."""

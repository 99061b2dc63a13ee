"""rmnlab benchmark: workloads, probes and tracing (see README.md)."""

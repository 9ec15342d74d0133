"""End-to-end and per-layer benchmark for gtr; see README.md in this directory."""

"""End-to-end and per-layer benchmark of the volteqa pipeline (see README.md)."""

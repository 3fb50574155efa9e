"""Host-time benchmark of the simulator: see README.md in this directory."""

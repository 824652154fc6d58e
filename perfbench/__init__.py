"""A steady benchmark of the L2Q harvester: see README.md."""

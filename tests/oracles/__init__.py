"""Reference implementations the production kernels are tested against.

Each oracle is the straightforward formulation a vectorized or fused kernel
in ``src/`` replaced.  They live here, not in the package, because only the
equivalence tests call them: production code keeps one path per job.
"""

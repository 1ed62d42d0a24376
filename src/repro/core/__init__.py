"""The paper's contribution: register allocators for scalar replacement."""

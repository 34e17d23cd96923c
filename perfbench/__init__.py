"""Default-configuration benchmark of the SPRING stream monitor (see README.md)."""

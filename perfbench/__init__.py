"""Host wall-clock benchmark of the pSyncPIM pipeline (see README.md)."""

"""The perf ledger: this repository's benchmark (see ``ledger/README.md``)."""

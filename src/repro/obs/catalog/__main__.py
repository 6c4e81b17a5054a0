"""Print the metric catalogue table: ``python -m repro.obs.catalog``."""

from repro.obs.catalog import catalog_table

print(catalog_table())

//! Catalog registry: `catalog.schema.table` resolution (§IV: "Presto
//! connector introduces catalog.schema.table for each table. catalog marks
//! connector name.").

use std::collections::BTreeMap;
use std::sync::Arc;

use presto_common::sync::{Rank, RwLock};
use presto_common::{PrestoError, Result, Schema};

use crate::spi::Connector;

/// Thread-safe registry of catalogs. Cloning shares the registry.
#[derive(Clone)]
pub struct CatalogRegistry {
    catalogs: Arc<RwLock<BTreeMap<String, Arc<dyn Connector>>>>,
}

impl Default for CatalogRegistry {
    fn default() -> CatalogRegistry {
        CatalogRegistry::new()
    }
}

impl CatalogRegistry {
    /// Empty registry.
    pub fn new() -> CatalogRegistry {
        CatalogRegistry { catalogs: Arc::new(RwLock::new(Rank::Catalogs, BTreeMap::new())) }
    }

    /// Register a connector under a catalog name (e.g. `hive`, `mysql`).
    pub fn register(&self, catalog: impl Into<String>, connector: Arc<dyn Connector>) {
        self.catalogs.write().insert(catalog.into(), connector);
    }

    /// Look up a catalog.
    pub fn get(&self, catalog: &str) -> Result<Arc<dyn Connector>> {
        self.catalogs
            .read()
            .get(catalog)
            .cloned()
            .ok_or_else(|| PrestoError::Analysis(format!("unknown catalog '{catalog}'")))
    }

    /// Resolve a qualified table's schema.
    pub fn table_schema(&self, catalog: &str, schema: &str, table: &str) -> Result<Schema> {
        self.get(catalog)?.table_schema(schema, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryConnector;

    #[test]
    fn register_and_resolve() {
        let registry = CatalogRegistry::new();
        assert!(registry.get("memory").is_err());
        registry.register("memory", Arc::new(MemoryConnector::new()));
        assert!(registry.get("memory").is_ok());
        // unknown table errors propagate
        assert!(registry.table_schema("memory", "default", "nope").is_err());
    }
}

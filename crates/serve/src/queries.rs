//! The daemon's query store: named span-relational queries.
//!
//! Queries arrive as JSON ([`QueryDef`] wire format) via
//! `POST /queries/{name}`, persist as `{name}.query` files beside the
//! wrapper artifacts (same atomic-write discipline), and reload on boot.
//! They reference wrappers *by name*, so a query survives wrapper
//! reinstalls and drift repairs untouched — the binding happens at
//! evaluation time against the live registry. Inline expressions are
//! compiled ([`QueryDef::compile`]) at install and at load, so a query
//! whose expression does not parse is refused there and never reaches
//! disk, and evaluation scans with the kept extractors.

use crate::registry::valid_name;
use rextract_extraction::QueryDef;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Why a query install was refused.
#[derive(Debug)]
pub enum QueryInstallError {
    /// Bad name or unparsable/invalid query JSON — the client's fault.
    Invalid(String),
    /// The definition parsed but could not be persisted — the server's.
    Io(String),
}

/// `(loaded names, (name, error) pairs)` from a directory scan.
pub type LoadOutcome = (Vec<String>, Vec<(String, String)>);

/// Shared store of installed queries, keyed by name.
pub struct QueryStore {
    dir: Option<PathBuf>,
    map: RwLock<BTreeMap<String, Arc<QueryDef>>>,
}

impl QueryStore {
    /// A store persisting into `dir` (`None` = in-memory only).
    pub fn new(dir: Option<PathBuf>) -> QueryStore {
        QueryStore {
            dir: dir.clone(),
            map: RwLock::new(BTreeMap::new()),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<QueryDef>>> {
        self.map.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<QueryDef>>> {
        self.map.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Installed query names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// Installed query count.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no queries are installed.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Resolve a query by name.
    pub fn get(&self, name: &str) -> Option<Arc<QueryDef>> {
        self.read().get(name).cloned()
    }

    /// Parse, validate, compile, persist (when a directory is
    /// configured), and install `text` under `name`, replacing any
    /// previous definition.
    pub fn install(&self, name: &str, text: &str) -> Result<Arc<QueryDef>, QueryInstallError> {
        if !valid_name(name) {
            return Err(QueryInstallError::Invalid(format!(
                "invalid query name {name:?} (want [A-Za-z0-9._-]+, no leading dot)"
            )));
        }
        let def = parse_and_compile(text).map_err(QueryInstallError::Invalid)?;
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{name}.query"));
            // Persist the canonical rendering, not the client's bytes:
            // reload then parses exactly what install validated.
            rextract_wrapper::persist::save_artifact(&path, &def.to_json()).map_err(|e| {
                QueryInstallError::Io(format!("persisting {}: {e}", path.display()))
            })?;
        }
        let def = Arc::new(def);
        self.write().insert(name.to_string(), Arc::clone(&def));
        Ok(def)
    }

    /// Scan the directory for `*.query` files and (re)load each one.
    /// Returns `(loaded, errors)`; a file that fails to parse or
    /// compile is reported and skipped, never fatal — mirroring the
    /// wrapper scan.
    pub fn load_dir(&self) -> std::io::Result<LoadOutcome> {
        let Some(dir) = &self.dir else {
            return Ok((Vec::new(), Vec::new()));
        };
        let mut loaded = Vec::new();
        let mut errors = Vec::new();
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "query"))
            .collect();
        entries.sort();
        for path in entries {
            let Some(name) = query_name(&path) else {
                continue;
            };
            match std::fs::read_to_string(&path) {
                Ok(text) => match parse_and_compile(&text) {
                    Ok(def) => {
                        self.write().insert(name.clone(), Arc::new(def));
                        loaded.push(name);
                    }
                    Err(e) => errors.push((name, e)),
                },
                Err(e) => errors.push((name, e.to_string())),
            }
        }
        Ok((loaded, errors))
    }
}

/// Parse `text` and compile its inline expressions.
fn parse_and_compile(text: &str) -> Result<QueryDef, String> {
    let def = QueryDef::parse(text).map_err(|e| e.to_string())?;
    def.compile().map_err(|e| e.to_string())?;
    Ok(def)
}

/// The query name a `*.query` path installs as, if valid.
fn query_name(path: &Path) -> Option<String> {
    let stem = path.file_stem()?.to_str()?;
    valid_name(stem).then(|| stem.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: &str = r#"{"sources":[{"var":"x","wrapper":"w"}],"plan":{"op":"leaf","var":"x"}}"#;

    #[test]
    fn install_get_list_round_trip_in_memory() {
        let store = QueryStore::new(None);
        assert!(store.is_empty());
        store.install("pair", Q).unwrap();
        assert_eq!(store.names(), ["pair".to_string()]);
        assert_eq!(store.get("pair").unwrap().sources.len(), 1);
        assert!(store.get("ghost").is_none());
        assert!(matches!(
            store.install("../evil", Q),
            Err(QueryInstallError::Invalid(_))
        ));
        assert!(matches!(
            store.install("bad", "{"),
            Err(QueryInstallError::Invalid(_))
        ));
    }

    #[test]
    fn persists_and_reloads_from_directory() {
        let dir = std::env::temp_dir().join(format!("rextract-queries-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = QueryStore::new(Some(dir.clone()));
        store.install("pair", Q).unwrap();
        let on_disk = std::fs::read_to_string(dir.join("pair.query")).unwrap();
        assert_eq!(on_disk, store.get("pair").unwrap().to_json());

        // A corrupt file is reported, not fatal; good ones load.
        std::fs::write(dir.join("broken.query"), "nope").unwrap();
        let fresh = QueryStore::new(Some(dir.clone()));
        let (loaded, errors) = fresh.load_dir().unwrap();
        assert_eq!(loaded, ["pair".to_string()]);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, "broken");
        assert!(fresh.get("pair").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Well-formed JSON whose inline expression does not parse.
    const BAD_EXPR: &str = r#"{"sources":[{"var":"f","alphabet":"A","expr":"((( <A> .*"}],"plan":{"op":"leaf","var":"f"}}"#;

    #[test]
    fn bad_inline_expressions_are_refused_at_install_and_at_load() {
        let dir = std::env::temp_dir().join(format!("rextract-badexpr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = QueryStore::new(Some(dir.clone()));
        match store.install("bad", BAD_EXPR) {
            Err(QueryInstallError::Invalid(e)) => {
                assert!(e.starts_with("source \"f\": bad expression: "), "{e}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(store.is_empty());
        assert!(
            !dir.join("bad.query").exists(),
            "a refused query is not persisted"
        );

        // Written by hand beside a good file: reported and skipped at boot.
        std::fs::write(dir.join("bad.query"), BAD_EXPR).unwrap();
        std::fs::write(dir.join("good.query"), Q).unwrap();
        let (loaded, errors) = store.load_dir().unwrap();
        assert_eq!(loaded, ["good".to_string()]);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, "bad");
        assert!(errors[0].1.contains("bad expression"), "{}", errors[0].1);
        assert_eq!(store.names(), ["good".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

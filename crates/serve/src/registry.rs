//! The concurrent wrapper registry.
//!
//! Wrappers are trained offline (`rextract wrapper-train`) and persisted
//! as `wrapper::persist` artifacts; the daemon loads every `*.wrapper`
//! file from its configured directory at boot, and supports two hot paths
//! while serving:
//!
//! * `POST /wrappers/{name}` installs or replaces one wrapper from a
//!   request body (and persists it back to the directory, so a restart
//!   keeps it);
//! * `POST /reload` rescans the directory, picking up artifacts written
//!   by an external trainer.
//!
//! Both paths re-validate artifacts through [`Wrapper::import`], so a
//! format-version mismatch or corrupt file is reported per-artifact
//! instead of misparsing; extraction traffic keeps flowing against the
//! previously installed wrapper throughout.
//!
//! Reads are `RwLock`-shared; lock acquisitions recover from poisoning so
//! a panicking request thread cannot take the registry down with it.
//!
//! Every writer — [`Registry::install`], a repair's
//! [`Registry::install_over`] and [`Registry::load_dir`] — holds one
//! install lock across persisting and swapping in, so memory and disk
//! agree under concurrent installs. A revision is the serving revision + 1
//! (1 for a new name), taken under that lock: revisions never go
//! backwards, and a failed install consumes none.
//!
//! # Incremental reloads
//!
//! A rescan remembers each artifact's `(mtime, len)` signature from the
//! last time it imported cleanly and skips files whose signature is
//! unchanged (`LoadReport::skipped_unchanged`), so `POST /reload` against
//! a directory of N wrappers re-reads and re-validates only what actually
//! changed. The usual mtime caveat applies — a same-length rewrite inside
//! the filesystem's timestamp granularity is invisible — which is
//! acceptable here because artifacts are written atomically (tmp+rename
//! bumps the inode) by every writer this project ships.
//!
//! # Failure handling
//!
//! A directory scan treats every file independently: a torn or bit-rotted
//! artifact (persist v2's checksum trailer catches both) is **quarantined**
//! — renamed to `<file>.corrupt` so the next scan does not trip over it
//! again — while any previously installed version keeps serving. Transient
//! read errors (`Interrupted`/`WouldBlock`/`TimedOut`) are retried with a
//! short backoff before being reported.

use rextract_faults::fail_point;
use rextract_wrapper::persist::PersistError;
use rextract_wrapper::wrapper::Wrapper;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, SystemTime};

/// Outcome of a directory scan.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Names successfully (re)loaded.
    pub loaded: Vec<String>,
    /// `(file name, error)` for artifacts that failed to import.
    pub errors: Vec<(String, String)>,
    /// Files quarantined (renamed to `<file>.corrupt`) because their
    /// content was torn or corrupt.
    pub quarantined: Vec<String>,
    /// Transient read errors that were retried during this scan.
    pub io_retries: u64,
    /// Artifacts skipped because their `(mtime, len)` signature matched
    /// the last clean import.
    pub skipped_unchanged: u64,
}

/// Errors from [`Registry::install`], split by whose fault they are: an
/// [`InstallError::Invalid`] artifact is the client's (HTTP 400), a
/// persistence failure is the server's (HTTP 500) — the wrapper is *not*
/// installed in either case, so memory and disk never disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// Bad name or unimportable artifact.
    Invalid(String),
    /// The artifact imported, but persisting it to the backing directory
    /// failed.
    Io(String),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Invalid(e) | InstallError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// Why an extract request's wrapper selection failed — split so the
/// daemon can page the right party (404 for a bad name, 400 for a
/// missing one in a multi-tenant deployment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The named wrapper is not installed.
    Unknown(String),
    /// No name given and the registry is not single-tenant, so there is
    /// no sole wrapper to default to.
    NoSelection,
}

/// Read attempts per artifact before a transient error becomes permanent.
const READ_ATTEMPTS: u32 = 3;

fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn read_artifact_once(path: &Path) -> io::Result<String> {
    fail_point!("registry.read.transient", |_action| Err(io::Error::new(
        io::ErrorKind::Interrupted,
        "injected transient read error (failpoint registry.read.transient)"
    )));
    std::fs::read_to_string(path)
}

/// Read with bounded retry: transient kinds back off 2ms, 4ms, … and are
/// counted in `retries`; anything else (or exhaustion) is returned.
fn read_artifact(path: &Path, retries: &mut u64) -> io::Result<String> {
    let mut backoff = Duration::from_millis(2);
    for attempt in 1..=READ_ATTEMPTS {
        match read_artifact_once(path) {
            Ok(text) => return Ok(text),
            Err(e) if attempt < READ_ATTEMPTS && is_transient(e.kind()) => {
                *retries += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on the last attempt")
}

/// Rename a torn/corrupt artifact to `<file>.corrupt` so the next scan
/// skips it. Best effort: failure leaves the file to be re-reported.
fn quarantine(path: &Path) -> bool {
    let mut os = path.as_os_str().to_os_string();
    os.push(".corrupt");
    std::fs::rename(path, PathBuf::from(os)).is_ok()
}

/// An artifact's change signature: modification time plus byte length.
/// Matching both means a rescan can skip re-reading the file.
type FileSig = (SystemTime, u64);

/// Concurrent name → wrapper map with optional backing directory.
pub struct Registry {
    wrappers: RwLock<HashMap<String, Arc<Wrapper>>>,
    dir: Option<PathBuf>,
    /// The install lock, guarding path → signature at the last clean
    /// import; consulted by `load_dir` to skip unchanged artifacts.
    /// Entries for vanished files are pruned at the end of each scan.
    seen: Mutex<HashMap<PathBuf, FileSig>>,
}

/// The `(mtime, len)` signature of `path`, if statable.
fn file_sig(path: &Path) -> Option<FileSig> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// Validate `name` and import `artifact` — outside the install lock.
fn import_named(name: &str, artifact: &str) -> Result<Wrapper, InstallError> {
    if !valid_name(name) {
        return Err(InstallError::Invalid(format!(
            "invalid wrapper name {name:?} (want [A-Za-z0-9._-]+, no leading dot)"
        )));
    }
    Wrapper::import(artifact).map_err(|e| InstallError::Invalid(e.to_string()))
}

/// Valid wrapper names: non-empty, `[A-Za-z0-9._-]`, no leading dot — a
/// deliberate whitelist, since names become file names under the
/// registry directory.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

impl Registry {
    pub fn new(dir: Option<PathBuf>) -> Registry {
        Registry {
            wrappers: RwLock::new(HashMap::new()),
            dir,
            seen: Mutex::new(HashMap::new()),
        }
    }

    /// Take the install lock.
    fn installs(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, FileSig>> {
        self.seen.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Wrapper>>> {
        self.wrappers.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<Wrapper>>> {
        self.wrappers.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The backing directory, if configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Serve `wrapper` as `name`'s next revision, stamped into it as
    /// [`Wrapper::revision`] so provenance records can tell tuples from
    /// before and after a hot swap. The caller holds the install lock.
    fn swap_in(&self, name: &str, mut wrapper: Wrapper) -> Arc<Wrapper> {
        let mut map = self.write();
        wrapper.set_revision(map.get(name).map_or(0, |w| w.revision()) + 1);
        let wrapper = Arc::new(wrapper);
        map.insert(name.to_string(), Arc::clone(&wrapper));
        wrapper
    }

    /// Persist `artifact` to the backing directory, if configured, and
    /// record its signature in the held install lock's `seen` so the next
    /// rescan skips it.
    fn persist(
        &self,
        seen: &mut HashMap<PathBuf, FileSig>,
        name: &str,
        artifact: &str,
    ) -> Result<(), InstallError> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let path = dir.join(format!("{name}.wrapper"));
        rextract_wrapper::persist::save_artifact(&path, artifact)
            .map_err(|e| InstallError::Io(format!("persisting {}: {e}", path.display())))?;
        match file_sig(&path) {
            Some(sig) => seen.insert(path, sig),
            None => seen.remove(&path),
        };
        Ok(())
    }

    /// Scan the backing directory for `*.wrapper` artifacts and install
    /// every one that imports cleanly. Artifacts whose `(mtime, len)`
    /// signature matches their last clean import are skipped without a
    /// read (counted in `skipped_unchanged`). Wrappers whose files failed
    /// keep their previously installed version; torn/corrupt files are
    /// quarantined to `<file>.corrupt`. No directory → empty report.
    pub fn load_dir(&self) -> io::Result<LoadReport> {
        let mut report = LoadReport::default();
        let Some(dir) = &self.dir else {
            return Ok(report);
        };
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "wrapper"))
            .collect();
        entries.sort();
        let mut seen = self.installs();
        for path in &entries {
            let file = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let name = path
                .file_stem()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !valid_name(&name) {
                report.errors.push((file, "invalid wrapper name".into()));
                continue;
            }
            // Signature taken BEFORE the read: a write racing the read
            // lands after this stat, so its newer signature forces a
            // re-read on the next scan rather than being masked.
            let sig = file_sig(path);
            if let Some(sig) = sig {
                let unchanged = seen.get(path) == Some(&sig);
                if unchanged && self.read().contains_key(&name) {
                    report.skipped_unchanged += 1;
                    continue;
                }
            }
            let text = match read_artifact(path, &mut report.io_retries) {
                Ok(t) => t,
                Err(e) => {
                    seen.remove(path);
                    report.errors.push((file, e.to_string()));
                    continue;
                }
            };
            match Wrapper::import(&text) {
                Ok(w) => {
                    self.swap_in(&name, w);
                    match sig {
                        Some(sig) => seen.insert(path.clone(), sig),
                        None => seen.remove(path),
                    };
                    report.loaded.push(name);
                }
                Err(e @ (PersistError::Truncated | PersistError::Corrupt { .. })) => {
                    // Torn or bit-rotted on disk: move it out of the scan
                    // path so one bad write cannot fail every reload.
                    seen.remove(path);
                    if quarantine(path) {
                        report.quarantined.push(file.clone());
                    }
                    report.errors.push((file, e.to_string()));
                }
                Err(e) => {
                    seen.remove(path);
                    report.errors.push((file, e.to_string()));
                }
            }
        }
        // Prune signatures for files no longer in the directory, so the
        // map stays bounded by the scanned set.
        seen.retain(|p, _| entries.binary_search(p).is_ok());
        Ok(report)
    }

    /// Validate and install `artifact` under `name`, replacing any
    /// previous version atomically (in-flight extractions finish on the
    /// wrapper they already resolved). Persists to the backing directory
    /// when one is configured — via an atomic tmp+rename write, so a
    /// crash mid-install can never leave a torn artifact at the scanned
    /// path.
    pub fn install(&self, name: &str, artifact: &str) -> Result<Arc<Wrapper>, InstallError> {
        self.install_with(name, artifact, || {})
    }

    /// [`Registry::install`], running `replacing` under the install lock
    /// once the artifact has persisted, just before the new wrapper
    /// becomes visible. The daemon resets the wrapper's lifecycle there,
    /// so no repair can start against the new revision with the replaced
    /// one's drift verdict and evidence.
    pub fn install_with(
        &self,
        name: &str,
        artifact: &str,
        replacing: impl FnOnce(),
    ) -> Result<Arc<Wrapper>, InstallError> {
        let wrapper = import_named(name, artifact)?;
        let mut seen = self.installs();
        self.persist(&mut seen, name, artifact)?;
        replacing();
        Ok(self.swap_in(name, wrapper))
    }

    /// Install a repair's `artifact` as `name`'s next revision, but only
    /// while `revision` still serves. `Ok(None)` wrote nothing: a newer
    /// install replaced the wrapper the repair was trained against.
    pub fn install_over(
        &self,
        name: &str,
        artifact: &str,
        revision: u32,
    ) -> Result<Option<Arc<Wrapper>>, InstallError> {
        let wrapper = import_named(name, artifact)?;
        let mut seen = self.installs();
        if self.get(name).map(|w| w.revision()) != Some(revision) {
            return Ok(None);
        }
        self.persist(&mut seen, name, artifact)?;
        Ok(Some(self.swap_in(name, wrapper)))
    }

    /// Resolve a wrapper by name.
    pub fn get(&self, name: &str) -> Option<Arc<Wrapper>> {
        self.read().get(name).cloned()
    }

    /// Resolve an extract request's wrapper selection: an explicit name
    /// must exist; omitting the name is allowed only when exactly one
    /// wrapper is installed ([`Registry::sole`]).
    pub fn resolve(&self, name: Option<&str>) -> Result<(String, Arc<Wrapper>), ResolveError> {
        match name {
            Some(n) => self
                .get(n)
                .map(|w| (n.to_string(), w))
                .ok_or_else(|| ResolveError::Unknown(n.to_string())),
            None => self.sole().ok_or(ResolveError::NoSelection),
        }
    }

    /// When exactly one wrapper is installed, return it (lets `/extract`
    /// omit the `wrapper` parameter in single-tenant deployments).
    pub fn sole(&self) -> Option<(String, Arc<Wrapper>)> {
        let guard = self.read();
        if guard.len() == 1 {
            guard.iter().next().map(|(n, w)| (n.clone(), Arc::clone(w)))
        } else {
            None
        }
    }

    /// Installed wrapper names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Every installed wrapper as `(name, wrapper)` pairs, sorted by
    /// name — the corpus pipeline's routing set, which stamps the build's
    /// persist format version into every emitted tuple's provenance.
    pub fn entries(&self) -> Vec<(String, Arc<Wrapper>)> {
        let mut entries: Vec<(String, Arc<Wrapper>)> = self
            .read()
            .iter()
            .map(|(n, w)| (n.clone(), Arc::clone(w)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    pub fn len(&self) -> usize {
        self.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
    use rextract_wrapper::wrapper::{TrainPage, WrapperConfig};

    fn artifact(seed: u64) -> String {
        let mut g = SiteGenerator::new(SiteConfig {
            seed,
            ..SiteConfig::default()
        });
        let pages = vec![
            TrainPage::from(&g.page_with_style(PageStyle::Plain)),
            TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        Wrapper::train(&pages, WrapperConfig::default())
            .unwrap()
            .export()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rextract-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("demo"));
        assert!(valid_name("site-1.v2_final"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(200)));
    }

    #[test]
    fn install_get_replace() {
        let r = Registry::new(None);
        assert!(r.is_empty());
        r.install("demo", &artifact(3)).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.get("demo").is_some());
        assert!(r.get("nope").is_none());
        assert_eq!(r.sole().map(|(n, _)| n), Some("demo".into()));
        r.install("demo", &artifact(4)).unwrap();
        assert_eq!(r.len(), 1, "replace, not accumulate");
        r.install("two", &artifact(5)).unwrap();
        assert!(r.sole().is_none(), "sole() only for single-tenant");
        assert_eq!(r.names(), vec!["demo".to_string(), "two".to_string()]);
        assert!(r.install("bad name", &artifact(5)).is_err());
        assert!(r.install("x", "garbage").is_err());
    }

    #[test]
    fn install_bumps_revision_per_name() {
        let r = Registry::new(None);
        assert_eq!(r.install("demo", &artifact(3)).unwrap().revision(), 1);
        assert_eq!(r.install("demo", &artifact(4)).unwrap().revision(), 2);
        assert_eq!(
            r.install("other", &artifact(5)).unwrap().revision(),
            1,
            "revisions are per name"
        );
        assert_eq!(r.get("demo").unwrap().revision(), 2);
    }

    #[test]
    fn concurrent_installs_serve_the_last_revision() {
        let artifacts: Vec<String> = (0..8).map(|t| artifact(20 + t)).collect();
        for round in 0..20 {
            let dir = temp_dir(&format!("concurrent-{round}"));
            let r = Registry::new(Some(dir.clone()));
            let start = std::sync::Barrier::new(artifacts.len());
            std::thread::scope(|s| {
                for artifact in &artifacts {
                    let (r, start) = (&r, &start);
                    s.spawn(move || {
                        start.wait();
                        for _ in 0..5 {
                            r.install("demo", artifact).unwrap();
                        }
                    });
                }
            });
            let served = r.get("demo").unwrap();
            assert_eq!(served.revision(), 40, "round {round}");
            assert_eq!(
                std::fs::read_to_string(dir.join("demo.wrapper")).unwrap(),
                served.export(),
                "round {round}: memory and disk disagree"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn load_dir_assigns_and_bumps_revisions() {
        let dir = temp_dir("revisions");
        std::fs::write(dir.join("site.wrapper"), artifact(8)).unwrap();
        let r = Registry::new(Some(dir.clone()));
        r.load_dir().unwrap();
        assert_eq!(r.get("site").unwrap().revision(), 1);
        // A rewrite re-imports and bumps; an unchanged rescan does not.
        std::fs::write(dir.join("site.wrapper"), artifact(9)).unwrap();
        r.load_dir().unwrap();
        assert_eq!(r.get("site").unwrap().revision(), 2);
        r.load_dir().unwrap();
        assert_eq!(r.get("site").unwrap().revision(), 2, "skip keeps revision");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_explicit_sole_and_failures() {
        let r = Registry::new(None);
        assert_eq!(r.resolve(None).err(), Some(ResolveError::NoSelection));
        r.install("demo", &artifact(3)).unwrap();
        assert_eq!(r.resolve(Some("demo")).unwrap().0, "demo");
        assert_eq!(r.resolve(None).unwrap().0, "demo", "single-tenant default");
        assert_eq!(
            r.resolve(Some("nope")).err(),
            Some(ResolveError::Unknown("nope".into()))
        );
        r.install("two", &artifact(4)).unwrap();
        assert_eq!(
            r.resolve(None).err(),
            Some(ResolveError::NoSelection),
            "two tenants, no default"
        );
    }

    #[test]
    fn load_dir_reports_good_and_bad() {
        let dir = temp_dir("load");
        std::fs::write(dir.join("good.wrapper"), artifact(8)).unwrap();
        std::fs::write(dir.join("stale.wrapper"), "rextract-wrapper v99\n").unwrap();
        std::fs::write(dir.join("junk.wrapper"), "not an artifact").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not scanned").unwrap();
        let r = Registry::new(Some(dir.clone()));
        let report = r.load_dir().unwrap();
        assert_eq!(report.loaded, vec!["good".to_string()]);
        assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
        let stale = report
            .errors
            .iter()
            .find(|(f, _)| f == "stale.wrapper")
            .unwrap();
        assert!(
            stale.1.contains("v99") && stale.1.contains("v2"),
            "version mismatch must be loud: {}",
            stale.1
        );
        // Neither a stale version nor a bad header is quarantined: those
        // files are intact, just not loadable by this build.
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert_eq!(r.names(), vec!["good".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_artifact_is_quarantined_and_old_version_keeps_serving() {
        let dir = temp_dir("quarantine");
        let good = artifact(8);
        std::fs::write(dir.join("site.wrapper"), &good).unwrap();
        let r = Registry::new(Some(dir.clone()));
        r.load_dir().unwrap();
        let served = r.get("site").unwrap();

        // A torn rewrite lands on disk (simulating a crash in a non-atomic
        // external writer); the rescan must quarantine it and keep the
        // in-memory wrapper.
        std::fs::write(dir.join("site.wrapper"), &good[..good.len() / 2]).unwrap();
        let report = r.load_dir().unwrap();
        assert_eq!(report.quarantined, vec!["site.wrapper".to_string()]);
        assert!(
            report
                .errors
                .iter()
                .any(|(f, e)| f == "site.wrapper" && e.contains("truncated")),
            "{:?}",
            report.errors
        );
        assert!(
            Arc::ptr_eq(&r.get("site").unwrap(), &served),
            "previously served wrapper must survive"
        );
        assert!(!dir.join("site.wrapper").exists());
        assert!(dir.join("site.wrapper.corrupt").exists());

        // The quarantined file is out of the scan path: a second reload is
        // clean (and reports the wrapper as unloaded-from-disk, which is
        // fine — it stays installed in memory).
        let report2 = r.load_dir().unwrap();
        assert!(report2.quarantined.is_empty());
        assert!(report2.errors.is_empty(), "{:?}", report2.errors);
        assert!(r.get("site").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_skips_unchanged_artifacts() {
        let dir = temp_dir("mtime-skip");
        std::fs::write(dir.join("a.wrapper"), artifact(8)).unwrap();
        std::fs::write(dir.join("b.wrapper"), artifact(9)).unwrap();
        let r = Registry::new(Some(dir.clone()));
        let first = r.load_dir().unwrap();
        assert_eq!(first.loaded.len(), 2, "{:?}", first.loaded);
        assert_eq!(first.skipped_unchanged, 0);

        // Nothing changed on disk: the rescan reads no artifact.
        let second = r.load_dir().unwrap();
        assert!(second.loaded.is_empty(), "{:?}", second.loaded);
        assert_eq!(second.skipped_unchanged, 2);

        // Rewrite one: only that one is re-imported.
        std::fs::write(dir.join("a.wrapper"), artifact(10)).unwrap();
        let third = r.load_dir().unwrap();
        assert_eq!(third.loaded, vec!["a".to_string()]);
        assert_eq!(third.skipped_unchanged, 1);

        // Deleting a file prunes its signature but never uninstalls: the
        // in-memory wrapper keeps serving.
        std::fs::remove_file(dir.join("b.wrapper")).unwrap();
        let fourth = r.load_dir().unwrap();
        assert_eq!(fourth.skipped_unchanged, 1);
        assert!(r.get("b").is_some(), "uninstall is not load_dir's job");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_signature_lets_reload_skip_the_persisted_artifact() {
        let dir = temp_dir("install-sig");
        let r = Registry::new(Some(dir.clone()));
        r.install("hot", &artifact(9)).unwrap();
        let report = r.load_dir().unwrap();
        assert!(report.loaded.is_empty(), "{:?}", report.loaded);
        assert_eq!(report.skipped_unchanged, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_uses_atomic_write() {
        let dir = temp_dir("atomic-install");
        let r = Registry::new(Some(dir.clone()));
        r.install("hot", &artifact(9)).unwrap();
        // No temp droppings; the installed file round-trips.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        assert!(matches!(
            r.install("bad name", &artifact(9)),
            Err(InstallError::Invalid(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_persists_to_dir_for_restart() {
        let dir = temp_dir("persist");
        let r = Registry::new(Some(dir.clone()));
        r.install("hot", &artifact(9)).unwrap();
        // A fresh registry (daemon restart) sees the hot-installed wrapper.
        let r2 = Registry::new(Some(dir.clone()));
        let report = r2.load_dir().unwrap();
        assert_eq!(report.loaded, vec!["hot".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

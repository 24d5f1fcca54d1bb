//! Wrapper persistence: export a trained wrapper as a small text artifact
//! and re-import it later.
//!
//! Training is the expensive step (merging + maximization); a production
//! shopbot trains once per site and ships the wrapper. The format is
//! line-oriented and human-auditable — the expression is stored in the
//! same `E1 <p> E2` syntax the rest of the toolkit reads, so an exported
//! wrapper can be inspected with `rextract analyze`:
//!
//! ```text
//! rextract-wrapper v2
//! seq include_text=false include_end_tags=true
//! alphabet #other /FORM /H1 FORM H1 INPUT P
//! maximized true
//! expr [^FORM]* FORM [^INPUT]* INPUT [^INPUT]* <INPUT> .*
//! checksum fnv1a 9c2f31a07b6d5e48
//! ```
//!
//! # Crash safety
//!
//! The artifact ends in a fixed-width FNV-1a checksum trailer covering
//! every byte before it. [`Wrapper::import`] verifies the trailer before
//! parsing any section, so a torn write (power loss mid-`write`) is
//! diagnosed as [`PersistError::Truncated`] and a bit-flip as
//! [`PersistError::Corrupt`] — never misparsed into a silently-wrong
//! wrapper. The writing side, [`save_artifact`], never exposes a partial
//! file at the destination path: it writes a hidden temp file in the same
//! directory, fsyncs it, and atomically renames it into place.

use crate::tuple::TupleWrapper;
use crate::wrapper::{Wrapper, WrapperError};
use rextract_automata::Alphabet;
use rextract_extraction::extract::Extractor;
use rextract_extraction::{ExtractionExpr, MultiExtractionExpr};
use rextract_faults::fail_point;
use rextract_html::seq::SeqConfig;
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The artifact format version this build reads and writes. Bumped on any
/// incompatible change to the serialization; [`Wrapper::import`] rejects
/// other versions loudly (see [`PersistError::VersionMismatch`]) so a
/// registry hot-reload over a directory of stale artifacts fails with a
/// clear diagnosis instead of misparsing. v2 added the checksum trailer.
pub const FORMAT_VERSION: u32 = 2;

/// Errors from [`Wrapper::import`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Missing or wrong header line (not a rextract-wrapper artifact at all).
    BadHeader,
    /// A rextract-wrapper artifact, but in a format version this build
    /// does not read.
    VersionMismatch {
        /// The version the artifact declares.
        found: u32,
    },
    /// The checksum trailer is missing or incomplete: the artifact was
    /// cut short, classically by a torn (non-atomic) write.
    Truncated,
    /// The checksum trailer is present but does not match the content:
    /// the artifact was altered after export.
    Corrupt {
        /// The checksum the trailer declares.
        expected: u64,
        /// The checksum computed over the artifact body.
        found: u64,
    },
    /// A required section is missing or malformed; carries the line tag.
    BadSection(&'static str),
    /// The stored expression failed to parse.
    Expr(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "not a rextract-wrapper artifact"),
            PersistError::VersionMismatch { found } => write!(
                f,
                "artifact is format v{found}, but this build reads v{FORMAT_VERSION}; \
                 re-export the wrapper with a matching release"
            ),
            PersistError::Truncated => write!(
                f,
                "artifact truncated: checksum trailer missing or incomplete (torn write?)"
            ),
            PersistError::Corrupt { expected, found } => write!(
                f,
                "artifact corrupt: checksum mismatch (trailer {expected:016x}, content {found:016x})"
            ),
            PersistError::BadSection(s) => write!(f, "missing or malformed section {s:?}"),
            PersistError::Expr(e) => write!(f, "stored expression invalid: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Errors from [`Wrapper::load`]: either the file could not be read or
/// its contents failed to import.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the file failed.
    Io(io::Error),
    /// The file was read but is not a valid artifact.
    Persist(PersistError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "reading artifact: {e}"),
            LoadError::Persist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// FNV-1a 64-bit hash — the artifact trailer's checksum function. Public
/// so tests and tooling can craft or verify trailers by hand.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Split an artifact into (checksummed region, stored checksum).
///
/// The trailer is the first line whose tag is `checksum`; it must read
/// `checksum fnv1a <16 hex digits>` and nothing but whitespace may follow
/// it. A missing or half-written trailer is [`PersistError::Truncated`];
/// content after the trailer (including a `checksum` tag inside the body)
/// is `BadSection("checksum")`.
fn split_checksum(text: &str) -> Result<(&str, u64), PersistError> {
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        let start = offset;
        offset += line.len();
        let trimmed = line.trim();
        let (tag, rest) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
        if tag != "checksum" {
            continue;
        }
        let mut it = rest.split_whitespace();
        let (algo, hex, extra) = (it.next(), it.next(), it.next());
        let well_formed = algo == Some("fnv1a")
            && extra.is_none()
            && hex.is_some_and(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(hex) = hex.filter(|_| well_formed) else {
            return Err(PersistError::Truncated);
        };
        if !text[offset..].trim().is_empty() {
            return Err(PersistError::BadSection("checksum"));
        }
        let stored = u64::from_str_radix(hex, 16).expect("validated hex");
        return Ok((&text[..start], stored));
    }
    Err(PersistError::Truncated)
}

/// Artifact kind tags — the word after `rextract-` in the header line.
/// Single-target and tuple wrappers share the body format; the header
/// keeps a registry scan from compiling a tuple expression as a
/// single-marker one (or vice versa).
const KIND_SINGLE: &str = "wrapper";
const KIND_TUPLE: &str = "tuple-wrapper";

/// The shared body sections of both artifact kinds, parsed but not yet
/// compiled (the expression text is interpreted per kind).
struct ArtifactBody {
    seq: SeqConfig,
    alphabet: Alphabet,
    maximized: bool,
    expr_text: String,
}

/// Render the shared artifact layout: header, sections, checksum trailer.
fn render_artifact(
    kind: &str,
    cfg: &SeqConfig,
    alphabet: &Alphabet,
    maximized: bool,
    expr_text: &str,
) -> String {
    let mut out = format!("rextract-{kind} v{FORMAT_VERSION}\n");
    out.push_str(&format!(
        "seq include_text={} include_end_tags={}\n",
        cfg.include_text, cfg.include_end_tags
    ));
    for (tag, attr) in &cfg.refine_attrs {
        out.push_str(&format!("refine {tag} {attr}\n"));
    }
    let names: Vec<&str> = alphabet.symbols().map(|s| alphabet.name(s)).collect();
    out.push_str("alphabet ");
    out.push_str(&names.join(" "));
    out.push('\n');
    out.push_str(&format!("maximized {maximized}\n"));
    out.push_str("expr ");
    out.push_str(expr_text);
    out.push('\n');
    let sum = fnv1a_64(out.as_bytes());
    out.push_str(&format!("checksum fnv1a {sum:016x}\n"));
    out
}

/// Validate header + checksum and parse the shared sections.
///
/// The checksum trailer is verified before any section is parsed, so an
/// artifact cut short at *any* byte offset reports
/// [`PersistError::Truncated`] (or `BadHeader` if the cut falls inside the
/// first line) rather than importing a silently different wrapper.
fn parse_artifact(text: &str, kind: &str) -> Result<ArtifactBody, PersistError> {
    // Header first: version diagnosis beats checksum diagnosis, so a
    // stale v1 artifact reports VersionMismatch, not Truncated.
    let header_end = text.find('\n').unwrap_or(text.len());
    let header = text[..header_end].trim();
    let prefix = format!("rextract-{kind} v");
    match header.strip_prefix(&prefix) {
        Some(v) => {
            let found: u32 = v.trim().parse().map_err(|_| PersistError::BadHeader)?;
            if found != FORMAT_VERSION {
                return Err(PersistError::VersionMismatch { found });
            }
        }
        None => return Err(PersistError::BadHeader),
    }
    let (covered, stored) = split_checksum(text)?;
    let found = fnv1a_64(covered.as_bytes());
    if found != stored {
        return Err(PersistError::Corrupt {
            expected: stored,
            found,
        });
    }
    let mut lines = covered.lines();
    lines.next(); // header, validated above
    let mut seq: Option<SeqConfig> = None;
    let mut refines: Vec<(String, String)> = Vec::new();
    let mut alphabet: Option<Alphabet> = None;
    let mut expr_text: Option<String> = None;
    let mut maximized = false;
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "seq" => {
                let mut include_text = None;
                let mut include_end_tags = None;
                for kv in rest.split_whitespace() {
                    match kv.split_once('=') {
                        Some(("include_text", v)) => include_text = v.parse().ok(),
                        Some(("include_end_tags", v)) => include_end_tags = v.parse().ok(),
                        _ => return Err(PersistError::BadSection("seq")),
                    }
                }
                seq = Some(SeqConfig {
                    include_text: include_text.ok_or(PersistError::BadSection("seq"))?,
                    include_end_tags: include_end_tags.ok_or(PersistError::BadSection("seq"))?,
                    refine_attrs: Vec::new(),
                });
            }
            "refine" => {
                let mut it = rest.split_whitespace();
                match (it.next(), it.next()) {
                    (Some(t), Some(a)) => refines.push((t.to_string(), a.to_string())),
                    _ => return Err(PersistError::BadSection("refine")),
                }
            }
            "alphabet" => {
                alphabet = Some(Alphabet::new(rest.split_whitespace().map(String::from)));
            }
            "maximized" => {
                maximized = rest
                    .trim()
                    .parse()
                    .map_err(|_| PersistError::BadSection("maximized"))?;
            }
            "expr" => expr_text = Some(rest.to_string()),
            _ => return Err(PersistError::BadSection("unknown")),
        }
    }
    let mut seq = seq.ok_or(PersistError::BadSection("seq"))?;
    seq.refine_attrs = refines;
    Ok(ArtifactBody {
        seq,
        alphabet: alphabet.ok_or(PersistError::BadSection("alphabet"))?,
        maximized,
        expr_text: expr_text.ok_or(PersistError::BadSection("expr"))?,
    })
}

impl Wrapper {
    /// Serialize to the current text format (see [`FORMAT_VERSION`]).
    pub fn export(&self) -> String {
        render_artifact(
            KIND_SINGLE,
            self.seq_config(),
            self.alphabet(),
            self.is_maximized(),
            &self.expr().to_text(),
        )
    }

    /// Deserialize from the v2 text format. The resulting wrapper skips
    /// retraining entirely (the stored expression is recompiled). See the
    /// [module docs](crate::persist#crash-safety) for the torn-write guarantees.
    pub fn import(text: &str) -> Result<Wrapper, PersistError> {
        let body = parse_artifact(text, KIND_SINGLE)?;
        let expr = ExtractionExpr::parse(&body.alphabet, &body.expr_text)
            .map_err(|e| PersistError::Expr(e.to_string()))?;
        let extractor = Extractor::compile(&expr);
        Ok(Wrapper::from_parts(
            body.alphabet,
            expr,
            extractor,
            body.seq,
            body.maximized,
        ))
    }

    /// Atomically persist the exported artifact at `path` via
    /// [`save_artifact`].
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_artifact(path, &self.export())
    }

    /// Read and import an artifact from `path`.
    pub fn load(path: &Path) -> Result<Wrapper, LoadError> {
        let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
        Wrapper::import(&text).map_err(LoadError::Persist)
    }
}

impl TupleWrapper {
    /// Serialize to the tuple-wrapper text format: the same v2 layout as
    /// [`Wrapper::export`] with an `rextract-tuple-wrapper` header and a
    /// multi-marker `expr` line, so the two kinds can never be confused
    /// by a directory scan.
    pub fn export(&self) -> String {
        render_artifact(
            KIND_TUPLE,
            self.seq_config(),
            self.alphabet(),
            self.is_maximized(),
            &self.expr().to_text(),
        )
    }

    /// Deserialize a tuple-wrapper artifact (the stored multi-marker
    /// expression is recompiled; training is bypassed). Same torn-write
    /// guarantees as [`Wrapper::import`].
    pub fn import(text: &str) -> Result<TupleWrapper, PersistError> {
        let body = parse_artifact(text, KIND_TUPLE)?;
        let expr = MultiExtractionExpr::parse(&body.alphabet, &body.expr_text)
            .map_err(|e| PersistError::Expr(e.to_string()))?;
        let extractor = expr.compile();
        Ok(TupleWrapper::from_parts(
            body.alphabet,
            expr,
            extractor,
            body.seq,
            body.maximized,
        ))
    }

    /// Atomically persist the exported artifact at `path` via
    /// [`save_artifact`].
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_artifact(path, &self.export())
    }

    /// Read and import a tuple-wrapper artifact from `path`.
    pub fn load(path: &Path) -> Result<TupleWrapper, LoadError> {
        let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
        TupleWrapper::import(&text).map_err(LoadError::Persist)
    }
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `contents` to `path` so that `path` only ever holds either its
/// previous content or the complete new content — never a torn prefix.
///
/// The sequence is: write a hidden `.{name}.{pid}.{seq}.tmp` file in the
/// same directory, `sync_all` it, rename it over `path`, then (on unix)
/// fsync the directory so the rename itself is durable. A crash at any
/// point leaves at worst a stray temp file, which directory scans ignore.
///
/// Failpoints (live only with the `failpoints` feature):
/// `persist.write.error`, `persist.write.partial` (leaves the torn temp
/// file behind, simulating a crash mid-write), `persist.rename.error`.
pub fn save_artifact(path: &Path, contents: &str) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "save_artifact: path has no file name",
        )
    })?;
    let dir: PathBuf = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id(),
        seq
    ));
    if let Err((e, keep_tmp)) = write_tmp(&tmp, contents.as_bytes()) {
        if !keep_tmp {
            let _ = std::fs::remove_file(&tmp);
        }
        return Err(e);
    }
    if let Err(e) = rename_into_place(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_dir(&dir);
    Ok(())
}

/// Create the temp file, write everything, and fsync. The error side
/// carries `keep_tmp`: the torn-write failpoint leaves its partial temp
/// file on disk (that is the crash it simulates), real errors clean up.
fn write_tmp(tmp: &Path, bytes: &[u8]) -> Result<(), (io::Error, bool)> {
    let mut f = std::fs::File::create(tmp).map_err(|e| (e, false))?;
    fail_point!("persist.write.error", |_action| Err((
        io::Error::other("injected write error (failpoint persist.write.error)"),
        false,
    )));
    fail_point!("persist.write.partial", |action| {
        let n = match action {
            rextract_faults::Action::PartialIo(n) => n,
            _ => 0,
        };
        let cut = n.min(bytes.len());
        let res = f.write_all(&bytes[..cut]).and_then(|()| f.sync_all());
        Err((
            res.err().unwrap_or_else(|| {
                io::Error::other("injected torn write (failpoint persist.write.partial)")
            }),
            true,
        ))
    });
    f.write_all(bytes).map_err(|e| (e, false))?;
    f.sync_all().map_err(|e| (e, false))?;
    Ok(())
}

fn rename_into_place(tmp: &Path, path: &Path) -> io::Result<()> {
    fail_point!("persist.rename.error", |_action| Err(io::Error::other(
        "injected rename error (failpoint persist.rename.error)"
    )));
    std::fs::rename(tmp, path)
}

/// Best effort: a failure here cannot corrupt the artifact, only delay
/// the rename's durability, so it is not propagated.
#[cfg(unix)]
fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) {}

/// Re-exported for error matching convenience.
impl From<PersistError> for WrapperError {
    fn from(e: PersistError) -> WrapperError {
        WrapperError::Learn(rextract_learn::LearnError::UnknownSymbol(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{PageStyle, SiteConfig, SiteGenerator};
    use crate::wrapper::{TrainPage, WrapperConfig};

    fn trained() -> (Wrapper, SiteGenerator) {
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 12,
            ..SiteConfig::default()
        });
        let pages = vec![
            TrainPage::from(&g.page_with_style(PageStyle::Plain)),
            TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        (Wrapper::train(&pages, WrapperConfig::default()).unwrap(), g)
    }

    /// Append a valid trailer to a hand-written body.
    fn with_checksum(body: &str) -> String {
        let mut s = body.to_string();
        if !s.ends_with('\n') {
            s.push('\n');
        }
        let sum = fnv1a_64(s.as_bytes());
        s.push_str(&format!("checksum fnv1a {sum:016x}\n"));
        s
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rextract-persist-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn export_import_round_trip_preserves_behaviour() {
        let (w, mut g) = trained();
        let artifact = w.export();
        let w2 = Wrapper::import(&artifact).expect("import succeeds");
        // Same expression, same extractions on fresh pages.
        assert!(w.expr().same_extraction(w2.expr()));
        for _ in 0..10 {
            let p = g.page();
            assert_eq!(
                w.extract_target(&p.tokens).ok(),
                w2.extract_target(&p.tokens).ok()
            );
        }
    }

    #[test]
    fn artifact_is_human_readable() {
        let (w, _) = trained();
        let artifact = w.export();
        assert!(artifact.starts_with("rextract-wrapper v2\n"));
        assert!(artifact.contains("alphabet "));
        assert!(artifact.contains("expr "));
        assert!(artifact.contains("<INPUT>"), "{artifact}");
        // Trailer is the last line, fixed width.
        let last = artifact.lines().last().unwrap();
        assert!(last.starts_with("checksum fnv1a "), "{last}");
        assert_eq!(last.len(), "checksum fnv1a ".len() + 16, "{last}");
    }

    #[test]
    fn maximized_flag_round_trips() {
        let (w, _) = trained();
        assert!(w.is_maximized());
        let w2 = Wrapper::import(&w.export()).unwrap();
        assert!(w2.is_maximized());
    }

    #[test]
    fn version_mismatch_fails_loudly() {
        let (w, _) = trained();
        // Rewrite the header to a future version: same payload, wrong v.
        // The version diagnosis must win over the (now stale) checksum.
        let artifact = w.export().replacen("v2", "v3", 1);
        let err = Wrapper::import(&artifact).unwrap_err();
        assert_eq!(err, PersistError::VersionMismatch { found: 3 });
        let msg = err.to_string();
        assert!(msg.contains("v3") && msg.contains("v2"), "{msg}");
        // A garbled version number is a bad header, not a panic.
        assert!(matches!(
            Wrapper::import("rextract-wrapper vX\n"),
            Err(PersistError::BadHeader)
        ));
    }

    #[test]
    fn truncation_and_corruption_are_diagnosed() {
        let (w, _) = trained();
        let artifact = w.export();

        // Checksum trailer missing entirely.
        let body_only = artifact
            .lines()
            .filter(|l| !l.starts_with("checksum"))
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        assert_eq!(
            Wrapper::import(&body_only).unwrap_err(),
            PersistError::Truncated
        );

        // Trailer chopped mid-hex.
        let chopped = &artifact[..artifact.len() - 5];
        assert_eq!(
            Wrapper::import(chopped).unwrap_err(),
            PersistError::Truncated
        );

        // A flipped bit in the body is caught by the trailer.
        let tampered = artifact.replacen("maximized true", "maximized talse", 1);
        assert_ne!(tampered, artifact, "tamper target must exist");
        assert!(matches!(
            Wrapper::import(&tampered).unwrap_err(),
            PersistError::Corrupt { .. }
        ));

        // A tampered trailer is equally corrupt.
        let sum_start = artifact.rfind(' ').unwrap() + 1;
        let mut bad_sum = artifact.clone();
        let digit = if &artifact[sum_start..sum_start + 1] == "0" {
            "1"
        } else {
            "0"
        };
        bad_sum.replace_range(sum_start..sum_start + 1, digit);
        assert!(matches!(
            Wrapper::import(&bad_sum).unwrap_err(),
            PersistError::Corrupt { .. }
        ));

        // Content after the trailer is rejected, not silently ignored.
        let appended = format!("{artifact}alphabet p q\n");
        assert_eq!(
            Wrapper::import(&appended).unwrap_err(),
            PersistError::BadSection("checksum")
        );

        // Losing only the final newline changes nothing the trailer covers.
        let no_newline = artifact.trim_end();
        assert!(Wrapper::import(no_newline).is_ok());
    }

    #[test]
    fn import_error_cases() {
        assert!(matches!(
            Wrapper::import("nope"),
            Err(PersistError::BadHeader)
        ));
        assert!(matches!(Wrapper::import(""), Err(PersistError::BadHeader)));
        assert!(matches!(
            Wrapper::import(&with_checksum("rextract-wrapper v2\nexpr <p>")),
            Err(PersistError::BadSection(_))
        ));
        assert!(matches!(
            Wrapper::import(&with_checksum(
                "rextract-wrapper v2\nseq include_text=false include_end_tags=true\nalphabet p q\nexpr <zz>"
            )),
            Err(PersistError::Expr(_))
        ));
        assert!(matches!(
            Wrapper::import(&with_checksum(
                "rextract-wrapper v2\nseq include_text=false include_end_tags=true\nalphabet p q\nbogus x"
            )),
            Err(PersistError::BadSection("unknown"))
        ));
    }

    #[test]
    fn refine_attrs_round_trip() {
        // Build a wrapper with attribute refinement and check the config
        // survives.
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 31,
            ..SiteConfig::default()
        });
        let pages = vec![
            TrainPage::from(&g.page_with_style(PageStyle::Plain)),
            TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        let cfg = WrapperConfig {
            seq: SeqConfig::tags_only().refine("input", "type"),
            maximize: true,
        };
        let w = Wrapper::train(&pages, cfg).unwrap();
        let w2 = Wrapper::import(&w.export()).unwrap();
        assert_eq!(w.seq_config(), w2.seq_config());
        let p = g.page();
        assert_eq!(
            w.extract_target(&p.tokens).ok(),
            w2.extract_target(&p.tokens).ok()
        );
    }

    #[test]
    fn tuple_wrapper_round_trips_and_kinds_do_not_cross() {
        use crate::tuple::{MultiTrainPage, TupleWrapper};
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 23,
            ..SiteConfig::default()
        });
        let multi = |p: &crate::site::Page| {
            let form = p
                .tokens
                .iter()
                .position(|t| t.tag_name() == Some("FORM"))
                .unwrap();
            MultiTrainPage {
                tokens: p.tokens.clone(),
                targets: vec![form, p.target],
            }
        };
        let pages = vec![
            multi(&g.page_with_style(PageStyle::Plain)),
            multi(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        let tw = TupleWrapper::train(&pages, WrapperConfig::default()).unwrap();
        let artifact = tw.export();
        assert!(artifact.starts_with("rextract-tuple-wrapper v2\n"));
        let tw2 = TupleWrapper::import(&artifact).expect("import succeeds");
        assert_eq!(tw2.arity(), 2);
        assert_eq!(tw2.is_maximized(), tw.is_maximized());
        for p in &pages {
            assert_eq!(
                tw.extract_targets(&p.tokens).ok(),
                tw2.extract_targets(&p.tokens).ok()
            );
        }
        // A tuple artifact is not a single-target artifact and vice versa.
        assert_eq!(
            Wrapper::import(&artifact).unwrap_err(),
            PersistError::BadHeader
        );
        let (single, _) = trained();
        assert_eq!(
            TupleWrapper::import(&single.export()).unwrap_err(),
            PersistError::BadHeader
        );
        // Save/load through the atomic writer.
        let dir = scratch_dir("tuple");
        let path = dir.join("record.tuple-wrapper");
        tw.save(&path).unwrap();
        let tw3 = TupleWrapper::load(&path).unwrap();
        assert_eq!(
            tw.extract_targets(&pages[0].tokens).ok(),
            tw3.extract_targets(&pages[0].tokens).ok()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_droppings() {
        let dir = scratch_dir("atomic");
        let (w, _) = trained();
        let path = dir.join("site.wrapper");
        w.save(&path).unwrap();
        let w2 = Wrapper::load(&path).unwrap();
        assert!(w.expr().same_extraction(w2.expr()));
        // Overwrite in place works and no temp files remain.
        w.save(&path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_distinguishes_io_from_format_errors() {
        let dir = scratch_dir("load");
        match Wrapper::load(&dir.join("absent.wrapper")) {
            Err(LoadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::write(dir.join("junk.wrapper"), "not an artifact").unwrap();
        assert!(matches!(
            Wrapper::load(&dir.join("junk.wrapper")),
            Err(LoadError::Persist(PersistError::BadHeader))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Failpoint-driven crash simulations. These share the process-global
    /// failpoint registry, so they serialize on one mutex.
    #[cfg(feature = "failpoints")]
    mod crash {
        use super::*;
        use rextract_faults as faults;
        use std::sync::{Mutex, MutexGuard, OnceLock};

        fn serial() -> MutexGuard<'static, ()> {
            static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
            match LOCK.get_or_init(|| Mutex::new(())).lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
        }

        #[test]
        fn torn_write_never_reaches_the_destination() {
            let _guard = serial();
            faults::clear_all();
            let dir = scratch_dir("torn");
            let (w, _) = trained();
            let path = dir.join("site.wrapper");
            w.save(&path).unwrap();
            let before = std::fs::read_to_string(&path).unwrap();

            // Crash after 20 bytes of the rewrite: the destination must
            // still hold the previous, fully-valid artifact.
            faults::configure_spec("persist.write.partial=once:partial(20)").unwrap();
            let err = w.save(&path).unwrap_err();
            assert!(err.to_string().contains("torn write"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
            // The torn temp file is on disk (that is the simulated crash
            // residue) and is itself unimportable.
            let torn: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
                .collect();
            assert_eq!(torn.len(), 1, "{torn:?}");
            let residue = std::fs::read_to_string(torn[0].path()).unwrap();
            assert_eq!(residue.len(), 20);
            assert!(Wrapper::import(&residue).is_err());

            faults::clear_all();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn write_and_rename_errors_preserve_the_old_artifact() {
            let _guard = serial();
            faults::clear_all();
            let dir = scratch_dir("rename");
            let (w, _) = trained();
            let path = dir.join("site.wrapper");
            w.save(&path).unwrap();
            let before = std::fs::read_to_string(&path).unwrap();

            faults::configure_spec("persist.write.error=once:return").unwrap();
            assert!(w.save(&path).is_err());
            faults::configure_spec("persist.rename.error=once:return").unwrap();
            assert!(w.save(&path).is_err());

            assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
            // Non-torn failures clean up their temp files.
            let leftovers: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
                .collect();
            assert!(leftovers.is_empty(), "{leftovers:?}");

            faults::clear_all();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

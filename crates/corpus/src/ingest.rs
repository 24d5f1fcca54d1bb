//! Corpus enumeration and page reading.
//!
//! A corpus is a deterministic, ordered list of pages: a directory of
//! `.html`/`.htm` files (sorted by file name), an explicit path list (a
//! newline-delimited manifest, in manifest order), or an in-memory page
//! set (the bench harness; no filesystem round trip for 10⁵-page runs).
//! Enumeration is cheap — names only — so the executor can hand out work
//! by index; page bodies are read lazily by the worker that processes
//! them, through [`read_page`] and its `pipeline.read` failpoint.

use rextract_faults::fail_point;
use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};

/// An in-memory page for [`CorpusSource::Memory`].
#[derive(Debug, Clone)]
pub struct MemPage {
    /// Provenance name emitted in the `source` field of each tuple.
    pub name: String,
    /// The page body.
    pub html: String,
}

/// Where the pipeline's pages come from.
#[derive(Debug, Clone)]
pub enum CorpusSource {
    /// Every `.html` / `.htm` file directly in a directory, sorted by
    /// file name (deterministic ingest order).
    Dir(PathBuf),
    /// A newline-delimited manifest file of page paths, in manifest
    /// order. Blank lines and `#` comments are skipped.
    Manifest(PathBuf),
    /// An explicit path list. Each entry goes through the manifest rule
    /// (one path per line, blank lines and `#` comments skipped), so a
    /// whole manifest text — the daemon's `POST /pipeline` body — can be
    /// one entry.
    Paths(Vec<String>),
    /// In-memory pages (bench harness).
    Memory(Vec<MemPage>),
}

/// One unit of work: a page's provenance name plus where its body lives.
#[derive(Debug)]
pub struct PageJob {
    /// Provenance name (`source` in emitted tuples): the file path, or
    /// the [`MemPage::name`] for in-memory corpora.
    pub source: String,
    /// In-memory body; `None` means read `source` from the filesystem.
    body: Option<String>,
}

/// Expand a source into its ordered job list. Only [`CorpusSource::Dir`]
/// and [`CorpusSource::Manifest`] touch the filesystem here (directory
/// listing / manifest read); page bodies stay unread until a worker
/// claims the job.
pub fn enumerate(source: &CorpusSource) -> io::Result<Vec<PageJob>> {
    match source {
        CorpusSource::Dir(dir) => {
            let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
                .collect::<io::Result<Vec<_>>>()?
                .into_iter()
                .map(|e| e.path())
                .filter(|p| {
                    p.extension().and_then(|e| e.to_str()).is_some_and(|e| {
                        e.eq_ignore_ascii_case("html") || e.eq_ignore_ascii_case("htm")
                    })
                })
                .collect();
            names.sort();
            Ok(names
                .into_iter()
                .map(|p| PageJob {
                    source: p.to_string_lossy().into_owned(),
                    body: None,
                })
                .collect())
        }
        CorpusSource::Manifest(path) => {
            let text = std::fs::read_to_string(path)?;
            Ok(manifest_lines(&text)
                .map(|l| PageJob {
                    source: l.to_string(),
                    body: None,
                })
                .collect())
        }
        CorpusSource::Paths(paths) => Ok(paths
            .iter()
            .flat_map(|p| manifest_lines(p))
            .map(|l| PageJob {
                source: l.to_string(),
                body: None,
            })
            .collect()),
        CorpusSource::Memory(pages) => Ok(pages
            .iter()
            .map(|p| PageJob {
                source: p.name.clone(),
                body: Some(p.html.clone()),
            })
            .collect()),
    }
}

/// The non-blank, non-comment lines of a manifest.
pub fn manifest_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// Read a job's page body. In-memory bodies borrow; file-backed bodies
/// read from disk. The `pipeline.read` failpoint injects an I/O error
/// here — mid-corpus, on whichever worker holds the job — which the
/// executor must absorb without losing track of the page (chaos-tested).
pub fn read_page(job: &PageJob) -> io::Result<Cow<'_, str>> {
    fail_point!("pipeline.read", |_action| Err(io::Error::new(
        io::ErrorKind::Interrupted,
        "injected corpus read failure (failpoint pipeline.read)",
    )));
    match &job.body {
        Some(html) => Ok(Cow::Borrowed(html)),
        None => std::fs::read_to_string(Path::new(&job.source)).map(Cow::Owned),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lines_skip_blanks_and_comments() {
        let got: Vec<&str> =
            manifest_lines("a.html\n\n# comment\n  b.html  \n#x\nc.html").collect();
        assert_eq!(got, ["a.html", "b.html", "c.html"]);
    }

    #[test]
    fn memory_corpus_enumerates_in_order_and_reads_without_io() {
        let src = CorpusSource::Memory(vec![
            MemPage {
                name: "p1".into(),
                html: "<p>one".into(),
            },
            MemPage {
                name: "p0".into(),
                html: "<p>zero".into(),
            },
        ]);
        let jobs = enumerate(&src).unwrap();
        // Memory order is the given order, not sorted: the caller owns it.
        assert_eq!(jobs[0].source, "p1");
        assert_eq!(read_page(&jobs[1]).unwrap(), "<p>zero");
    }

    #[test]
    fn dir_corpus_sorts_and_filters_by_extension() {
        let dir = std::env::temp_dir().join(format!("rextract-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b.html", "a.html", "c.htm", "notes.txt"] {
            std::fs::write(dir.join(name), "<p>x").unwrap();
        }
        let jobs = enumerate(&CorpusSource::Dir(dir.clone())).unwrap();
        let names: Vec<&str> = jobs
            .iter()
            .map(|j| Path::new(&j.source).file_name().unwrap().to_str().unwrap())
            .collect();
        assert_eq!(names, ["a.html", "b.html", "c.htm"]);
        assert_eq!(read_page(&jobs[0]).unwrap(), "<p>x");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Shared fixtures for the daemon's integration tests: a tiny HTTP/1.1
//! client, JSON scraping, polling, a trained artifact, and (with
//! failpoints) serialization over the global failpoint registry.
//! Each test binary uses a subset.
#![allow(dead_code)]

use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::wrapper::{TrainPage, Wrapper, WrapperConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    send_bytes(stream, method, path, body.as_bytes(), close)
}

/// [`send_request`] with a raw byte body, which need not be UTF-8.
pub fn send_bytes(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let conn = if close { "close" } else { "keep-alive" };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: {conn}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(&[head.as_bytes(), body].concat())
}

/// Read one response off an open reader (pipelined connections carry
/// several back to back). `None` when the connection died mid-exchange —
/// under injected faults that is an outcome to report, not a panic.
pub fn read_response(reader: &mut impl BufRead) -> Option<(u16, String)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().ok()?;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, String::from_utf8_lossy(&body).into_owned()))
}

/// One-shot request on a fresh connection; `None` if it died.
pub fn try_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    send_request(&mut stream, method, path, body, true).ok()?;
    read_response(&mut BufReader::new(stream))
}

pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    try_request(addr, method, path, body).expect("request failed")
}

/// One-shot request with a raw byte body on a fresh connection.
pub fn request_bytes(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_bytes(&mut stream, method, path, body, true).expect("write request");
    read_response(&mut BufReader::new(stream)).expect("response")
}

/// Extract `"field":value` (number) from a flat JSON body.
pub fn json_num(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let at = body.find(&key)? + key.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

pub fn poll_until(mut f: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if f() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A wrapper trained on one Plain, one TableEmbedded and one Busy page
/// of seed `seed`'s site, exported as an installable artifact, plus the
/// generator for further pages of the same site.
pub fn trained_artifact(seed: u64) -> (String, SiteGenerator) {
    let mut g = SiteGenerator::new(SiteConfig {
        seed,
        ..SiteConfig::default()
    });
    let pages = vec![
        TrainPage::from(&g.page_with_style(PageStyle::Plain)),
        TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        TrainPage::from(&g.page_with_style(PageStyle::Busy)),
    ];
    let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
    (w.export(), g)
}

#[cfg(feature = "failpoints")]
#[allow(unused_imports)] // only the failpoint-armed binaries arm faults
pub use failpoints::arm_faults;

#[cfg(feature = "failpoints")]
mod failpoints {
    use rextract_faults as faults;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Holds the failpoint lock for one test; clears the registry on drop.
    pub struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            faults::clear_all();
        }
    }

    /// The failpoint registry is process-global: take one mutex per test
    /// and start from a clear registry.
    pub fn arm_faults() -> FaultGuard {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        faults::clear_all();
        FaultGuard(guard)
    }
}

//! A minimal HTTP/1.1 keep-alive client for the serve workload.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The bytes of one request, exactly as sent.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Write raw request bytes (one request or a pipelined burst).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.reader.get_mut().write_all(bytes)
    }

    /// Read one response: status and body.
    pub fn read_response(&mut self) -> io::Result<(u16, String)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("non-UTF-8 body"))
    }

    /// One request, one response.
    pub fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.send(&request(method, path, body))?;
        self.read_response()
    }
}

/// The unsigned integer value of `"key":` in a flat JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The integer array value of `"key":[...]` in a flat JSON body.
pub fn json_u64_array(body: &str, key: &str) -> Option<Vec<u64>> {
    let at = body.find(&format!("\"{key}\":["))? + key.len() + 4;
    let rest = &body[at..];
    let inner = &rest[..rest.find(']')?];
    inner
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_fields() {
        let body = r#"{"wrapper":"search","position":17,"positions":[17],"tokenize_us":3}"#;
        assert_eq!(json_u64(body, "position"), Some(17));
        assert_eq!(json_u64(body, "tokenize_us"), Some(3));
        assert_eq!(json_u64_array(body, "positions"), Some(vec![17]));
        assert_eq!(
            json_u64_array(r#"{"positions":[]}"#, "positions"),
            Some(vec![])
        );
        assert_eq!(json_u64(body, "missing"), None);
    }
}

//! A keep-alive HTTP/1.1 client whose socket reads are paced to a link
//! rate, so response bytes cost the wall time they would on the paper's
//! 1 Gbit/s management network (Table III) instead of loopback speed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// 1 Gbit/s in bytes per second.
pub const GIGABIT: f64 = 1.0e9 / 8.0;

const READ_CHUNK: usize = 64 << 10;

/// One request/response exchange as the client saw it.
pub struct Exchange {
    pub status: u16,
    /// `X-Cache` header value (`hit`, `miss`, `coalesced`), if any.
    pub cache: Option<String>,
    /// True when the body is `mz1`-encoded.
    pub compressed: bool,
    pub body: Vec<u8>,
    /// Bytes read off the socket (head plus body).
    pub wire_bytes: usize,
    /// When the request was written.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last paced byte was read.
    pub done: Instant,
}

impl Exchange {
    /// Sent to last paced byte, in seconds.
    pub fn latency_s(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64()
    }

    /// First byte to last paced byte, in seconds.
    pub fn read_s(&self) -> f64 {
        self.done.duration_since(self.first_byte).as_secs_f64()
    }
}

/// A persistent connection whose reads never outrun `bytes_per_sec`.
pub struct PacedClient {
    stream: TcpStream,
    bytes_per_sec: f64,
    buf: Vec<u8>,
}

impl PacedClient {
    pub fn connect(addr: SocketAddr, bytes_per_sec: f64) -> std::io::Result<PacedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(PacedClient { stream, bytes_per_sec, buf: vec![0; READ_CHUNK] })
    }

    /// `GET path_and_query` on the open connection.
    pub fn get(&mut self, path_and_query: &str) -> std::io::Result<Exchange> {
        let request = format!(
            "GET {path_and_query} HTTP/1.1\r\nHost: monster\r\nConnection: keep-alive\r\n\
             Content-Length: 0\r\n\r\n"
        );
        let sent = Instant::now();
        self.stream.write_all(request.as_bytes())?;
        let mut raw: Vec<u8> = Vec::new();
        let mut first_byte = None;
        let mut head: Option<Head> = None;
        loop {
            if let Some(h) = &head {
                if raw.len() >= h.len + h.content_length {
                    break;
                }
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            let first = *first_byte.get_or_insert_with(Instant::now);
            raw.extend_from_slice(&self.buf[..n]);
            // Pace: the link delivers byte k no earlier than k / rate
            // after the first byte.
            let due = first + Duration::from_secs_f64(raw.len() as f64 / self.bytes_per_sec);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if head.is_none() {
                head = Head::parse(&raw)?;
                if let Some(h) = &head {
                    raw.reserve((h.len + h.content_length).saturating_sub(raw.len()));
                }
            }
        }
        let done = Instant::now();
        let h = head.expect("loop exits only with a parsed head");
        let wire_bytes = raw.len();
        if wire_bytes != h.len + h.content_length {
            return Err(invalid("bytes beyond Content-Length on a keep-alive connection"));
        }
        raw.drain(..h.len);
        Ok(Exchange {
            status: h.status,
            cache: h.cache,
            compressed: h.compressed,
            body: raw,
            wire_bytes,
            sent,
            first_byte: first_byte.expect("at least one read"),
            done,
        })
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

struct Head {
    len: usize,
    status: u16,
    content_length: usize,
    cache: Option<String>,
    compressed: bool,
}

impl Head {
    /// The response head, once `raw` holds all of it.
    fn parse(raw: &[u8]) -> std::io::Result<Option<Head>> {
        let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&raw[..end]).map_err(|_| invalid("non-UTF-8 head"))?;
        let mut lines = text.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut head =
            Head { len: end + 4, status, content_length: 0, cache: None, compressed: false };
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("Content-Length") {
                head.content_length = value.parse().map_err(|_| invalid("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("X-Cache") {
                head.cache = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("Content-Encoding") {
                head.compressed = value == "mz1";
            }
        }
        Ok(Some(head))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_http::{Method, Response, Router, Server};

    #[test]
    fn paced_reads_hold_to_one_gigabit() {
        const BODY: usize = 12 << 20;
        let router = Router::new().route(Method::Get, "/blob", |_, _| {
            Response::bytes(vec![b'x'; BODY], "application/octet-stream")
        });
        let server = Server::spawn(0, router).unwrap();
        let mut client = PacedClient::connect(server.addr(), GIGABIT).unwrap();
        for _ in 0..2 {
            let ex = client.get("/blob").unwrap();
            assert_eq!(ex.status, 200);
            assert_eq!(ex.body.len(), BODY);
            let floor = ex.wire_bytes as f64 / GIGABIT;
            let rate = ex.wire_bytes as f64 / ex.read_s();
            assert!(
                ex.read_s() >= floor,
                "read {:.4}s under the link floor {floor:.4}s",
                ex.read_s()
            );
            assert!(rate > 0.8 * GIGABIT, "paced rate {rate:.3e} B/s far below the link");
        }
    }
}

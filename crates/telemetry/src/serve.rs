//! A zero-dependency scrape endpoint over `std::net::TcpListener`.
//!
//! [`ScrapeServer::start`] spawns one background thread that answers
//! plain HTTP/1.1 GETs, so a live rebuild can be watched from `curl` (or
//! scraped by Prometheus) without pulling a web framework into the tree:
//!
//! | path | content | body |
//! |---|---|---|
//! | `/metrics` | `text/plain` | Prometheus exposition of the registry |
//! | `/metrics.json` | `application/json` | the registry's JSON render |
//! | `/traces` | `application/json` | snapshot of the global trace ring |
//! | `/events` | `application/json` | snapshot of the flight recorder |
//! | `/progress` | `application/json` | live rebuild progress (if attached) |
//! | `/health` | `text/plain` | `ok` |
//!
//! The listener is non-blocking and polled with a short sleep, so the
//! server thread notices a stop request promptly; [`ScrapeServer`] stops
//! and joins on drop. Exports are built from atomic snapshots (registry
//! lock held only while rendering, event rings seqlock-validated), so a
//! scrape during a rebuild never blocks the rebuild and never observes a
//! torn export.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{Progress, Registry};

/// A running scrape endpoint; stops and joins its thread on drop.
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `reg` — and, when given, `progress` — in a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures from the socket layer.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        reg: Arc<Registry>,
        progress: Option<Arc<Progress>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("oi-scrape".into())
            .spawn(move || serve_loop(listener, reg, progress, stop2))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server thread to exit and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(
    listener: TcpListener,
    reg: Arc<Registry>,
    progress: Option<Arc<Progress>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(stream, &reg, progress.as_deref()),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Reads one request line, writes one response, closes. Any I/O error
/// just drops the connection — a scraper's problem, not the store's.
fn handle_conn(mut stream: TcpStream, reg: &Registry, progress: Option<&Progress>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let mut filled = 0usize;
    // Read until the request line is complete (first CRLF); headers are
    // irrelevant for GET and ignored.
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(2).any(|w| w == b"\r\n") || filled == buf.len() {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf[..filled]);
    let mut parts = request.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return,
    };
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "GET only\n".into())
    } else {
        route(path, reg, progress)
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn route(
    path: &str,
    reg: &Registry,
    progress: Option<&Progress>,
) -> (&'static str, &'static str, String) {
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", reg.prometheus()),
        "/metrics.json" => ("200 OK", "application/json", reg.json()),
        "/traces" => ("200 OK", "application/json", crate::traces().to_json()),
        "/events" => ("200 OK", "application/json", crate::flight().to_json()),
        "/progress" => ("200 OK", "application/json", progress_json(progress)),
        "/health" | "/" => ("200 OK", "text/plain", "ok\n".into()),
        _ => ("404 Not Found", "text/plain", "not found\n".into()),
    }
}

fn progress_json(progress: Option<&Progress>) -> String {
    let Some(p) = progress else {
        return "{\"attached\":false}".into();
    };
    let s = p.snapshot();
    format!(
        "{{\"attached\":true,\"total_chunks\":{},\"chunks_combined\":{},\"chunks_written\":{},\
         \"resumed_chunks\":{},\"bytes_read\":{},\"bytes_written\":{},\"elapsed_ns\":{},\
         \"fraction\":{:.6},\"rate_mib_s\":{:.3},\"eta_ns\":{},\"finished\":{}}}",
        s.total_chunks,
        s.chunks_combined,
        s.chunks_written,
        s.resumed_chunks,
        s.bytes_read,
        s.bytes_written,
        s.elapsed.as_nanos(),
        s.fraction,
        s.rate_mib_s,
        s.eta.map_or(-1i128, |d| d.as_nanos() as i128),
        s.finished
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal test client: one GET, returns (status line, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response.lines().next().unwrap_or("").to_string();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_all_routes() {
        let _switches = crate::hold_switches();
        let reg = Arc::new(Registry::new());
        reg.counter("oi_test_total", "Test counter", &[]).inc_by(3);
        let progress = Arc::new(Progress::new());
        progress.begin(10);
        progress.chunk_combined();
        let server =
            ScrapeServer::start("127.0.0.1:0", Arc::clone(&reg), Some(Arc::clone(&progress)))
                .expect("bind");
        let addr = server.local_addr();

        let (status, body) = get(addr, "/health");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"));
        assert!(body.contains("oi_test_total 3"));
        crate::lint_prometheus(&body).expect("scraped exposition lints clean");

        let (status, body) = get(addr, "/metrics.json");
        assert!(status.contains("200"));
        assert!(body.contains("\"oi_test_total\""));

        let (status, body) = get(addr, "/traces");
        assert!(status.contains("200"));
        assert!(body.contains("\"events\":["), "{body}");

        let (status, body) = get(addr, "/events");
        assert!(status.contains("200"));
        assert!(body.starts_with("{\"dropped\":"));

        let (status, body) = get(addr, "/progress");
        assert!(status.contains("200"));
        assert!(body.contains("\"attached\":true"));
        assert!(body.contains("\"total_chunks\":10"));

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");
    }

    #[test]
    fn progress_route_without_attachment() {
        let server =
            ScrapeServer::start("127.0.0.1:0", Arc::new(Registry::new()), None).expect("bind");
        let (status, body) = get(server.local_addr(), "/progress");
        assert!(status.contains("200"));
        assert_eq!(body, "{\"attached\":false}");
    }

    #[test]
    fn stop_is_idempotent_and_drop_joins() {
        let mut server =
            ScrapeServer::start("127.0.0.1:0", Arc::new(Registry::new()), None).expect("bind");
        let addr = server.local_addr();
        let (status, _) = get(addr, "/health");
        assert!(status.contains("200"));
        server.stop();
        server.stop();
        assert!(
            TcpStream::connect_timeout(&addr.to_owned(), Duration::from_millis(200)).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut s| {
                        write!(s, "GET /health HTTP/1.1\r\n\r\n")?;
                        let mut out = String::new();
                        s.read_to_string(&mut out).map(|_| out)
                    })
                    .map(|out| out.is_empty())
                    .unwrap_or(true),
            "stopped server no longer answers"
        );
    }
}

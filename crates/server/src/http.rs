//! A deliberately minimal HTTP/1.1 layer: exactly what the service and
//! its test/bench clients need, nothing more.
//!
//! One request per connection (`Connection: close`), bodies sized by
//! `Content-Length` only, query strings as flat `key=value` pairs.
//! No percent-decoding: project identifiers are restricted to
//! `[A-Za-z0-9._-]` and every parameter the API takes is numeric or an
//! enum keyword, so nothing in the grammar needs escaping.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on accepted request bodies (1 MiB): the largest
/// legitimate payload is an event batch of a few thousand CSV lines.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `PUT`, …).
    pub method: String,
    /// Path without the query string, e.g. `/projects/sys17/fit`.
    pub path: String,
    /// Query parameters in order-independent form.
    pub query: BTreeMap<String, String>,
    /// Raw request body (UTF-8 expected by every route that reads it).
    pub body: Vec<u8>,
}

impl Request {
    /// A query parameter, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// The `/`-separated path segments, empties dropped.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// An HTTP response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Seconds to send in a `Retry-After` header, for 503 shed/overload
    /// responses.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body,
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` header (seconds).
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u32) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialises the response (status line, headers, body) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        if let Some(seconds) = self.retry_after {
            write!(w, "Retry-After: {seconds}\r\n")?;
        }
        write!(w, "Connection: close\r\n\r\n")?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

/// Parses one request from a buffered stream.
///
/// # Errors
///
/// `InvalidData` on a malformed request line, header or oversized body;
/// plain I/O errors (including timeouts) pass through.
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Request> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(bad("malformed request line")),
    };

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| bad("bad content-length"))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_text.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// The bytes of a one-shot client request: request line, `Host`,
/// `Content-Length` and `Connection: close`, then the body. Rendered
/// whole so that the client sends it in one write, and the server's
/// worker wakes once for it rather than once per fragment.
fn render_request(addr: &str, method: &str, path_and_query: &str, body: Option<&str>) -> Vec<u8> {
    let payload = body.unwrap_or("");
    format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    )
    .into_bytes()
}

/// Blocking one-shot client used by the CLI client, the load generator
/// and the end-to-end tests: connects, sends one request, returns
/// `(status, body)`.
///
/// # Errors
///
/// Connection or protocol failures as `io::Error`.
pub fn client_request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let (status, _, body) = client_request_full(addr, method, path_and_query, body)?;
    Ok((status, body))
}

/// Like [`client_request`] but also returns the parsed `Retry-After`
/// header (seconds), which shed/overload responses carry.
///
/// # Errors
///
/// Connection or protocol failures as `io::Error`.
pub fn client_request_full(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
) -> io::Result<(u16, Option<u32>, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
    stream.write_all(&render_request(addr, method, path_and_query, body))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = None;
    let mut retry_after = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            // Numeric headers are normalised (surrounding whitespace
            // stripped) and then parsed strictly: a present-but-garbled
            // value is a protocol error, not an absent header. Treating
            // it as absent would make the client read to EOF on a bad
            // Content-Length and ignore the server's shed interval on a
            // bad Retry-After — both silent misbehaviours.
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad("malformed Content-Length in response"))?,
                );
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = Some(
                    value
                        .trim()
                        .parse::<u32>()
                        .map_err(|_| bad("malformed Retry-After in response"))?,
                );
            }
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            body = String::from_utf8(buf).map_err(|_| bad("non-UTF-8 body"))?;
        }
        None => {
            reader.read_to_string(&mut body)?;
        }
    }
    Ok((status, retry_after, body))
}

/// [`client_request`] with shed-aware retries: on a 503 the client
/// sleeps for the server's `Retry-After` interval (capped at
/// `max_wait` per wait, defaulting to one second when the header is
/// absent) and reissues the request, up to `max_retries` additional
/// attempts. Cumulative sleeping is further capped at `deadline`: a
/// long shed sequence shortens its final wait to land exactly on the
/// budget, and once the budget is spent the current 503 is returned
/// instead of sleeping again — the client never overshoots the
/// caller's deadline, no matter what intervals the server advertises.
/// Any other status — success or error — is returned immediately; the
/// caller still decides what non-2xx means.
///
/// # Errors
///
/// Connection or protocol failures as `io::Error`.
pub fn client_request_with_backoff(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
    max_retries: u32,
    max_wait: std::time::Duration,
    deadline: std::time::Duration,
) -> io::Result<(u16, String)> {
    let mut attempt = 0u32;
    let mut slept = std::time::Duration::ZERO;
    loop {
        let (status, retry_after, text) = client_request_full(addr, method, path_and_query, body)?;
        if status != 503 || attempt >= max_retries {
            return Ok((status, text));
        }
        let wait = std::time::Duration::from_secs(u64::from(retry_after.unwrap_or(1)))
            .min(max_wait)
            .min(deadline.saturating_sub(slept));
        if wait.is_zero() && slept >= deadline {
            // The cumulative backoff budget is spent: surface the shed
            // response rather than stall past the caller's deadline.
            return Ok((status, text));
        }
        std::thread::sleep(wait);
        slept += wait;
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_with_query_and_body() {
        let raw = "POST /projects/p1/events?level=0.99&param=omega HTTP/1.1\r\n\
                   Host: x\r\nContent-Length: 9\r\n\r\n# t_end=1";
        let req = read_request(&mut raw.as_bytes()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/projects/p1/events");
        assert_eq!(req.param("level"), Some("0.99"));
        assert_eq!(req.param("param"), Some("omega"));
        assert_eq!(req.segments(), vec!["projects", "p1", "events"]);
        assert_eq!(req.body, b"# t_end=1");
    }

    #[test]
    fn client_requests_render_whole_and_parse_back() {
        let bytes = render_request(
            "127.0.0.1:7878",
            "POST",
            "/projects/p1/events",
            Some("1,2\n"),
        );
        assert_eq!(
            bytes,
            b"POST /projects/p1/events HTTP/1.1\r\nHost: 127.0.0.1:7878\r\n\
              Content-Length: 4\r\nConnection: close\r\n\r\n1,2\n"
        );
        let req = read_request(&mut bytes.as_slice()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.body.as_slice()),
            ("POST", &b"1,2\n"[..])
        );
        assert_eq!(
            render_request("h:1", "GET", "/metrics", None),
            b"GET /metrics HTTP/1.1\r\nHost: h:1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(read_request(&mut "\r\n\r\n".as_bytes()).is_err());
        assert!(read_request(&mut "GET\r\n\r\n".as_bytes()).is_err());
        let oversized = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(read_request(&mut oversized.as_bytes()).is_err());
    }

    #[test]
    fn response_serialises_with_content_length() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(!text.contains("Retry-After"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let mut buf = Vec::new();
        Response::json(503, "{\"error\":\"overloaded\"}".into())
            .with_retry_after(2)
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
    }

    /// Serves each canned raw response to one connection, in order,
    /// reading (and discarding) the request first. Returns the bound
    /// address and a handle yielding the number of connections served.
    fn serve_raw(responses: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut served = 0usize;
            for raw in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let _ = read_request(&mut reader);
                stream.write_all(&raw).unwrap();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn client_rejects_malformed_numeric_headers() {
        for raw in [
            "HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 12 bytes\r\n\r\n",
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: soon\r\n\r\n",
        ] {
            let (addr, handle) = serve_raw(vec![raw.as_bytes().to_vec()]);
            let err = client_request(&addr, "GET", "/", None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}: {err}");
            handle.join().unwrap();
        }
    }

    #[test]
    fn client_normalises_whitespace_padded_numeric_headers() {
        let raw = "HTTP/1.1 503 Service Unavailable\r\n\
                   Content-Length:   2  \r\nRetry-After:\t7 \r\n\r\nhi";
        let (addr, handle) = serve_raw(vec![raw.as_bytes().to_vec()]);
        let (status, retry_after, body) = client_request_full(&addr, "GET", "/", None).unwrap();
        assert_eq!((status, retry_after, body.as_str()), (503, Some(7), "hi"));
        handle.join().unwrap();
    }

    /// A shed 503's `Retry-After` — serialised by the server's own
    /// `Response` type — round-trips through the client backoff: the
    /// client sleeps for the advertised interval (clamped to its cap)
    /// and the retry lands the 200.
    #[test]
    fn shed_retry_after_round_trips_through_backoff() {
        let mut shed = Vec::new();
        Response::json(503, "{\"error\":\"overloaded\"}".into())
            .with_retry_after(1)
            .write_to(&mut shed)
            .unwrap();
        let mut ok = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut ok)
            .unwrap();
        let (addr, handle) = serve_raw(vec![shed, ok]);
        let cap = std::time::Duration::from_millis(40);
        let deadline = std::time::Duration::from_millis(500);
        let started = std::time::Instant::now();
        let (status, body) =
            client_request_with_backoff(&addr, "GET", "/projects/p/fit", None, 3, cap, deadline)
                .unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"), "{body}");
        // The advertised 1 s interval was honoured but clamped to the cap.
        let elapsed = started.elapsed();
        assert!(elapsed >= cap, "slept only {elapsed:?}");
        assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn backoff_gives_up_after_max_retries() {
        let mut shed = Vec::new();
        Response::json(503, "{\"error\":\"overloaded\"}".into())
            .with_retry_after(0)
            .write_to(&mut shed)
            .unwrap();
        let (addr, handle) = serve_raw(vec![shed.clone(), shed.clone(), shed]);
        let cap = std::time::Duration::from_millis(10);
        let deadline = std::time::Duration::from_millis(100);
        let (status, body) =
            client_request_with_backoff(&addr, "GET", "/", None, 2, cap, deadline).unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("overloaded"), "{body}");
        assert_eq!(handle.join().unwrap(), 3);
    }

    /// A server shedding with long `Retry-After` intervals cannot make
    /// the client sleep past its cumulative deadline: the waits shrink
    /// to fit the remaining budget and, once it is spent, the shed
    /// response comes back immediately even with retries left.
    #[test]
    fn backoff_caps_cumulative_sleeps_at_the_deadline() {
        let mut shed = Vec::new();
        Response::json(503, "{\"error\":\"overloaded\"}".into())
            .with_retry_after(60)
            .write_to(&mut shed)
            .unwrap();
        // Far more sheds queued than the deadline allows sleeps for.
        let (addr, handle) = serve_raw(vec![shed.clone(), shed.clone(), shed.clone(), shed]);
        let per_wait = std::time::Duration::from_millis(30);
        let deadline = std::time::Duration::from_millis(75);
        let started = std::time::Instant::now();
        let (status, body) = client_request_with_backoff(
            &addr,
            "GET",
            "/projects/p/fit",
            None,
            10,
            per_wait,
            deadline,
        )
        .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(status, 503);
        assert!(body.contains("overloaded"), "{body}");
        // Three sleeps fit the 75 ms budget (30 + 30 + 15); the fourth
        // shed returns without sleeping, with six retries still unused.
        assert_eq!(handle.join().unwrap(), 4);
        assert!(elapsed >= deadline, "slept only {elapsed:?}");
        assert!(
            elapsed < deadline + std::time::Duration::from_secs(1),
            "overshot the deadline: {elapsed:?}"
        );
    }
}

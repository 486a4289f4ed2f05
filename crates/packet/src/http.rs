//! Minimal HTTP/1.1 request/response codec.
//!
//! Enough of HTTP for the `http_get` parser (paper Table 1) and the
//! emulated web servers: request-line construction/extraction and status
//! lines. Header blocks are carried but treated opaquely.

use std::fmt;

/// An HTTP request method recognised by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET — the method the `http_get` parser extracts.
    Get,
    /// POST.
    Post,
    /// HEAD.
    Head,
    /// PUT.
    Put,
    /// DELETE.
    Delete,
}

impl Method {
    fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }

    fn from_token(token: &[u8]) -> Option<Method> {
        match token {
            b"GET" => Some(Method::Get),
            b"POST" => Some(Method::Post),
            b"HEAD" => Some(Method::Head),
            b"PUT" => Some(Method::Put),
            b"DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed HTTP request line, borrowing the payload it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLine<'a> {
    /// Request method.
    pub method: Method,
    /// Request target (URL path).
    pub url: &'a str,
}

/// Builds the bytes of a minimal HTTP GET request for `url` on `host`.
///
/// # Examples
///
/// ```
/// use netalytics_packet::http;
///
/// let req = http::build_get("/videos/42", "h1");
/// let line = http::parse_request(&req).unwrap();
/// assert_eq!(line.url, "/videos/42");
/// ```
pub fn build_get(url: &str, host: &str) -> Vec<u8> {
    format!("GET {url} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: netalytics\r\n\r\n").into_bytes()
}

/// Builds the bytes of a minimal HTTP response with `status` and `body`.
pub fn build_response(status: u16, body: &[u8]) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Parses an HTTP request line from the start of a TCP payload.
///
/// Returns `None` for payloads that do not begin with a recognised method —
/// the monitor must cheaply skip non-HTTP traffic, so this never errors
/// and never allocates.
pub fn parse_request(payload: &[u8]) -> Option<RequestLine<'_>> {
    let line_end = payload
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(payload.len());
    let line = &payload[..line_end];
    let mut parts = line.split(|&b| b == b' ');
    let method = Method::from_token(parts.next()?)?;
    let url_raw = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with(b"HTTP/") || url_raw.is_empty() {
        return None;
    }
    let url = std::str::from_utf8(url_raw).ok()?;
    Some(RequestLine { method, url })
}

/// Parses an HTTP status code from the start of a response payload.
pub fn parse_status(payload: &[u8]) -> Option<u16> {
    if !payload.starts_with(b"HTTP/") {
        return None;
    }
    let line_end = payload
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(payload.len());
    let line = &payload[..line_end];
    let mut parts = line.split(|&b| b == b' ');
    let _version = parts.next()?;
    let code = parts.next()?;
    std::str::from_utf8(code).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_roundtrip() {
        let req = build_get("/index.html", "example.org");
        let line = parse_request(&req).unwrap();
        assert_eq!(line.method, Method::Get);
        assert_eq!(line.url, "/index.html");
    }

    #[test]
    fn all_methods_parse() {
        for (m, s) in [
            (Method::Get, "GET"),
            (Method::Post, "POST"),
            (Method::Head, "HEAD"),
            (Method::Put, "PUT"),
            (Method::Delete, "DELETE"),
        ] {
            let payload = format!("{s} /x HTTP/1.1\r\n\r\n");
            assert_eq!(parse_request(payload.as_bytes()).unwrap().method, m);
            assert_eq!(m.to_string(), s);
        }
    }

    #[test]
    fn non_http_payloads_skip() {
        assert!(parse_request(b"").is_none());
        assert!(parse_request(b"BREW /pot HTCPCP/1.0").is_none());
        assert!(parse_request(b"GET ").is_none());
        assert!(parse_request(b"GET  HTTP/1.1").is_none());
        assert!(parse_request(b"GET /x SMTP").is_none());
        assert!(parse_request(&[0xff, 0xfe, b' ', b'x']).is_none());
    }

    #[test]
    fn status_parse() {
        let resp = build_response(200, b"hello");
        assert_eq!(parse_status(&resp), Some(200));
        assert_eq!(parse_status(b"HTTP/1.1 404 Not Found\r\n"), Some(404));
        assert_eq!(parse_status(b"GET / HTTP/1.1"), None);
        assert_eq!(parse_status(b""), None);
    }

    #[test]
    fn response_carries_body() {
        let resp = build_response(500, b"oops");
        let s = String::from_utf8(resp).unwrap();
        assert!(s.contains("Content-Length: 4"));
        assert!(s.ends_with("oops"));
        assert!(s.contains("Internal Server Error"));
    }
}

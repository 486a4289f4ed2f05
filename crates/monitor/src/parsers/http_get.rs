//! `http_get` — parse HTTP GET requests and responses (Table 1, App layer).
//!
//! "We provide a http_get parser that can extract the URL of an HTTP GET
//! request" (§3.1); responses contribute the status code and, joined by
//! flow ID, per-URL timing (Fig. 13).

use netalytics_data::BatchBuilder;
use netalytics_packet::{http, Packet};

use super::{field_ip, Fields};
use crate::parser::Parser;

/// Extracts GET URLs from requests and status codes from responses.
///
/// Field ids are interned once at construction and values (the URL
/// borrowed from the payload, the peer IP formatted on the stack) append
/// straight into column arenas — a GET parses without a per-packet heap
/// allocation.
#[derive(Debug, Default)]
pub struct HttpGetParser {
    f: Fields,
}

impl HttpGetParser {
    /// Creates the parser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Parser for HttpGetParser {
    fn name(&self) -> &'static str {
        "http_get"
    }

    fn on_packet_columns(&mut self, packet: &Packet, out: &mut BatchBuilder) {
        let Ok(view) = packet.view() else { return };
        if view.tcp.is_none() || view.payload.is_empty() {
            return;
        }
        let Some(flow) = packet.flow_key() else {
            return;
        };
        // Requests and responses of one connection share an ID so the
        // processor can pair them (canonical = direction-independent).
        let id = flow.canonical_hash();
        if let Some(req) = http::parse_request(view.payload) {
            if req.method == http::Method::Get {
                out.begin_row(id, packet.ts_ns, "http_get");
                out.field_str(self.f.kind, "request");
                out.field_str(self.f.url, req.url);
                field_ip(out, self.f.dst_ip, flow.dst_ip);
                out.field_u64(self.f.t_ns, packet.ts_ns);
                out.end_row();
            }
        } else if let Some(status) = http::parse_status(view.payload) {
            out.begin_row(id, packet.ts_ns, "http_get");
            out.field_str(self.f.kind, "response");
            out.field_u64(self.f.status, u64::from(status));
            field_ip(out, self.f.src_ip, flow.src_ip);
            out.field_u64(self.f.t_ns, packet.ts_ns);
            out.end_row();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::tests::parse_rows;
    use netalytics_data::DataTuple;
    use netalytics_packet::TcpFlags;
    use std::net::Ipv4Addr;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    fn parse(pkts: &[Packet]) -> Vec<DataTuple> {
        parse_rows(&mut HttpGetParser::new(), pkts)
    }

    #[test]
    fn request_and_response_pair_by_id() {
        let req = Packet::tcp(
            C,
            4000,
            S,
            80,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &http::build_get("/videos/7", "s"),
        );
        let resp = Packet::tcp(
            S,
            80,
            C,
            4000,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            2,
            &http::build_response(200, b"data"),
        );
        let out = parse(&[req, resp]);
        assert_eq!(out[0].id, out[1].id, "request/response join on one ID");
        // Field names, order and value types, as the processors read them.
        let id = out[0].id;
        assert_eq!(
            out,
            [
                DataTuple::new(id, 0)
                    .from_source("http_get")
                    .with("kind", "request")
                    .with("url", "/videos/7")
                    .with("dst_ip", "10.0.0.9")
                    .with("t_ns", 0u64),
                DataTuple::new(id, 0)
                    .from_source("http_get")
                    .with("kind", "response")
                    .with("status", 200u64)
                    .with("src_ip", "10.0.0.9")
                    .with("t_ns", 0u64),
            ]
        );
    }

    #[test]
    fn post_requests_skipped() {
        let post = Packet::tcp(
            C,
            4000,
            S,
            80,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            b"POST /submit HTTP/1.1\r\n\r\n",
        );
        assert!(parse(&[post]).is_empty());
    }

    #[test]
    fn empty_and_binary_payloads_skipped() {
        let empty = Packet::tcp(C, 4000, S, 80, TcpFlags::ACK, 1, 1, b"");
        let binary = Packet::tcp(C, 4000, S, 80, TcpFlags::ACK, 1, 1, &[0xde, 0xad, 0xbe]);
        assert!(parse(&[empty, binary]).is_empty());
    }

    #[test]
    fn udp_skipped() {
        let udp = Packet::udp(C, 1, S, 80, b"GET / HTTP/1.1\r\n");
        assert!(parse(&[udp]).is_empty());
    }
}

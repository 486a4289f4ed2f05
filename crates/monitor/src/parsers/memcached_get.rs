//! `memcached_get` — parse memcached get requests (Table 1, App layer).

use netalytics_data::BatchBuilder;
use netalytics_packet::{memcached, Packet};

use super::{field_ip, Fields};
use crate::parser::Parser;

/// Extracts keys from memcached `get` requests and hit/miss from
/// responses.
#[derive(Debug, Default)]
pub struct MemcachedGetParser {
    f: Fields,
}

impl MemcachedGetParser {
    /// Creates the parser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Parser for MemcachedGetParser {
    fn name(&self) -> &'static str {
        "memcached_get"
    }

    fn on_packet_columns(&mut self, packet: &Packet, out: &mut BatchBuilder) {
        let Ok(view) = packet.view() else { return };
        if view.tcp.is_none() || view.payload.is_empty() {
            return;
        }
        let Some(flow) = packet.flow_key() else {
            return;
        };
        let id = flow.canonical_hash();
        if let Some(memcached::Command::Get { key }) = memcached::parse_command(view.payload) {
            out.begin_row(id, packet.ts_ns, "memcached_get");
            out.field_str(self.f.kind, "request");
            out.field_str(self.f.key, &key);
            field_ip(out, self.f.dst_ip, flow.dst_ip);
            out.field_u64(self.f.t_ns, packet.ts_ns);
            out.end_row();
        } else if view.payload.starts_with(b"VALUE ") || view.payload.starts_with(b"END") {
            out.begin_row(id, packet.ts_ns, "memcached_get");
            out.field_str(self.f.kind, "response");
            out.field_bool(self.f.hit, memcached::response_is_hit(view.payload));
            out.field_u64(self.f.t_ns, packet.ts_ns);
            out.end_row();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::tests::parse_rows;
    use netalytics_data::{DataTuple, Value};
    use netalytics_packet::TcpFlags;
    use std::net::Ipv4Addr;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);

    #[test]
    fn get_and_hit_miss() {
        let mut p = MemcachedGetParser::new();
        let req = Packet::tcp(
            C,
            4000,
            S,
            11211,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &memcached::build_get("user:1"),
        );
        let hit = Packet::tcp(
            S,
            11211,
            C,
            4000,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            2,
            &memcached::build_value_response("user:1", Some(b"v")),
        );
        let miss = Packet::tcp(
            S,
            11211,
            C,
            4000,
            TcpFlags::PSH | TcpFlags::ACK,
            2,
            3,
            &memcached::build_value_response("user:2", None),
        );
        let out = parse_rows(&mut p, &[req, hit, miss]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].get("hit").and_then(Value::as_bool), Some(false));
        assert_eq!(out[0].id, out[1].id);
        // Field names, order and value types, as the processors read them.
        assert_eq!(
            out[..2],
            [
                DataTuple::new(out[0].id, 0)
                    .from_source("memcached_get")
                    .with("kind", "request")
                    .with("key", "user:1")
                    .with("dst_ip", "10.0.0.7")
                    .with("t_ns", 0u64),
                DataTuple::new(out[0].id, 0)
                    .from_source("memcached_get")
                    .with("kind", "response")
                    .with("hit", true)
                    .with("t_ns", 0u64),
            ]
        );
    }

    #[test]
    fn set_commands_and_noise_skipped() {
        let mut p = MemcachedGetParser::new();
        let set = Packet::tcp(
            C,
            4000,
            S,
            11211,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &memcached::build_set("k", b"v"),
        );
        let noise = Packet::tcp(C, 4000, S, 11211, TcpFlags::ACK, 2, 1, b"hello");
        assert!(parse_rows(&mut p, &[set, noise]).is_empty());
    }
}

//! `tcp_flow_key` — extract the transport 5-tuple (Table 1, Net layer).

use netalytics_data::BatchBuilder;
use netalytics_packet::Packet;

use super::{field_ip, Fields};
use crate::parser::Parser;

/// Emits one row per TCP packet carrying the flow's addressing.
///
/// The row ID is the flow's stable hash, letting processors join this
/// addressing information with measurements from other parsers.
#[derive(Debug, Default)]
pub struct TcpFlowKeyParser {
    f: Fields,
}

impl TcpFlowKeyParser {
    /// Creates the parser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Parser for TcpFlowKeyParser {
    fn name(&self) -> &'static str {
        "tcp_flow_key"
    }

    fn on_packet_columns(&mut self, packet: &Packet, out: &mut BatchBuilder) {
        let Some(flow) = packet.flow_key() else {
            return;
        };
        if flow.proto != 6 {
            return;
        }
        out.begin_row(flow.stable_hash(), packet.ts_ns, "tcp_flow_key");
        field_ip(out, self.f.src_ip, flow.src_ip);
        field_ip(out, self.f.dst_ip, flow.dst_ip);
        out.field_u64(self.f.src_port, u64::from(flow.src_port));
        out.field_u64(self.f.dst_port, u64::from(flow.dst_port));
        out.end_row();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::tests::parse_rows;
    use netalytics_data::DataTuple;
    use netalytics_packet::TcpFlags;
    use std::net::Ipv4Addr;

    #[test]
    fn emits_addressing_fields() {
        let mut p = TcpFlowKeyParser::new();
        let pkt = Packet::tcp(
            Ipv4Addr::new(10, 0, 2, 8),
            5555,
            Ipv4Addr::new(10, 0, 2, 9),
            80,
            TcpFlags::SYN,
            0,
            0,
            b"",
        );
        let out = parse_rows(&mut p, std::slice::from_ref(&pkt));
        // Field names, order and value types, as the processors read them.
        assert_eq!(
            out,
            [DataTuple::new(pkt.flow_key().unwrap().stable_hash(), 0)
                .from_source("tcp_flow_key")
                .with("src_ip", "10.0.2.8")
                .with("dst_ip", "10.0.2.9")
                .with("src_port", 5555u64)
                .with("dst_port", 80u64)]
        );
    }

    #[test]
    fn skips_udp_and_garbage() {
        let mut p = TcpFlowKeyParser::new();
        let udp = Packet::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            1,
            Ipv4Addr::new(2, 2, 2, 2),
            2,
            b"",
        );
        let junk = Packet::from_bytes(bytes::Bytes::from_static(b"nonsense"), 0);
        assert!(parse_rows(&mut p, &[udp, junk]).is_empty());
    }
}

//! `tcp_pkt_size` — calculate TCP packet size (Table 1, Net layer).
//!
//! Used by the §7.1 case study with a `group-sum` processor to compute
//! per-connection throughput (Fig. 11).

use std::net::Ipv4Addr;

use netalytics_data::BatchBuilder;
use netalytics_packet::{FlowKey, IpProto, Packet};

use super::{field_ip, Fields};
use crate::parser::Parser;

/// Payload bytes and packets of one flow since the last flush.
#[derive(Debug)]
struct FlowAcc {
    id: u64,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    bytes: u64,
    pkts: u64,
}

/// Emits per-packet payload sizes, aggregated per flow between flushes to
/// keep tuple volume low (parsers "produce aggregate statistics about
/// flows", §3.1). The lane flushes at least every `batch_size` packets,
/// which bounds `acc` and the linear scan over it.
#[derive(Debug, Default)]
pub struct TcpPktSizeParser {
    f: Fields,
    /// Flows seen since the last flush, in first-seen order.
    acc: Vec<FlowAcc>,
}

impl TcpPktSizeParser {
    /// Creates the parser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Parser for TcpPktSizeParser {
    fn name(&self) -> &'static str {
        "tcp_pkt_size"
    }

    fn on_packet_columns(&mut self, packet: &Packet, _out: &mut BatchBuilder) {
        let Ok(view) = packet.view() else { return };
        let (Some(ip), Some(tcp)) = (view.ipv4, view.tcp) else {
            return;
        };
        let flow = FlowKey::new(ip.src, tcp.src_port, ip.dst, tcp.dst_port, IpProto::Tcp);
        let id = flow.stable_hash();
        let bytes = view.payload.len() as u64;
        match self.acc.iter_mut().find(|a| a.id == id) {
            Some(a) => {
                a.bytes += bytes;
                a.pkts += 1;
            }
            None => self.acc.push(FlowAcc {
                id,
                src: ip.src,
                dst: ip.dst,
                bytes,
                pkts: 1,
            }),
        }
    }

    fn flush_columns(&mut self, now_ns: u64, out: &mut BatchBuilder) {
        for a in self.acc.drain(..) {
            out.begin_row(a.id, now_ns, "tcp_pkt_size");
            field_ip(out, self.f.src_ip, a.src);
            field_ip(out, self.f.dst_ip, a.dst);
            out.field_u64(self.f.bytes, a.bytes);
            out.field_u64(self.f.pkts, a.pkts);
            out.end_row();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalytics_data::{DataTuple, Value};
    use netalytics_packet::TcpFlags;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn flushed(p: &mut TcpPktSizeParser, out: &mut BatchBuilder, now_ns: u64) -> Vec<DataTuple> {
        p.flush_columns(now_ns, out);
        out.finish().to_batch().into_tuples()
    }

    #[test]
    fn aggregates_per_flow_until_flush() {
        let mut p = TcpPktSizeParser::new();
        let mut out = BatchBuilder::new();
        for i in 0..3u32 {
            let pkt = Packet::tcp(A, 4000, B, 80, TcpFlags::ACK, i, 0, &[0u8; 100]);
            p.on_packet_columns(&pkt, &mut out);
        }
        let other = Packet::tcp(A, 4001, B, 80, TcpFlags::ACK, 0, 0, &[0u8; 10]);
        p.on_packet_columns(&other, &mut out);
        assert!(out.is_empty(), "nothing emitted before flush");
        let rows = flushed(&mut p, &mut out, 999);
        assert_eq!(rows.len(), 2, "one tuple per flow");
        let big = rows
            .iter()
            .find(|t| t.get("bytes").and_then(Value::as_u64) == Some(300))
            .expect("300-byte flow present");
        // Field names, order and value types, as the processors read them.
        assert_eq!(
            *big,
            DataTuple::new(big.id, 999)
                .from_source("tcp_pkt_size")
                .with("src_ip", "10.0.0.1")
                .with("dst_ip", "10.0.0.2")
                .with("bytes", 300u64)
                .with("pkts", 3u64)
        );
        // Second flush emits nothing new.
        assert!(flushed(&mut p, &mut out, 1000).is_empty());
    }

    #[test]
    fn ignores_non_tcp() {
        let mut p = TcpPktSizeParser::new();
        let mut out = BatchBuilder::new();
        p.on_packet_columns(&Packet::udp(A, 1, B, 2, b"xxx"), &mut out);
        assert!(flushed(&mut p, &mut out, 1).is_empty());
    }
}
